"""The numpy permutation layer (perms.py) against the tuple reference.

The reference functions below are the original pure-Python closure and
dedup: a breadth-first closure over tuples (frontier element h outer,
generator g inner, p = g o h) and an order-preserving tuple-set dedup.
Element order fixes the indices of permutation-file groups and so every
witness reported on them, so the layer must reproduce it exactly.  The
stabilizer-chain order (chain_order) must equal the closure's length.
"""

import warnings
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gyrolab import (
    OrderCapExceeded,
    build_gyro,
    catalog_group,
    group_from_permutations,
    gyration,
    gyration_table,
    inner_mapping_group,
    multiplication_group,
    subgroup_generated,
)
from gyrolab.mappings import inner_generators
from gyrolab import perms

LADDER = ["dihedral:16", "wreath33", "heisenberg:5"]
CAP = 1_000_000


def _ref_mulclose(generators, degree, cap):
    ident = tuple(range(degree))
    index = {ident: 0}
    elements = [ident]
    frontier = [ident]
    while frontier:
        new = []
        for h in frontier:
            compose_h = itemgetter(*h)                  # g -> g o h, as a tuple
            for g in generators:
                p = compose_h(g)
                if p not in index:
                    index[p] = len(elements)
                    elements.append(p)
                    new.append(p)
                    if len(elements) > cap:
                        raise OrderCapExceeded(cap, len(elements))
        frontier = new
    return elements, index


def _ref_dedup(perms_, labels):
    out_p, out_l, seen = [], [], set()
    for p, lab in zip(perms_, labels):
        t = tuple(int(v) for v in p)
        if t not in seen:
            seen.add(t)
            out_p.append(t)
            out_l.append(lab)
    return out_p, out_l


def _ref_mlt_generators(L):
    n = L.order
    perms_ = [L.table[x] for x in range(n)] + [L.table[:, x] for x in range(n)]
    labels = [f"L[{x}]" for x in range(n)] + [f"R[{x}]" for x in range(n)]
    return _ref_dedup(perms_, labels)


def _ref_inner_generators(L):
    T, rdiv, ldiv = L.table, L.right_division, L.left_division
    n = L.order
    perms_, labels = [], []
    for x in range(n):
        for y in range(n):
            perms_.append(rdiv[:, T[x, y]][T[T[:, x], y]])      # ((t*x)*y)/(x*y)
            labels.append(f"R({x},{y})")
    for x in range(n):
        for y in range(n):
            perms_.append(ldiv[T[y, x]][T[y, T[x]]])            # (y*x)\(y*(x*t))
            labels.append(f"L({x},{y})")
    for x in range(n):
        perms_.append(ldiv[x][T[:, x]])                         # x\(t*x)
        labels.append(f"T({x})")
    return _ref_dedup(perms_, labels)


def _ref_group_table(degree, generators):
    gens = []
    for g in generators:
        t = tuple(int(v) for v in g)
        if t not in gens:
            gens.append(t)
    elements, index = _ref_mulclose(gens, degree, CAP)
    return np.array([[index[tuple(map(p.__getitem__, q))] for q in elements]
                     for p in elements])


def _as_tuples(rows):
    return [tuple(r) for r in np.asarray(rows).tolist()]


@pytest.fixture(scope="module", params=LADDER)
def ladder_loop(request):
    return build_gyro(catalog_group(request.param)).loop


def test_mlt_matches_tuple_reference(ladder_loop):
    M = multiplication_group(ladder_loop)
    gens, labels = _ref_mlt_generators(ladder_loop)
    assert _as_tuples(M.generators) == gens
    assert M.labels == tuple(labels)
    elements, _ = _ref_mulclose(gens, ladder_loop.order, CAP)
    assert _as_tuples(perms._mulclose(M.generators, M.degree, CAP).rows) == elements


def test_inn_matches_tuple_reference(ladder_loop):
    inn = inner_mapping_group(ladder_loop)
    gens, labels = _ref_inner_generators(ladder_loop)
    assert _as_tuples(inn.generators) == gens
    assert inn.labels == tuple(labels)
    assert inner_generators(ladder_loop)[1] == tuple(labels)
    elements, _ = _ref_mulclose(gens, ladder_loop.order, CAP)
    assert _as_tuples(perms._mulclose(inn.generators, inn.degree, CAP).rows) == elements


def test_mlt_order_is_loop_order_times_inn_order(ladder_loop):
    mlt = multiplication_group(ladder_loop).order()
    assert mlt == ladder_loop.order * inner_mapping_group(ladder_loop).order()


def test_closure_order_does_not_depend_on_chunk_size(monkeypatch, d16_loop):
    M = multiplication_group(d16_loop)
    expected = _as_tuples(perms._mulclose(M.generators, M.degree, CAP).rows)
    monkeypatch.setattr(perms, "CHUNK_CELLS", 5)
    assert _as_tuples(perms._mulclose(M.generators, M.degree, CAP).rows) == expected


def test_closure_cap_message_names_cap_plus_one(d16_loop):
    with pytest.raises(OrderCapExceeded, match="passed 11 elements, cap is 10"):
        perms._mulclose(multiplication_group(d16_loop).generators, 16, 10)
    rot, refl = [1, 2, 3, 4, 5, 6, 7, 0], [0, 7, 6, 5, 4, 3, 2, 1]
    with pytest.raises(OrderCapExceeded, match="passed 11 elements, cap is 10"):
        group_from_permutations(8, [rot, refl], cap=10)


def _relabelled_regular(spec, seed=0):
    """Left-regular generators of a catalog group, points renamed at random;
    the generating set is greedy in index order."""
    G = catalog_group(spec)
    gens, span = [], frozenset({0})
    for g in range(1, G.order):
        if len(span) == G.order:
            break
        if g not in span:
            gens.append(g)
            span = subgroup_generated(G, gens)
    point = np.random.default_rng(seed).permutation(G.order)
    inv = np.argsort(point)
    return G.order, [point[G.table[g]][inv].tolist() for g in gens]


@pytest.mark.parametrize("spec", ["wreath33", "product:wreath33,cyclic:3"])
def test_group_from_permutations_matches_tuple_reference(spec):
    degree, gens = _relabelled_regular(spec)
    G = group_from_permutations(degree, gens + gens[:1])    # a repeated generator too
    assert np.array_equal(G.table, _ref_group_table(degree, gens))


@pytest.mark.parametrize("spec", ["wreath33", "product:dihedral:16,cyclic:5"])
def test_gyration_table_matches_tuple_reference(spec):
    L = build_gyro(catalog_group(spec)).loop
    n = L.order
    raw = [gyration(L, y, z) for y in range(n) for z in range(n)]
    distinct, _ = _ref_dedup(raw, [""] * len(raw))
    gid = {p: i for i, p in enumerate(distinct)}
    gt = gyration_table(L)
    assert _as_tuples(gt.perms) == distinct
    assert gt.ids.tolist() == [[gid[tuple(int(v) for v in raw[y * n + z])]
                                for z in range(n)] for y in range(n)]


@st.composite
def _generator_sets(draw):
    """1-3 random permutations of degree <= 8, or a sparse set of transpositions."""
    degree = draw(st.integers(1, 8))
    if degree > 1 and draw(st.booleans()):
        pairs = draw(st.lists(st.tuples(st.integers(0, degree - 1), st.integers(0, degree - 1))
                              .filter(lambda p: p[0] != p[1]), min_size=1, max_size=4))
        gens = []
        for a, b in pairs:
            g = list(range(degree))
            g[a], g[b] = b, a
            gens.append(g)
    else:
        gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    return degree, np.array(gens, dtype=np.int32)


@given(_generator_sets())
def test_chain_order_matches_closure(case):
    degree, gens = case
    assert perms.chain_order(gens, degree) == len(perms._mulclose(gens, degree, CAP))


@pytest.mark.parametrize("spec", LADDER + ["product:dihedral:16,cyclic:5", "dihedral:32"])
def test_mlt_and_inn_orders_match_closure(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")          # dihedral:32 has class 4
        L = build_gyro(catalog_group(spec)).loop
    for group in (multiplication_group(L), inner_mapping_group(L)):
        assert group.order() == len(perms._mulclose(group.generators, group.degree, CAP))


def test_mlt_order_at_729():
    L = build_gyro(catalog_group("unitriangular4:3")).loop
    assert multiplication_group(L).order() == 531_441
