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
from hypothesis import assume, given
from hypothesis import strategies as st

from gyrolab import (
    InvariantViolated,
    OrderCapExceeded,
    build_gyro,
    catalog_group,
    group_from_permutations,
    gyration,
    gyration_table,
    inner_mapping_group,
    multiplication_group,
)
from gyrolab.loops import loop_from_table
from gyrolab.mappings import inner_generators
from gyrolab import mappings, perms

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
            if degree == 1:                             # itemgetter(i) gives no tuple
                compose_h = lambda g: (g[0],)           # noqa: E731
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


@pytest.mark.parametrize("n,seed,switches", [(6, 0, None), (12, 1, None), (32, 2, None),
                                             (64, 3, None), (64, 0, 1)])
def test_inner_generators_match_tuple_reference_on_switched_loops(n, seed, switches,
                                                                 switched_table):
    L = loop_from_table(switched_table(n, seed, switches))
    gens, labels = inner_generators(L)
    ref_gens, ref_labels = _ref_inner_generators(L)
    assert gens.dtype == L.table.dtype
    assert _as_tuples(gens) == ref_gens
    assert labels == tuple(ref_labels)


@st.composite
def _slab_sequences(draw):
    """Slabs of rows drawn from a small pool, so that rows repeat within a
    slab and across slabs."""
    degree = draw(st.integers(1, 4))
    pool = draw(st.lists(st.lists(st.integers(0, 3), min_size=degree, max_size=degree),
                         min_size=1, max_size=6))
    slabs = draw(st.lists(st.lists(st.integers(0, len(pool) - 1), max_size=12),
                          min_size=1, max_size=4))
    return degree, [np.array([pool[i] for i in s], dtype=np.uint16).reshape(-1, degree)
                    for s in slabs]


@given(_slab_sequences())
def test_row_index_ids_are_dense_in_first_occurrence_order(case):
    # every row gets the id of its first occurrence over all slabs, so the
    # ids new in a slab first occur as start, start + 1, ...: what
    # mappings._new_labels reads off the running maximum of the ids
    degree, slabs = case
    index = perms.RowIndex(degree, np.uint16)
    seen = {}
    for slab in slabs:
        start = len(index)
        ids = index.add(slab).tolist()
        assert ids == [seen.setdefault(row, len(seen)) for row in _as_tuples(slab)]
        new = [i for k, i in enumerate(ids) if i >= start and i not in ids[:k]]
        assert new == list(range(start, len(index)))
        assert _as_tuples(index.rows) == list(seen)


def _ref_new_labels(ids, start, label):
    """The sort-based first occurrences that mappings._new_labels replaced."""
    found, first = np.unique(ids, return_index=True)
    return [label(i) for i in first[found >= start].tolist()]


@pytest.mark.parametrize("spec", LADDER + ["unitriangular4:3"])
def test_generator_labels_match_the_sort_based_first_occurrences(spec, monkeypatch):
    L = build_gyro(catalog_group(spec)).loop
    labels = (multiplication_group(L).labels, inner_generators(L)[1])
    monkeypatch.setattr(mappings, "_new_labels", _ref_new_labels)
    assert (multiplication_group(L).labels, inner_generators(L)[1]) == labels


def test_mlt_order_is_loop_order_times_inn_order(ladder_loop):
    mlt = multiplication_group(ladder_loop).order()
    assert mlt == ladder_loop.order * inner_mapping_group(ladder_loop).order()


def test_closure_order_does_not_depend_on_chunk_size(monkeypatch, d16_loop):
    M = multiplication_group(d16_loop)
    expected = _as_tuples(perms._mulclose(M.generators, M.degree, CAP).rows)
    monkeypatch.setattr(perms, "CHUNK_CELLS", 5)
    assert _as_tuples(perms._mulclose(M.generators, M.degree, CAP).rows) == expected


def test_closure_cap_message_names_cap_plus_one(d16_loop, monkeypatch):
    with pytest.raises(OrderCapExceeded, match="passed 11 elements, cap is 10"):
        perms._mulclose(multiplication_group(d16_loop).generators, 16, 10)
    rot, refl = [1, 2, 3, 4, 5, 6, 7, 0], [0, 7, 6, 5, 4, 3, 2, 1]
    monkeypatch.setenv("GYROLAB_ORDER_CAP", "10")
    with pytest.raises(OrderCapExceeded, match="passed 11 elements, cap is 10"):
        group_from_permutations(8, [rot, refl])


def _transpositions(degree, pairs):
    gens = []
    for a, b in pairs:
        g = list(range(degree))
        g[a], g[b] = b, a
        gens.append(g)
    return degree, gens


# Actions that are not regular, where the base has more than one point or
# starts late: D8 and C3 wr C3 on their natural points, S5, six far-apart
# transpositions at degree 5000 (one mixed-radix key of the base images
# would be 5000^6 > 2^63), and transpositions that fix every point below 200.
PERMUTATION_CASES = {
    "dihedral-8-on-8-points": (8, [[1, 2, 3, 4, 5, 6, 7, 0], [0, 7, 6, 5, 4, 3, 2, 1]]),
    "symmetric-5": (5, [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]]),
    "wreath-c3-c3-on-9-points": (9, [[1, 2, 0, 3, 4, 5, 6, 7, 8],
                                     [3, 4, 5, 6, 7, 8, 0, 1, 2]]),
    "far-transpositions-5000": _transpositions(5000, [(i, i + 2500) for i in range(6)]),
    "high-points-only": _transpositions(210, [(200, 201), (202, 203), (201, 205), (207, 209)]),
}


@pytest.mark.parametrize("spec", ["wreath33", "product:wreath33,cyclic:3",
                                  *PERMUTATION_CASES])
def test_group_from_permutations_matches_tuple_reference(spec, relabelled_regular):
    degree, gens = PERMUTATION_CASES.get(spec) or relabelled_regular(spec)
    G = group_from_permutations(degree, gens + gens[:1])    # a repeated generator too
    assert np.array_equal(G.table, _ref_group_table(degree, gens))


def test_base_table_does_not_depend_on_chunk_size(monkeypatch):
    degree, gens = PERMUTATION_CASES["wreath-c3-c3-on-9-points"]
    expected = group_from_permutations(degree, gens).table
    monkeypatch.setattr(perms, "CHUNK_CELLS", 5)
    assert np.array_equal(group_from_permutations(degree, gens).table, expected)


def test_base_table_refuses_elements_that_agree_on_every_moved_point():
    gens = np.array([[1, 0, 2, 3]], dtype=np.int32)
    E = np.array([[0, 1, 2, 3], [1, 0, 2, 3], [1, 0, 3, 2]], dtype=np.int32)
    with pytest.raises(InvariantViolated, match="agree on every point"):
        perms.base_table(gens, E)


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


@given(_generator_sets())
def test_group_from_permutations_matches_tuple_reference_on_random_sets(case):
    degree, gens = case
    assume(perms.chain_order(gens, degree) <= 720)      # the reference is quadratic
    G = group_from_permutations(degree, gens.tolist())
    assert np.array_equal(G.table, _ref_group_table(degree, gens))


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
