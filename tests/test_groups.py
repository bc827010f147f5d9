import json
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gyrolab import (
    build_gyro,
    NoIdentity,
    NotAssociative,
    NotLatinSquare,
    OrderCapExceeded,
    catalog_group,
    derived_subgroup,
    direct_product,
    group_center,
    group_exponent,
    group_from_permutations,
    group_from_table,
    is_subgroup,
    is_two_engel,
    lower_central_series,
    nilpotency_class,
    quotient_group,
    subgroup_as_group,
    subgroup_generated,
    subset_exponent,
)
from gyrolab import groups
from gyrolab.cli import main
from gyrolab.groups import (
    _find_identity,
    _relabel,
    associativity_violation,
    elem_dtype,
    normality_violation,
)
from gyrolab.loops import loop_from_table
from gyrolab.search import evaluate_source

KLEIN = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])

# Smallest loop that is not a group: order 5, identity 0, rows/columns all
# permutations but (1*1)*2 != 1*(1*2).
NONASSOC5 = np.array([
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
])


def test_trivial_group():
    G = group_from_table(np.array([[0]]))
    assert G.order == 1
    assert nilpotency_class(G) == 0


def test_c2_from_table():
    G = group_from_table(np.array([[0, 1], [1, 0]]))
    assert G.order == 2
    assert G.inv(1) == 1
    assert G.mul(1, 1) == 0


def test_klein_four_is_elementary_abelian():
    G = group_from_table(KLEIN)
    assert G.is_abelian
    assert group_exponent(G) == 2
    assert nilpotency_class(G) == 1


def test_non_square_rejected():
    with pytest.raises(ValueError):
        group_from_table(np.array([[0, 1, 2], [1, 2, 0]]))


def test_out_of_range_entry_rejected():
    bad = np.array([[0, 1], [1, 7]])
    with pytest.raises((ValueError, NotLatinSquare)):
        group_from_table(bad)


def test_no_identity_rejected():
    # subtraction mod 3: 0 is a right identity but there is no left identity
    sub = np.subtract.outer(np.arange(3), np.arange(3)) % 3
    with pytest.raises(NoIdentity):
        group_from_table(sub)


def test_latin_violation_rejected():
    bad = KLEIN.copy()
    bad[2, 3] = bad[2, 2]  # row 2 repeats a value
    with pytest.raises(NotLatinSquare) as exc:
        group_from_table(bad)
    assert exc.value.index in (2, 3)


@pytest.mark.parametrize("build", [group_from_table, loop_from_table])
@pytest.mark.parametrize("table", [
    [[0, 1.5], [1.5, 0]],                              # would truncate to C2
    [[True, False], [False, True]],                    # would move the identity from 1
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=object),
    [[0, None], [None, 0]],
])
def test_constructors_refuse_non_integer_tables(build, table):
    with pytest.raises(ValueError, match="must be integers"):
        build(table)


@pytest.mark.parametrize("build", [group_from_table, loop_from_table])
def test_constructors_share_their_input_errors(build):
    with pytest.raises(ValueError, match="expected 2 names, got 1"):
        build([[0, 1], [1, 0]], names=["e"])
    with pytest.raises(ValueError, match=r"names\[3\] = 'a' repeats an earlier name"):
        build(KLEIN, names=["e", "a", "b", "a"])
    with pytest.raises(NotLatinSquare) as exc:
        build([[0, 1], [1, 7]])
    assert (exc.value.axis, exc.value.index, exc.value.cell, exc.value.value) == ("row", 1, (1, 1), 7)
    with pytest.raises(NoIdentity):
        build(np.zeros((0, 0), dtype=np.int64))


_DEFECTS = ("shape", "negative", "too-large", "float", "bool", "complex", "object",
            "names", "repeated-names", "no-identity", "empty")


def _malformed(kind, T, rng):
    """(table, names, error type) for a table T of order n >= 2 with one defect."""
    n = len(T)
    cell = (rng.randrange(n), rng.randrange(n))
    bad = T.copy()
    if kind == "shape":
        return rng.choice([T[:, :-1], T[:-1], T.ravel(), T[None], [list(T[0]), [0]]]), None, ValueError
    if kind in ("negative", "too-large"):
        bad[cell] = -rng.randint(1, 5) if kind == "negative" else n + rng.randint(0, 5)
        return bad, None, NotLatinSquare
    if kind in ("float", "bool", "complex", "object"):
        return T.astype(kind), None, ValueError
    if kind == "names":
        return T, [f"g{k}" for k in range(n + rng.choice([-1, 1]))], ValueError
    if kind == "repeated-names":
        names = [f"g{k}" for k in range(n)]
        j = rng.randrange(1, n)
        names[j] = names[rng.randrange(j)]
        return T, names, ValueError
    if kind == "no-identity":
        bad[:, :] = rng.randrange(n)
        return bad, None, NoIdentity
    return np.zeros((0, 0), dtype=rng.choice([np.int64, np.float64])), None, NoIdentity


@given(spec=st.sampled_from(["cyclic:2", "cyclic:5", "dihedral:8", "dihedral:16"]),
       twisted=st.booleans(), kind=st.sampled_from(_DEFECTS),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_malformed_tables_raise_the_same_typed_error_from_both_constructors(spec, twisted, kind,
                                                                            seed):
    G = catalog_group(spec)
    T = (build_gyro(G).loop.table if twisted else G.table).astype(np.int64)
    table, names, expected = _malformed(kind, T, random.Random(seed))
    raised = []
    for build in (group_from_table, loop_from_table):
        with pytest.raises(expected) as exc:
            build(table, names=names)
        assert not isinstance(exc.value, (IndexError, TypeError))
        raised.append((type(exc.value), str(exc.value)))
    assert raised[0] == raised[1]


def test_nonassociative_latin_square_rejected():
    with pytest.raises(NotAssociative) as exc:
        group_from_table(NONASSOC5)
    assert len(exc.value.triple) == 3


def test_identity_relocation():
    # relabel the Klein table so the identity sits at index 2
    p = np.array([2, 1, 0, 3])
    moved = p[KLEIN[np.ix_(np.argsort(p), np.argsort(p))]]
    G = group_from_table(moved, names=["a", "b", "E", "c"])
    assert G.relabeled_from == 2
    assert G.names[0] == "E"
    assert G.mul(0, 1) == 1


def test_permutation_closure_dihedral():
    rot = [1, 2, 3, 4, 5, 6, 7, 0]
    refl = [0, 7, 6, 5, 4, 3, 2, 1]
    G = group_from_permutations(8, [rot, refl])
    assert G.order == 16
    assert nilpotency_class(G) == 3


def test_permutation_closure_cap(monkeypatch):
    rot = [1, 2, 3, 4, 5, 6, 7, 0]
    refl = [0, 7, 6, 5, 4, 3, 2, 1]
    monkeypatch.setenv("GYROLAB_ORDER_CAP", "10")
    with pytest.raises(OrderCapExceeded):
        group_from_permutations(8, [rot, refl])


def test_symmetric3_not_nilpotent():
    G = group_from_permutations(3, [[1, 2, 0], [1, 0, 2]])
    assert G.order == 6
    assert nilpotency_class(G) is None


def test_commutator_convention(d16):
    # [x, y] = x y x^-1 y^-1; for the dihedral generators [r, s] = r^2
    r, s = d16.index_of("r"), d16.index_of("s")
    assert d16.names[d16.commutator_table()[r, s]] == "r2"


def test_center_and_derived_d16(d16):
    assert sorted(group_center(d16))  == [0, 4]          # {e, r4}
    assert sorted(derived_subgroup(d16)) == [0, 2, 4, 6]  # <r2>


def test_lower_central_series_d16(d16):
    sizes = [len(term) for term in lower_central_series(d16)]
    assert sizes == [16, 4, 2, 1]
    assert nilpotency_class(d16) == 3


def test_subgroup_machinery(d16):
    rot = subgroup_generated(d16, [d16.index_of("r")])
    assert sorted(rot) == list(range(8))
    assert is_subgroup(d16, rot)
    assert not is_subgroup(d16, {0, 1, 8})
    H, members = subgroup_as_group(d16, rot)
    assert H.order == 8 and members == list(range(8))
    assert H.is_abelian


def test_normality_violation_d16(d16):
    # <s> = {e, s} is not normal: r s r^-1 lands outside
    assert normality_violation(d16, [0, 8]) == (1, 8)
    assert normality_violation(d16, range(8)) is None  # index-2 subgroups are normal


def test_quotient_group_d16(d16):
    Q, proj = quotient_group(d16, {0, 4})
    assert Q.order == 8
    assert nilpotency_class(Q) == 2
    # projection is a homomorphism
    for a in range(16):
        for b in range(16):
            assert proj[d16.mul(a, b)] == Q.mul(int(proj[a]), int(proj[b]))


def test_direct_product_orders():
    A = catalog_group("cyclic:3")
    B = catalog_group("dihedral:8")
    P = direct_product(A, B)
    assert P.order == 24
    assert len(group_center(P)) == 3 * len(group_center(B))


def test_exponents(d16):
    assert group_exponent(catalog_group("cyclic:12")) == 12
    assert group_exponent(d16) == 8
    assert subset_exponent(d16, derived_subgroup(d16)) == 4


def test_two_engel():
    ok8, _ = is_two_engel(catalog_group("dihedral:8"))
    assert ok8                      # class 2 implies 2-Engel here
    ok16, wit = is_two_engel(catalog_group("dihedral:16"))
    assert not ok16 and wit is not None


def test_element_order_and_powers(d16):
    r = d16.index_of("r")
    assert d16.element_order(r) == 8
    p3 = d16.power_array(3)
    assert d16.names[p3[r]] == "r3"
    assert p3[0] == 0


# ---------------------------------------------------------------------------
# Light's associativity test in group_from_table against the full scan

def _renamed(table, perm):
    """The same operation with element i renamed perm[i]."""
    inv = np.argsort(perm)
    return perm[table[np.ix_(inv, inv)]]


def _expected_witness(table):
    """associativity_violation on the table as group_from_table sees it,
    identity moved to index 0."""
    ar = np.arange(len(table))
    e = next(i for i in ar if (table[i] == ar).all() and (table[:, i] == ar).all())
    if e:
        table, _ = _relabel(table, [str(i) for i in ar], e)
    return associativity_violation(table)


@pytest.mark.parametrize("spec", ["wreath33", "product:wreath33,cyclic:3", "heisenberg:5"])
@pytest.mark.parametrize("seed", [0, 1])
def test_relabelled_group_tables_are_accepted(spec, seed):
    G = catalog_group(spec)
    perm = np.random.default_rng(seed).permutation(G.order)
    H = group_from_table(_renamed(G.table, perm))
    assert H.order == G.order
    assert H.relabeled_from == (int(perm[0]) or None)


@pytest.mark.parametrize("spec", ["wreath33", "dihedral:32"])
@pytest.mark.parametrize("identity_at", [0, 5])
def test_twisted_table_rejected_with_full_scan_witness(spec, identity_at):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")          # dihedral:32 has class 4
        twisted = build_gyro(catalog_group(spec)).loop.table.astype(np.int64)
    perm = np.arange(len(twisted))
    perm[[0, identity_at]] = perm[[identity_at, 0]]
    table = _renamed(twisted, perm)
    expected = _expected_witness(table)
    assert expected is not None
    with pytest.raises(NotAssociative) as exc:
        group_from_table(table)
    assert exc.value.triple == expected


def _random_latin_with_identity(n, rng):
    """Latin square with identity 0, filled cell by cell in random candidate
    order with backtracking."""
    T = np.zeros((n, n), dtype=np.int64)
    T[0], T[:, 0] = np.arange(n), np.arange(n)
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        candidates = sorted(set(range(n)) - set(T[i, :j].tolist()) - set(T[:i, j].tolist()))
        rng.shuffle(candidates)
        for v in candidates:
            T[i, j] = v
            if fill(k + 1):
                return True
        return False

    assert fill(0)
    return T


@given(n=st.integers(min_value=1, max_value=7), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_light_test_agrees_with_full_scan(n, seed):
    rng = random.Random(seed)
    perm = np.array(rng.sample(range(n), n))
    table = _renamed(_random_latin_with_identity(n, rng), perm)
    expected = _expected_witness(table)
    try:
        G = group_from_table(table)
    except NotAssociative as exc:
        assert exc.triple == expected
    else:
        assert expected is None
        assert G.order == n


def test_lower_central_series_is_computed_once_per_group(tmp_path, monkeypatch, capsys):
    # a class-3 search source asks for the class in evaluate_source and
    # build_gyro, and analyze in build_gyro and the
    # document; a group file is parsed afresh for each call
    computed = []
    series = groups._lower_central_series
    monkeypatch.setattr(groups, "_lower_central_series",
                        lambda G: computed.append(G) or series(G))
    G = catalog_group("wreath33")
    path = tmp_path / "w81.json"
    path.write_text(json.dumps({"order": G.order, "table": G.table.tolist()}))
    rec = evaluate_source(f"file:{path}")
    assert (rec.status, rec.group_class, len(computed)) == ("miss", 3, 1)
    assert main(["analyze", "--group", f"file:{path}"]) == 0
    assert len(computed) == 2 and computed[0] is not computed[1]
    assert '"group_class": 3' in capsys.readouterr().out


def test_find_identity_matches_the_per_candidate_scan():
    def ref(T):
        ar = np.arange(len(T))
        return next((e for e in range(len(T))
                     if np.array_equal(T[e], ar) and np.array_equal(T[:, e], ar)), None)

    rng = np.random.default_rng(0)
    for spec in ("cyclic:1", "dihedral:16", "wreath33"):
        T = catalog_group(spec).table
        for _ in range(5):
            p = rng.permutation(len(T))                 # identity moves to p[0]
            moved = p[T[np.ix_(np.argsort(p), np.argsort(p))]]
            assert _find_identity(moved) == ref(moved) == p[0]
    broken = KLEIN.copy()
    broken[0, 1] = 2                                     # row 0 is no longer e's
    assert _find_identity(broken) == ref(broken) is None
    assert _find_identity(np.array([[0, 1], [1, 1]])) == 0   # row and column suffice


def test_subgroup_as_group_matches_the_dict_reindex():
    G = catalog_group("wreath33")
    for S in (group_center(G), derived_subgroup(G), subgroup_generated(G, [5, 30])):
        H, members = subgroup_as_group(G, S)
        local = {g: i for i, g in enumerate(members)}
        ref = [[local[int(v)] for v in row] for row in G.table[np.ix_(members, members)]]
        assert members == sorted(S) and H.table.tolist() == ref


# ---------------------------------------------------------------------------
# the take-based n^2 gathers against their fancy-index references

_LADDER = ["dihedral:16", "wreath33", "heisenberg:5", "unitriangular4:3"]


def _moved(G, where, seed=0):
    """G's table renamed at random with the identity at 0, at n - 1 or in
    the middle, as int64 cells the way a group file arrives."""
    n = G.order
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    at = {"first": 0, "last": n - 1, "middle": n // 2}[where]
    j = int(np.flatnonzero(perm == at)[0])
    perm[[0, j]] = perm[[j, 0]]                        # the identity 0 goes to `at`
    return _renamed(G.table.astype(np.int64), perm), at


@pytest.mark.parametrize("spec", _LADDER + ["cyclic:1", "cyclic:2"])
@pytest.mark.parametrize("where", ["first", "last", "middle"])
def test_relabel_equals_the_ix_reference(ref_relabel, spec, where):
    G = catalog_group(spec)
    table, e = _moved(G, where)
    table = table.astype(elem_dtype(G.order))         # as _table_front_end passes it
    names = [f"g{i}" for i in range(G.order)]
    got, want = _relabel(table, names, e), ref_relabel(table, names, e)
    assert got[0].dtype == want[0].dtype == elem_dtype(G.order)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    assert np.array_equal(got[0][0], np.arange(G.order))


@pytest.mark.parametrize("spec", _LADDER + ["cyclic:1", "quaternion:8"])
@pytest.mark.parametrize("where", [None, "first", "last", "middle"])
def test_commutator_table_equals_the_fancy_index_reference(ref_commutator_table, spec, where):
    G = catalog_group(spec)
    if where is not None:
        G = group_from_table(_moved(G, where, seed=1)[0])
    got = G.commutator_table()
    want = ref_commutator_table(G)
    assert got.dtype == want.dtype == G.table.dtype
    assert np.array_equal(got, want)
