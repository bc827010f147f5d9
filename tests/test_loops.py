import numpy as np
import pytest

from gyrolab import (
    NotASubloop,
    NotRightLoop,
    NotWellDefined,
    OrderCapExceeded,
    build_gyro,
    catalog_group,
    divide,
    is_normal_subloop,
    is_subloop,
    loop_from_group,
    loop_from_table,
    quotient_loop,
    subloop_generated,
)
from gyrolab.loops import loop_direct_product, normal_subloop_violation


def test_loop_from_group_matches_table(d16):
    L = loop_from_group(d16)
    assert np.array_equal(L.table, d16.table)
    assert L.is_loop


def test_divisions_roundtrip(d16_loop):
    L = d16_loop
    for a in range(L.order):
        for b in range(L.order):
            x = divide(L, "right", a, b)       # x * a == b
            assert L.table[x, a] == b
            y = divide(L, "left", a, b)        # a * y == b
            assert L.table[a, y] == b


def test_strict_rejects_broken_column(d16_loop):
    T = d16_loop.table.copy()
    T[3, 5] = T[4, 5]                          # column 5 repeats a value
    with pytest.raises(NotRightLoop) as exc:
        loop_from_table(T)
    assert exc.value.column == 5


def _ref_latin_flags(T):
    """(first column that is not a permutation or None, rows all permutations)
    by sorting, as loop_from_table decided them before its division scatters."""
    ar = np.arange(len(T))
    bad_cols = np.flatnonzero((np.sort(T, axis=0) != ar[:, None]).any(axis=0))
    return (int(bad_cols[0]) if len(bad_cols) else None,
            bool((np.sort(T, axis=1) == ar).all()))


def test_latin_flags_from_the_division_scatters_match_the_sorts(switched_table):
    rng = np.random.default_rng(5)
    seen = set()
    for n in (8, 16, 24):
        base = switched_table(n, 2)
        for _ in range(40):
            T = base.copy()
            r, c, r2, c2 = rng.integers(1, n, 4).tolist()
            kind = int(rng.integers(0, 4))
            if kind == 1:                              # one cell: rows and columns break
                T[r, c] = (T[r, c] + 1) % n
            elif kind == 2:                            # swap in a column: rows break
                T[[r, r2], c] = T[[r2, r], c]
            elif kind == 3:                            # swap in a row: columns break
                T[r, [c, c2]] = T[r, [c2, c]]
            bad_col, rows_ok = _ref_latin_flags(T)
            M = loop_from_table(T, lenient=True)
            assert (M.is_right_loop, M.is_loop) == (bad_col is None, bad_col is None and rows_ok)
            assert (M.right_division is None) == (bad_col is not None)
            assert (M.left_division is None) == (not rows_ok)
            if bad_col is None:
                loop_from_table(T)
            else:
                with pytest.raises(NotRightLoop) as exc:
                    loop_from_table(T)
                assert exc.value.column == bad_col
            seen.add((bad_col is None, rows_ok))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_lenient_flags_broken_row(d16_loop):
    # swapping two entries inside a column keeps every column a permutation
    # (right loop survives) but makes rows 1 and 2 repeat values
    T = d16_loop.table.copy()
    T[1, 3], T[2, 3] = T[2, 3], T[1, 3]
    M = loop_from_table(T, lenient=True)
    assert M.is_right_loop
    assert not M.is_loop
    assert M.left_division is None


def test_identity_relocated():
    G = catalog_group("cyclic:4")
    p = np.array([1, 0, 2, 3])
    inv = np.argsort(p)
    moved = p[G.table[np.ix_(inv, inv)]]
    M = loop_from_table(moved)
    assert M.table[0, 2] == 2 and M.table[2, 0] == 2


def test_subloop_generated_rotations(d16, d16_loop):
    S = subloop_generated(d16_loop, [d16.index_of("r")])
    assert sorted(S) == list(range(8))
    assert is_subloop(d16_loop, S)


def test_subloop_membership(d16_loop):
    assert is_subloop(d16_loop, {0, 8})        # {e, s}: s*s = e in the loop
    assert not is_subloop(d16_loop, {0, 1})    # r*r = r2 escapes


def test_normality(d16_loop):
    assert is_normal_subloop(d16_loop, {0, 4})
    # {e, s} is a subloop but its left and right cosets differ at r
    assert normal_subloop_violation(d16_loop, {0, 8}) == ("left-right-coset", 1)
    assert not is_normal_subloop(d16_loop, {0, 8})


def test_quotient_loop_by_commutant(d16_loop):
    Q, proj = quotient_loop(d16_loop, {0, 4})
    assert Q.order == 8
    assert Q.is_loop
    for a in range(16):
        for b in range(16):
            assert proj[d16_loop.table[a, b]] == Q.table[int(proj[a]), int(proj[b])]


def test_quotient_loop_rejects_bad_subsets(d16_loop):
    with pytest.raises(NotASubloop):
        quotient_loop(d16_loop, {0, 1})
    with pytest.raises((NotASubloop, NotWellDefined)):
        quotient_loop(d16_loop, {0, 8})


def test_loop_direct_product():
    A = build_gyro(catalog_group("dihedral:16")).loop
    B = build_gyro(catalog_group("cyclic:3")).loop
    P = loop_direct_product(A, B)
    assert P.order == 48
    assert P.is_loop
    # product works coordinatewise
    assert P.table[1 * 3 + 1, 2 * 3 + 2] == A.table[1, 2] * 3 + B.table[1, 2]


def test_loop_direct_product_checks_the_order_cap(monkeypatch):
    A = build_gyro(catalog_group("dihedral:16")).loop
    monkeypatch.setenv("GYROLAB_ORDER_CAP", "100")
    with pytest.raises(OrderCapExceeded, match="^order 256 exceeds cap 100$"):
        loop_direct_product(A, A)


# ---------------------------------------------------------------------------
# references: the per-column division tables and the per-block quotient that
# the whole-array versions replaced

def _ref_divisions(T):
    n = len(T)
    ar = np.arange(n)
    rdiv = np.empty((n, n), dtype=np.int32)
    ldiv = np.empty((n, n), dtype=np.int32)
    for a in range(n):
        inv_col = np.empty(n, dtype=np.int32)
        inv_col[T[:, a]] = ar
        rdiv[:, a] = inv_col
        inv_row = np.empty(n, dtype=np.int32)
        inv_row[T[a]] = ar
        ldiv[a] = inv_row
    return rdiv, ldiv


def _ref_quotient(L, S):
    """(quotient table, projection), or NotWellDefined from the first bad
    block in (coset, coset) order and its first bad cell."""
    lst = sorted(S)
    n = L.order
    T = L.table
    coset_rows = T[:, lst]
    reps_of_elem = coset_rows.min(axis=1)
    sets_sorted = np.sort(coset_rows, axis=1)
    for x in range(n):
        r = int(reps_of_elem[x])
        if not np.array_equal(sets_sorted[x], sets_sorted[r]):
            raise NotWellDefined(("coset-overlap", x, r))
    rep_values = np.unique(reps_of_elem)
    label_of_rep = {int(r): i for i, r in enumerate(rep_values)}
    proj = np.array([label_of_rep[int(r)] for r in reps_of_elem], dtype=np.int32)
    q = len(rep_values)
    qtable = np.empty((q, q), dtype=np.int32)
    blocks = [np.flatnonzero(proj == i) for i in range(q)]
    for i in range(q):
        Ai = blocks[i]
        for j in range(q):
            cells = proj[T[np.ix_(Ai, blocks[j])]]
            first = int(cells.flat[0])
            if not (cells == first).all():
                bad = int(np.argmax((cells != first).ravel()))
                a = int(Ai[bad // len(blocks[j])])
                b = int(blocks[j][bad % len(blocks[j])])
                raise NotWellDefined((a, b))
            qtable[i, j] = first
    return qtable, proj


def _quotient_outcome(quotient, L, S):
    try:
        Q, proj = quotient(L, S)
    except NotWellDefined as exc:
        return "raised", exc.witness
    return "ok", getattr(Q, "table", Q).tolist(), proj.tolist()


def _reference_loops(switched_table):
    loops = [build_gyro(catalog_group("dihedral:16")).loop]
    loops += [loop_from_table(switched_table(n, 0, 8)) for n in (8, 12, 16, 24, 32, 48)]
    return loops


def test_division_tables_match_the_per_column_inverse(switched_table):
    for L in _reference_loops(switched_table):
        rdiv, ldiv = _ref_divisions(L.table)
        assert np.array_equal(L.right_division, rdiv)
        assert np.array_equal(L.left_division, ldiv)
    # a right loop whose rows repeat keeps only its right division table
    T = build_gyro(catalog_group("dihedral:16")).loop.table.copy()
    T[1, 3], T[2, 3] = T[2, 3], T[1, 3]
    M = loop_from_table(T, lenient=True)
    assert M.left_division is None
    assert np.array_equal(M.right_division, _ref_divisions(M.table)[0])


def test_quotient_loop_matches_the_block_reference(switched_table):
    kinds = set()
    for L in _reference_loops(switched_table):
        n = L.order
        subsets = {subloop_generated(L, (a, b)) for a in range(n) for b in range(a, n)}
        for S in sorted(subsets - {frozenset(range(n))}, key=sorted):
            got = _quotient_outcome(quotient_loop, L, S)
            assert got == _quotient_outcome(_ref_quotient, L, S), (L, sorted(S))
            if got[0] == "raised":
                kinds.add("coset-overlap" if got[1][0] == "coset-overlap" else "cell")
    assert kinds == {"coset-overlap", "cell"}       # both witness kinds occur
