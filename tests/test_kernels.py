"""The one witness rule, the one scan kernel, the one subset closure and
the one-pass subset and Latin tests.

first_cell, first_violation and generated replaced about fifteen argmax
witness sites, four private x-loops and two Python-set closures;
subgroup_violation, subloop_violation and latin_violation replaced a
yes/no test followed by a Python loop that rescanned the set or the lines
for the witness.  The _ref_* functions below are those earlier bodies, kept
as the references: the breadth-first subgroup and subloop closures, the
set-based subgroup and subloop tests, the per-pair subgroup and subloop
witness loops, the per-line Latin scan and the per-x cocycle loop.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gyrolab import (
    build_gyro,
    catalog_group,
    cocycle_violation,
    factor_set,
    group_center,
    is_subgroup,
    is_subloop,
    make_transversal,
    subgroup_generated,
    subgroup_violation,
    subloop_generated,
    subloop_violation,
)
from gyrolab.errors import NotLatinSquare
from gyrolab.groups import (
    first_cell,
    first_violation,
    generated,
    group_from_table,
    latin_violation,
)
from gyrolab.loops import loop_from_table


def _ref_subgroup_generated(G, seed):
    members = {0}
    for s in seed:
        members.add(int(s))
        members.add(G.inv(int(s)))
    frontier = sorted(members)
    while frontier:
        cur = sorted(members)
        prods = set(np.unique(G.table[np.ix_(frontier, cur)]).tolist())
        prods |= set(np.unique(G.table[np.ix_(cur, frontier)]).tolist())
        new = {int(v) for v in prods if v not in members}
        new |= {G.inv(v) for v in new if G.inv(v) not in members and G.inv(v) not in new}
        members |= new
        frontier = sorted(new)
    return frozenset(members)


def _ref_subloop_generated(L, seed):
    members = {0} | {int(x) for x in seed}
    while True:
        lst = sorted(members)
        new = set()
        for tab in (L.table, L.right_division, L.left_division):
            for v in np.unique(tab[np.ix_(lst, lst)]).tolist():
                if v not in members:
                    new.add(int(v))
        if not new:
            return frozenset(members)
        members |= new


def _ref_is_subgroup(G, S):
    if 0 not in S:
        return False
    lst = sorted(S)
    if not all(int(v) in S for v in np.unique(G.table[np.ix_(lst, lst)])):
        return False
    return all(G.inv(a) in S for a in lst)


def _ref_is_subloop(L, S):
    lst = sorted(S)
    return bool(S) and all(int(v) in S for tab in (L.table, L.right_division, L.left_division)
                           for v in np.unique(tab[np.ix_(lst, lst)]))


def _ref_subgroup_witness(G, S):
    if 0 not in S:
        return ("identity-missing",)
    for a in sorted(S):
        if G.inv(a) not in S:
            return ("inverse", a)
        for b in sorted(S):
            if G.mul(a, b) not in S:
                return ("product", a, b)
    return ("not-a-subgroup",)


def _ref_subloop_witness(L, S):
    lst = sorted(S)
    for a in lst:
        for b in lst:
            if int(L.table[a, b]) not in S:
                return ("product", a, b)
            if int(L.right_division[b, a]) not in S:
                return ("right-division", a, b)
            if int(L.left_division[a, b]) not in S:
                return ("left-division", a, b)
    return ("not-a-subloop",)


def _ref_latin_violation(T):
    """Each row, then each column, tested on its own; the first repeat of a
    line is found with a Python set."""
    for axis, lines in (("row", T), ("column", T.T)):
        for i, line in enumerate(lines):
            seen = set()
            for pos, v in enumerate(line.tolist()):
                if v in seen:
                    return axis, i, ((i, pos) if axis == "row" else (pos, i)), v
                seen.add(v)
    return None


def _ref_cocycle_violation(f):
    mul, Q, v = f.group.table, f.quotient, f.values
    q = Q.order
    for x in range(q):
        lhs = mul[np.broadcast_to(v[x][:, None], (q, q)), v[Q.table[x], :]]
        rhs = mul[v, v[x, Q.table]]
        if not np.array_equal(lhs, rhs):
            flat = int(np.argmax(lhs != rhs))
            return (x, flat // q, flat % q)
    return None


def _seeds(n):
    """Every one- and two-element seed of 0..n-1."""
    return [(a,) for a in range(n)] + [(a, b) for a in range(n) for b in range(a + 1, n)]


# ---------------------------------------------------------------------------
# the witness rule

def test_first_cell_reads_every_rank_in_row_major_order():
    assert first_cell(np.zeros(5, dtype=bool)) is None
    assert first_cell(np.array([False, False, True, True])) == (2,)
    m = np.zeros((4, 5), dtype=bool)
    m[2, 0] = m[1, 3] = True
    assert first_cell(m) == (1, 3)
    c = np.zeros((2, 3, 4), dtype=bool)
    c[1, 2, 0] = c[1, 0, 2] = True
    assert first_cell(c) == (1, 0, 2)
    assert all(type(i) is int for i in first_cell(c))


def test_first_cell_reads_views_in_their_own_order():
    buf = np.zeros((5, 5), dtype=bool)
    buf[1, 4] = buf[3, 0] = True                  # cells [4, 1] and [0, 3] of the view
    assert first_cell(buf.T) == (0, 3)
    assert first_cell(buf[:, ::-1]) == (1, 0)
    assert first_cell(buf[2:]) == (1, 0)


# ---------------------------------------------------------------------------
# the scan kernel

def test_first_violation_stops_at_the_first_failing_s():
    mask = np.zeros((3, 3), dtype=bool)
    calls = []

    def slab(x, fail_x):
        calls.append(x)
        mask[:] = False
        mask[2, 1] = mask[0, 2] = x == fail_x      # (0, 2) is the least cell
        return mask
    assert first_violation(6, lambda x: slab(x, fail_x=3)) == (3, 0, 2)
    assert calls == [0, 1, 2, 3]
    calls.clear()
    assert first_violation(6, lambda x: slab(x, fail_x=-1)) is None
    assert calls == list(range(6))


def test_first_violation_takes_masks_of_any_rank():
    assert first_violation(4, lambda x: np.arange(3) == x) == (0, 0)
    assert first_violation(4, lambda x: np.full((2, 2, 2), x == 3)) == (3, 0, 0, 0)
    assert first_violation(4, lambda x: np.zeros(3, dtype=bool)) is None


# ---------------------------------------------------------------------------
# the subset closure

@pytest.mark.parametrize("spec", ["dihedral:16", "wreath33"])
def test_subgroup_closure_matches_the_breadth_first_reference(spec):
    G = catalog_group(spec)
    spans = set()
    for seed in _seeds(G.order):
        S = subgroup_generated(G, seed)
        assert S == _ref_subgroup_generated(G, seed), seed
        spans.add(S)
    assert subgroup_generated(G, []) == frozenset({0})
    rng = np.random.default_rng(G.order)
    subsets = [frozenset(rng.choice(G.order, k, replace=False).tolist()) | {0}
               for k in (1, 2, 4) for _ in range(20)]
    for S in list(spans) + subsets + [S - {0} for S in spans]:
        assert is_subgroup(G, S) == _ref_is_subgroup(G, S), sorted(S)


def test_subset_routines_refuse_indices_outside_the_table(d16, d16_loop):
    # a negative index would wrap to an element and pass as a member
    for bad in (-1, 16):
        for call in (lambda: is_subgroup(d16, {0, bad}), lambda: subgroup_generated(d16, [bad]),
                     lambda: is_subloop(d16_loop, {0, bad}),
                     lambda: subloop_generated(d16_loop, [bad])):
            with pytest.raises(IndexError):
                call()


def test_subset_routines_refuse_index_arrays_outside_the_table(d16, d16_loop):
    # an index array is range-checked as a list is: np.array([0, -8]) would
    # otherwise be read as {0, 8}, a subgroup of D16
    assert subgroup_violation(d16, [0, 8]) is None
    for bad in (np.array([0, -8]), np.array([0, 16])):
        for call in (lambda: subgroup_violation(d16, bad), lambda: is_subloop(d16_loop, bad),
                     lambda: generated([d16.table], bad, 16)):
            with pytest.raises(IndexError):
                call()


def _loops(switched_table):
    loops = [build_gyro(catalog_group(spec)).loop for spec in ("dihedral:16", "wreath33")]
    return loops + [loop_from_table(switched_table(n, 1)) for n in range(8, 49, 8)]


def test_subloop_closure_matches_the_breadth_first_reference(switched_table):
    proper = 0
    for L in _loops(switched_table):
        spans = set()
        for seed in _seeds(L.order):
            S = subloop_generated(L, seed)
            assert S == _ref_subloop_generated(L, seed), (L, seed)
            spans.add(S)
        proper += len(spans - {frozenset(range(L.order))})
        rng = np.random.default_rng(L.order)
        subsets = list(spans) + [frozenset(rng.choice(L.order, k, replace=False).tolist()) | {0}
                                 for k in (1, 2, 4) for _ in range(20)]
        for S in subsets:
            assert is_subloop(L, S) == _ref_is_subloop(L, S), (L, sorted(S))
        assert not is_subloop(L, frozenset())
    assert proper > 0


# ---------------------------------------------------------------------------
# the cocycle scan through the kernel

@pytest.mark.parametrize("spec", ["dihedral:16", "heisenberg:3", "unitriangular4:2",
                                  "quaternion:16"])
def test_cocycle_violation_matches_the_per_x_reference(spec):
    G = catalog_group(spec)
    fs = factor_set(G, make_transversal(G, group_center(G)))
    assert cocycle_violation(fs) is None
    zl = sorted(fs.center)
    rng = np.random.default_rng(3)
    q = fs.quotient.order
    witnesses = set()
    for _ in range(40):
        vals = fs.values.copy()
        for x, y in rng.integers(0, q, (int(rng.integers(1, 3)), 2)).tolist():
            vals[x, y] = zl[(zl.index(int(vals[x, y])) + 1) % len(zl)]
        bad = dataclasses.replace(fs, values=vals)
        w = cocycle_violation(bad)
        assert w == _ref_cocycle_violation(bad), spec
        witnesses.add(w)
    assert len(witnesses) > 5                     # the mutations reach many cells


# ---------------------------------------------------------------------------
# the one-pass subset and Latin tests

_LADDER = ("dihedral:16", "wreath33", "heisenberg:5")


@st.composite
def _subsets(draw, X, subloop):
    """A random subset of X, or one grown from a closed span by adding and
    dropping a few elements, with or without the identity."""
    elems = st.integers(min_value=0, max_value=X.order - 1)
    S = set(draw(st.sets(elems, max_size=6)))
    if draw(st.booleans()):
        span = (subloop_generated if subloop else subgroup_generated)(X, S)
        S = set(span) | set(draw(st.sets(elems, max_size=2)))
        S -= set(draw(st.sets(elems, max_size=2)))
    if draw(st.booleans()):
        S.add(0)
    return frozenset(S)


@given(spec=st.sampled_from(_LADDER), data=st.data())
def test_subgroup_violation_matches_the_per_pair_reference(spec, data):
    G = catalog_group(spec)
    S = data.draw(_subsets(G, False))
    expected = None if _ref_is_subgroup(G, S) else _ref_subgroup_witness(G, S)
    assert subgroup_violation(G, S) == expected
    assert subgroup_violation(G, sorted(S)) == expected


@given(source=st.sampled_from(_LADDER + (16, 24)), data=st.data())
def test_subloop_violation_matches_the_per_pair_reference(switched_table, source, data):
    # a ladder group's twisted loop, or an intercalate-switched loop of that order
    L = (loop_from_table(switched_table(source, 1)) if isinstance(source, int)
         else build_gyro(catalog_group(source)).loop)
    S = data.draw(_subsets(L, True))
    expected = None if _ref_is_subloop(L, S) else _ref_subloop_witness(L, S)
    assert subloop_violation(L, S) == expected


def test_subset_witnesses_reach_every_tag(d16, d16_loop, switched_table):
    # the cases the random draws may miss, each pinned to the reference
    cases = [
        (frozenset(), ("identity-missing",)),
        (frozenset({1, 2}), ("identity-missing",)),
        (frozenset({0, 1}), ("inverse", 1)),          # r^-1 = r^7: inverse before product
        (frozenset({0, 1, 7}), ("product", 1, 1)),
    ]
    for S, w in cases:
        assert subgroup_violation(d16, S) == _ref_subgroup_witness(d16, S) == w
    L = loop_from_table(switched_table(16, 1))
    cases = [
        (d16_loop, frozenset(), ("not-a-subloop",)),
        (L, frozenset({0, 1}), ("right-division", 1, 0)),
        (L, frozenset({0, 1, 7}), ("left-division", 1, 0)),
        (L, frozenset({0, 1, 7, 10}), ("product", 1, 1)),
    ]
    for X, S, w in cases:
        assert subloop_violation(X, S) == _ref_subloop_witness(X, S) == w


def _plant(T, rng, axis):
    """T with one repeat planted off row and column 0: in a row (a cell
    copied from its row), or in columns only (two cells of a row swapped)."""
    n = len(T)
    bad = T.copy()
    i, j, k = rng.integers(1, n, 3).tolist()
    while k == j:
        k = int(rng.integers(1, n))
    if axis == "row":
        bad[i, j] = bad[i, k]
    else:
        bad[i, j], bad[i, k] = bad[i, k], bad[i, j]
    return bad


@pytest.mark.parametrize("spec", _LADDER)
@pytest.mark.parametrize("axis", ["row", "column"])
def test_latin_violation_matches_the_per_line_reference(spec, axis):
    T = catalog_group(spec).table.astype(np.int64)
    assert latin_violation(T) is None
    rng = np.random.default_rng(len(T))
    for _ in range(20):
        bad = _plant(T, rng, axis)
        w = _ref_latin_violation(bad)
        assert w[0] == axis and latin_violation(bad) == w
        with pytest.raises(NotLatinSquare) as exc:
            group_from_table(bad)
        assert (exc.value.axis, exc.value.index, exc.value.cell, exc.value.value) == w
