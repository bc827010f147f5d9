"""The one witness rule, the one scan kernel and the one subset closure.

first_cell, first_violations and generated/closed_under replaced about
fifteen argmax witness sites, four private x-loops and two Python-set
closures.  The _ref_* functions below are those earlier bodies, kept as the
references: the breadth-first subgroup and subloop closures, the set-based
subgroup and subloop tests and the per-x cocycle loop.
"""

import dataclasses

import numpy as np
import pytest

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
    subloop_generated,
)
from gyrolab.groups import first_cell, first_violation, first_violations
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

def test_first_violations_stops_once_every_mask_has_a_witness():
    early = np.zeros((3, 3), dtype=bool)
    late = np.zeros((3, 3), dtype=bool)
    calls = []

    def slab(x, open_, late_x):
        calls.append((x, open_))
        early[:] = late[:] = False
        early[2, 1] = x >= 1                      # fails first at x = 1
        late[0, 2] = x == late_x
        return (early if open_[0] else None), late
    both, late_only = (True, True), (False, True)
    assert first_violations(6, 2, lambda x, o: slab(x, o, late_x=3)) == [(1, 2, 1), (3, 0, 2)]
    assert calls == [(0, both), (1, both), (2, late_only), (3, late_only)]
    calls.clear()
    assert first_violations(6, 2, lambda x, o: slab(x, o, late_x=-1)) == [(1, 2, 1), None]
    assert calls == [(0, both), (1, both)] + [(x, late_only) for x in range(2, 6)]


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
