"""The row-local cubic scans against the 2-D-gather bodies they replaced.

Each _ref_* function below is the earlier kernel, kept as the reference:
per-element nuclei, the nuclei scan of the definitions, the associator
scan, both commutator expansions, the ninth-power identity, the group-table
associativity scan, the sort-based subloop normality test and the dict
relabel of a nucleus's induced product.  Verdicts and witnesses must be
equal, on passing inputs and on failing ones: twisted tables wrapped as
(non-associative) "groups", a class-4 source, and random loops.  The nuclei
read off the gyration table are pinned against both the nuclei that the
associator scan reduces and the per-element reference.  The two commutator
expansions and the cocycle identity of factor_set, laws of every group,
compute no slab on a table that is_group_table certifies, and on any other
give the references' witnesses.  Every keyed scan is pinned against the
same scan run unkeyed: the ninth-power identity, which reads the cube R^3
of the least elements of the classes of the group key, translations by
Z(G) that pass (a) and (a') on the group table and (r) and (c) on the
commutator table; the associativity scan of the loop-commutator bracket, which reads
the cube R^3 of the loop key, translations by the loop's commuting elements
that pass (a) and (a') on the loop table; the associator scan, which reads
the cube R^3 of a finer key, those of the loop key that also pass the x, y
and z conditions on the commutator table.  The associativity test decides
a table with an identity by Light's test and scans only one that it
refuses, or one with no identity, over every x.  The normal-subloop
test reads no key: the coset congruence of quotient_loop decides a normal
subloop with no product-test slab, and a key forced into the loop's cache
changes no answer.  Planted tables on which a translation fails one
condition pin that it is then refused.
"""

import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gyrolab import (
    SuiteContext,
    build_gyro,
    catalog_group,
    commutant,
    invariant_bundle,
    loop_center,
    loop_nilpotency_class,
    nine_identity,
    nucleus,
    subloop_generated,
)
import gyrolab
from gyrolab import checks, cocycle, groups, loops
from gyrolab.groups import (
    FiniteGroup,
    _group_unchecked,
    associativity_violation,
    first_violation,
    group_center,
    group_translations,
    pair_slabs,
)
from gyrolab.errors import (GyrolabError, InvariantViolated, NotACocycle, NotRightLoop,
                            NotWellDefined)
from gyrolab.gyro import GyroConstruction
from gyrolab.invariants import NUCLEUS_KINDS, commutator_bracket_table
from gyrolab.loops import loop_from_table, normal_subloop_violation, quotient_loop
from gyrolab.perms import RowIndex

SPECS = ["dihedral:16", "wreath33", "heisenberg:5",
         "product:dihedral:16,cyclic:5", "dihedral:32"]


@pytest.fixture(autouse=True)
def _quiet_class_four():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")          # dihedral:32 has class 4
        yield


def _gyro(spec):
    return build_gyro(catalog_group(spec))


def _witness(x, lhs, rhs):
    n = lhs.shape[1]
    flat = int(np.argmax(lhs != rhs))
    return (x, flat // n, flat % n)


# ---------------------------------------------------------------------------
# reference kernels

def _ref_associativity_violation(table):
    n = table.shape[0]
    for a in range(n):
        left = table[table[a], :]
        right = table[a, table]
        if not np.array_equal(left, right):
            return _witness(a, left, right)
    return None


def _ref_nuclei(L):
    """Each element tested against the associativity pattern of each kind."""
    T = L.table

    def member(a, kind):
        if kind == "left":
            row = T[a]
            return np.array_equal(T[row, :], row[T])
        if kind == "middle":
            col, row = T[:, a], T[a]
            return np.array_equal(T[col, :], T[:, row])
        col = T[:, a]
        return np.array_equal(col[T], T[:, col])
    return tuple(frozenset(a for a in range(L.order) if member(a, kind))
                 for kind in NUCLEUS_KINDS)


def _ref_scan_nuclei(L):
    """The nuclei by definition in one pass over x, with no right division:
    x is in the left nucleus when its [y, z] slab of (x y) z != x (y z) has
    no True cell, y in the middle one when its row holds for every x, z in
    the right one when its column does."""
    n = L.order
    slab = pair_slabs(L.table, L.table)
    left = np.zeros(n, dtype=bool)
    middle = np.ones(n, dtype=bool)
    right = np.ones(n, dtype=bool)
    for x in range(n):
        bad = slab(x)
        left[x] = not bad.any()
        middle &= ~bad.any(axis=1)
        right &= ~bad.any(axis=0)
    return tuple(frozenset(int(i) for i in np.flatnonzero(m))
                 for m in (left, middle, right))


def _scan_nuclei(L, ctx=None):
    """The nuclei that ctx.associator_scan reduces; without ctx, L's table
    wrapped as a "group" with L as its loop, for any loop with right
    division."""
    if ctx is None:
        H = _as_group(L.table)
        ctx = SuiteContext(H)
        ctx._cache["gyro"] = GyroConstruction(H, L, None)
    return tuple(ctx.nuc(kind) for kind in NUCLEUS_KINDS)


def _ref_associator_scan(ctx):
    G, L = ctx.G, ctx.loop
    cm, n = ctx.cm, ctx.n
    T, rdiv = L.table, L.right_division
    zmask = groups._mark(n, ctx.zg)
    formula_bad = central_bad = None
    cm_invz_y = cm[G.inverse, :]
    for x in range(n):
        assoc = rdiv[T[T[x], :], T[x, T]]
        if formula_bad is None:
            expected = cm[cm_invz_y, x].T
            if not np.array_equal(assoc, expected):
                formula_bad = _witness(x, assoc, expected)
        if central_bad is None:
            okc = zmask[assoc]
            if not okc.all():
                central_bad = _witness(x, okc, True)
        if formula_bad is not None and central_bad is not None:
            break
    return formula_bad, central_bad, _ref_scan_nuclei(L)


def _ref_expansion_left(G):
    cm, n, T = G.commutator_table(), G.order, G.table
    for x in range(n):
        lhs = cm[T[x], :]
        inner = cm[x, cm]
        rhs = T[T[inner, cm], np.broadcast_to(cm[x][None, :], (n, n))]
        if not np.array_equal(lhs, rhs):
            return _witness(x, lhs, rhs)
    return None


def _ref_expansion_right(G):
    cm, n, T = G.commutator_table(), G.order, G.table
    for x in range(n):
        lhs = cm[x, T]
        t1 = np.broadcast_to(cm[x][:, None], (n, n))
        t2 = cm[:, cm[x]]
        t3 = np.broadcast_to(cm[x][None, :], (n, n))
        rhs = T[T[t1, t2], t3]
        if not np.array_equal(lhs, rhs):
            return _witness(x, lhs, rhs)
    return None


def _ref_nine_identity(G):
    cm, p9, n = G.commutator_table(), G.power_array(9), G.order
    for x in range(n):
        lhs = p9[cm[cm[x], :]]
        rhs = p9[cm[x, cm]]
        if not np.array_equal(lhs, rhs):
            return False, _witness(x, lhs, rhs)
    return True, None


def _ref_induced_violation(T, S):
    lst = sorted(S)
    local = {g: i for i, g in enumerate(lst)}
    sub = T[np.ix_(lst, lst)]
    if not all(int(v) in local for v in np.unique(sub)):
        return ("not-closed", next(int(v) for v in np.unique(sub) if int(v) not in local))
    relabeled = np.array([[local[int(v)] for v in row] for row in sub])
    bad = associativity_violation(relabeled)
    if bad is None:
        return None
    return (lst[bad[0]], lst[bad[1]], lst[bad[2]])


def _ref_normal_subloop_violation(L, N):
    lst = sorted(N)
    n, T = L.order, L.table
    xN = np.sort(T[:, lst], axis=1)
    Nx = np.sort(T[lst, :].T, axis=1)
    eq = (xN == Nx).all(axis=1)
    if not eq.all():
        return ("left-right-coset", int(np.argmax(~eq)))
    yN = T[:, lst]
    for x in range(n):
        lhs = np.sort(T[x, yN], axis=1)
        rhs = np.sort(T[T[x], :][:, lst], axis=1)
        rows_eq = (lhs == rhs).all(axis=1)
        if not rows_eq.all():
            return ("product-left", x, int(np.argmax(~rows_eq)))
    for x in range(n):
        Nx_row = T[lst, x]
        lhs = np.sort(T[Nx_row, :], axis=0).T
        rhs = np.sort(T[lst, :][:, T[x]], axis=0).T
        rows_eq = (lhs == rhs).all(axis=1)
        if not rows_eq.all():
            return ("product-right", x, int(np.argmax(~rows_eq)))
    return None


# ---------------------------------------------------------------------------
# catalog sources and their twisted loops

def _wrapped(gc):
    """The twisted table wrapped as a "group" without the associativity scan."""
    return _group_unchecked(gc.loop.table, gc.source.names)


def _opposite(L):
    """x o y = y x: its left and right nuclei are L's right and left ones,
    so the middle and right nuclei differ where L's left and right do."""
    return loop_from_table(L.table.T)


def _assert_gyration_reading(L, ref, ctx=None):
    """nucleus, loop_center and invariant_bundle, which read the gyration
    table, against the nuclei of the associator scan (of ctx, when given)
    and the per-element reference ref."""
    assert _scan_nuclei(L, ctx) == ref
    for kind, expected in zip(NUCLEUS_KINDS, ref):
        assert nucleus(L, kind) == expected, kind
    full = ref[0] & ref[1] & ref[2]
    assert nucleus(L, "full") == full
    assert loop_center(L) == commutant(L) & full
    b = invariant_bundle(L)
    assert (b.left_nucleus, b.middle_nucleus, b.right_nucleus, b.nucleus) == ref + (full,)


@pytest.mark.parametrize("spec", SPECS + ["unitriangular4:3"])
def test_nuclei_match_per_element_definition(spec):
    # the ladder, class-4 dihedral:32 and D16xC5; gyrations in closed form
    gc = _gyro(spec)
    ref = _ref_nuclei(gc.loop)
    ctx = SuiteContext(gc.source)
    _assert_gyration_reading(gc.loop, ref, ctx)
    for kind, expected in zip(NUCLEUS_KINDS, ref):
        assert ctx.nuc(kind) == expected
    assert ctx.nuc("full") == ref[0] & ref[1] & ref[2]
    assert ctx.zl == loop_center(gc.loop)


@pytest.mark.parametrize("spec", SPECS)
def test_gyration_reading_on_opposite_loops(spec):
    # the opposite loop has no source, so its gyrations come from _map_family
    L = _gyro(spec).loop
    ref = _ref_nuclei(L)
    op = _opposite(L)
    assert _ref_nuclei(op) == (ref[2], ref[1], ref[0])
    _assert_gyration_reading(op, (ref[2], ref[1], ref[0]))


# the classes of the verified key of the loop built on each wrapped source
WRAPPED_CLASSES = {"dihedral:16": 8, "wreath33": 9, "dihedral:32": 16,
                   "product:dihedral:16,cyclic:5": 8, "product:wreath33,cyclic:4": 9}


@pytest.mark.parametrize("spec", list(WRAPPED_CLASSES))
def test_gyration_reading_on_a_non_associative_source(spec, monkeypatch):
    # a non-associative twisted table wrapped as a "group" fails
    # is_group_table, so the loop built on it takes _map_family too, for
    # the gyrations and L(x,y) alike on the classes of its verified key;
    # both families equal those of the kernel over all n^2 pairs
    H = _wrapped(_gyro(spec))
    assert not groups.is_group_table(H)
    L = build_gyro(H).loop
    n, T = L.order, L.table
    kernel, classes = gyrolab.gyro._map_family, []

    def spy(*args):
        classes.append(int(np.count_nonzero(args[-1] == np.arange(n))))
        return kernel(*args)
    monkeypatch.setattr(gyrolab.gyro, "_map_family", spy)
    monkeypatch.setattr(gyrolab.mappings, "_map_family", spy)
    gt = gyrolab.gyration_table(L)
    gyrolab.mappings.inner_generators(L)
    assert classes == [WRAPPED_CLASSES[spec]] * 2
    key, every_pair = loops.central_translations(L)[1], []
    for A, Ainv, P in ((T.T, L.right_division.T, T), (T, L.left_division, T.T)):
        keyed, every = (RowIndex(n, T.dtype) for _ in range(2))
        ids = kernel(A, Ainv, P, every, np.arange(n))
        assert np.array_equal(kernel(A, Ainv, P, keyed, key), ids)
        assert np.array_equal(keyed.rows, every.rows)
        every_pair.append((ids, every.rows))
    assert np.array_equal(gt.ids, every_pair[0][0])
    assert np.array_equal(gt.perms, every_pair[0][1])
    _assert_gyration_reading(L, _ref_nuclei(L))


def test_gyration_reading_needs_right_division():
    # column 2 is no permutation: the scan of the definitions still reads
    # the table, the gyration reading raises the typed error
    L = loop_from_table([[0, 1, 2], [1, 2, 0], [2, 0, 0]], lenient=True)
    assert L.right_division is None
    assert _ref_scan_nuclei(L) == _ref_nuclei(L)
    for kind in NUCLEUS_KINDS + ("full",):
        with pytest.raises(NotRightLoop):
            nucleus(L, kind)
    with pytest.raises(NotRightLoop):
        loop_center(L)


@pytest.mark.parametrize("spec", SPECS)
def test_associator_scan_matches_reference(spec):
    ctx = SuiteContext(_gyro(spec).source)
    assert ctx.associator_scan() == _ref_associator_scan(ctx)


def test_associator_scan_class_four_witnesses():
    ctx = SuiteContext(_gyro("dihedral:32").source)
    assert ctx.associator_scan() == ((16, 1, 16), (16, 1, 16), _ref_nuclei(ctx.loop))


def test_associator_scan_stops_computing_a_mask_once_it_has_a_witness(monkeypatch):
    # wreath33xC4's twisted table as a "group": the formula fails at x = 4,
    # and no associator is non-central, so the central mask runs for the
    # least element of every class.  The table's 36 commuting elements pass
    # (a), (a') and the x, y and z conditions, so there are 9 classes, and
    # of x <= 4 only 0 and 4 are visited
    ctx = SuiteContext(_wrapped(_gyro("product:wreath33,cyclic:4")))
    masks = []
    cell = checks.first_cell

    def counting(mask):
        masks.append(mask)                    # a mask buffer, told apart by identity
        return cell(mask)
    monkeypatch.setattr(checks, "first_cell", counting)
    visits = _visits(monkeypatch)
    formula, central, nuc = ctx.associator_scan()
    assert (formula, central, nuc) == _ref_associator_scan(ctx)
    assert formula[0] == 4 and central is None
    key = _ref_key(ctx.loop, ctx.G).tolist()
    assert len(visits) == len(set(key)) == 9
    formula_mask, central_mask = masks[:2]
    assert formula_mask is not central_mask
    assert sum(m is formula_mask for m in masks) == len(set(key[:formula[0] + 1])) == 2
    assert sum(m is central_mask for m in masks) == len(visits)
    assert len(masks) == 2 + len(visits)


def _expansions(G):
    ctx = SuiteContext(G)
    return (checks._check_commutator_expansion_left(ctx)[0],
            checks._check_commutator_expansion_right(ctx)[0])


@pytest.mark.parametrize("spec", SPECS)
def test_group_scans_match_reference(spec):
    gc = _gyro(spec)
    for G in (gc.source, _wrapped(gc)):
        assert _expansions(G) == (_ref_expansion_left(G), _ref_expansion_right(G))
        assert nine_identity(G) == _ref_nine_identity(G)
        assert associativity_violation(G.table) == _ref_associativity_violation(G.table)
    assert _expansions(gc.source) == (None, None)
    assert associativity_violation(gc.loop.table) == _ref_associativity_violation(gc.loop.table)


@pytest.mark.parametrize("spec, left, right, nine", [
    ("wreath33", (1, 27, 27), (1, 27, 27), None),
    ("dihedral:32", (1, 16, 16), (1, 16, 16), (1, 16, 16)),
    ("product:dihedral:16,cyclic:5", (5, 40, 40), (40, 5, 40), (5, 40, 40)),
    ("product:wreath33,cyclic:4", (4, 108, 108), (4, 108, 108), None),
])
def test_wrapped_twisted_tables_fail_the_group_laws(spec, left, right, nine):
    # the expansions are group laws, so on a non-associative table they fail
    H = _wrapped(_gyro(spec))
    assert _expansions(H) == (left, right)
    assert nine_identity(H) == (nine is None, nine)


@pytest.mark.parametrize("spec", SPECS)
def test_normal_subloop_matches_reference_on_catalog_loops(spec):
    # the twisted loop and its opposite have keys of central translations;
    # normal_subloop_violation reads neither, so it leaves no key on the
    # loop
    L = _gyro(spec).loop
    subloops = {subloop_generated(L, {a}) for a in range(L.order)}
    subloops |= set(_ref_scan_nuclei(L)) | {commutant(L)}
    for M in (L, _opposite(L)):
        _assert_normal_scans_agree(M, sorted(subloops, key=sorted))
        _assert_normal_iff_quotient(M, subloops)
    assert "central" not in L._cache and len(set(_ref_key(L).tolist())) < L.order


@pytest.mark.parametrize("spec", SPECS)
def test_induced_op_matches_reference(spec):
    # subloops (closed; associative or not) and seeded subsets that do not
    # close, in the twisted loop and its opposite
    L = _gyro(spec).loop
    rng = np.random.default_rng(4)
    sets = {subloop_generated(L, {a, b}) for a in range(0, L.order, 3) for b in range(a, L.order, 5)}
    sets |= {frozenset({0, *rng.choice(L.order, size=k).tolist()}) for k in (1, 2, 3, 5, 8)}
    sets |= set(_ref_scan_nuclei(L)) | {commutant(L), frozenset(range(L.order))}
    tags = Counter()
    for M in (L, _opposite(L)):
        for S in sorted(sets, key=sorted):
            w = checks._induced_violation(M.table, S)
            assert w == _ref_induced_violation(M.table, S), sorted(S)
            tags["none" if w is None else "not-closed" if w[0] == "not-closed" else "triple"] += 1
    expected = {"none", "not-closed"}
    if associativity_violation(L.table) is not None:
        expected.add("triple")                 # at least the whole loop
    assert set(tags) == expected, tags


def test_induced_op_scans_only_a_failing_table(monkeypatch):
    # Light's test decides a passing induced table, so no triple scan runs
    # for it: cyclic:243's twisted loop is a group, its nuclei all of it,
    # and the nuclei of wreath33 x C4's pass.  Only a failing table, here
    # wreath33's whole loop, is scanned, once, for its least witness
    scan, scanned = groups.first_violation, []

    def counted(n, slab):
        scanned.append(n)
        return scan(n, slab)
    monkeypatch.setattr(groups, "first_violation", counted)
    for spec in ("cyclic:243", "product:wreath33,cyclic:4"):
        L = _gyro(spec).loop
        for S in set(_ref_scan_nuclei(L)):
            assert checks._induced_violation(L.table, S) is None
    assert scanned == []
    T = _gyro("wreath33").loop.table
    w = checks._induced_violation(T, range(81))
    assert scanned == [81]
    assert w is not None and w == _ref_induced_violation(T, range(81))


# ---------------------------------------------------------------------------
# random loops: intercalate switches on Z_n, then the principal isotope
# with identity 0

def _intercalates(T):
    """All 2x2 subsquares (r1, r2, c1, c2), r1 < r2 and c1 < c2, in order."""
    n = len(T)
    out = []
    for r1 in range(n):
        for r2 in range(r1 + 1, n):
            m = T[r1][:, None] == T[r2][None, :]        # T[r1, c1] == T[r2, c2]
            c1, c2 = np.nonzero(np.triu(m & m.T, 1))
            out += [(r1, r2, int(a), int(b)) for a, b in zip(c1, c2)]
    return out


def _random_loop(n, choices):
    """Switch the intercalate choices[i] (mod their count) for each i, then
    reorder columns and rows so that row 0 and column 0 are the identity."""
    T = np.add.outer(np.arange(n), np.arange(n)) % n
    for c in choices:
        found = _intercalates(T)
        if not found:
            break
        r1, r2, c1, c2 = found[c % len(found)]
        T[[r1, r1, r2, r2], [c1, c2, c1, c2]] = T[[r1, r1, r2, r2], [c2, c1, c2, c1]]
    T = T[:, np.argsort(T[0])]
    return loop_from_table(T[np.argsort(T[:, 0])])


# order 12, N = {0, 6}: cosets and x*(y*N) == (x*y)*N hold, but
# (N*1)*2 != N*(1*2)
PRODUCT_RIGHT_12 = [
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
    [1, 2, 6, 4, 5, 3, 7, 8, 0, 10, 11, 9],
    [2, 3, 4, 11, 6, 1, 8, 9, 10, 5, 0, 7],
    [3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 1, 2],
    [4, 5, 0, 7, 8, 9, 10, 11, 6, 1, 2, 3],
    [5, 6, 7, 8, 9, 10, 11, 0, 1, 2, 3, 4],
    [6, 7, 8, 9, 10, 11, 0, 1, 2, 3, 4, 5],
    [7, 8, 9, 10, 11, 0, 1, 2, 3, 4, 5, 6],
    [8, 9, 10, 5, 0, 7, 2, 3, 4, 11, 6, 1],
    [9, 10, 11, 0, 1, 2, 3, 4, 5, 6, 7, 8],
    [10, 11, 3, 1, 2, 6, 4, 5, 9, 7, 8, 0],
    [11, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
]


def test_product_right_fixture(monkeypatch):
    # {0, 6} passes x*N == N*x, so the normality test reads the congruence;
    # its NotWellDefined is kept on the loop and raised again by both
    # quotients, with the same witness
    calls = []
    inner = loops._coset_congruence
    monkeypatch.setattr(loops, "_coset_congruence",
                        lambda T, lst: calls.append(lst) or inner(T, lst))
    L = loop_from_table(PRODUCT_RIGHT_12)
    assert subloop_generated(L, {6}) == {0, 6}
    assert normal_subloop_violation(L, {0, 6}) == ("product-right", 1, 2)
    assert _ref_normal_subloop_violation(L, {0, 6}) == ("product-right", 1, 2)
    witnesses = []
    for _ in range(2):
        with pytest.raises(NotWellDefined) as exc:
            quotient_loop(L, {0, 6})
        witnesses.append(exc.value.witness)
    assert witnesses[0] == witnesses[1] and calls == [[0, 6]]


def _assert_normal_iff_quotient(L, subsets):
    """normal_subloop_violation(L, S) is None exactly when quotient_loop(L, S)
    raises nothing, on each subloop S."""
    for S in subsets:
        try:
            quotient_loop(L, S)
            well_defined = True
        except NotWellDefined:
            well_defined = False
        assert (normal_subloop_violation(L, S) is None) == well_defined, sorted(S)


def test_normal_subloop_sweep_reaches_every_tag():
    # product-right is reported only when the coset and product-left tests
    # hold everywhere, which random loops rarely give, so the sweep starts
    # from the pinned table
    rng = np.random.default_rng(1)
    loops = [loop_from_table(PRODUCT_RIGHT_12)]
    for _ in range(120):
        n = int(rng.integers(6, 13))
        loops.append(_random_loop(n, rng.integers(0, 1 << 30, size=int(rng.integers(1, 6)))))
    tags = Counter()
    for L in loops:
        n = L.order
        subloops = {subloop_generated(L, {a, b}) for a in range(n) for b in range(a, n)}
        for S in sorted(subloops, key=sorted):
            w = normal_subloop_violation(L, S)
            assert w == _ref_normal_subloop_violation(L, S), (L.table.tolist(), sorted(S))
            tags[w[0] if w else "normal"] += 1
    assert set(tags) == {"normal", "left-right-coset", "product-left", "product-right"}, tags


def test_normal_exactly_when_the_quotient_is_well_defined():
    # the loops of the sweep above, whose subloops reach every tag
    rng = np.random.default_rng(1)
    loops = [loop_from_table(PRODUCT_RIGHT_12)]
    for _ in range(120):
        n = int(rng.integers(6, 13))
        loops.append(_random_loop(n, rng.integers(0, 1 << 30, size=int(rng.integers(1, 6)))))
    for L in loops:
        n = L.order
        _assert_normal_iff_quotient(L, {subloop_generated(L, {a, b})
                                        for a in range(n) for b in range(a, n)})


@given(n=st.integers(min_value=1, max_value=10),
       choices=st.lists(st.integers(min_value=0, max_value=10_000), max_size=5))
def test_nuclei_property_on_random_loops(n, choices):
    L = _random_loop(n, choices)
    _assert_gyration_reading(L, _ref_nuclei(L))
    assert associativity_violation(L.table) == _ref_associativity_violation(L.table)


def test_group_scans_match_reference_on_random_tables():
    # random loop tables with their right inverses, wrapped as "groups" with
    # no checks at all, so the failing cells fall anywhere in the slabs; the
    # associator scan reads the loop itself as the twisted loop.  A seeded
    # sweep rather than a property: a ninth-power kernel that reads [[y,z],x]
    # for [x,[y,z]] differs from the reference on about 4 % of these tables
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = int(rng.integers(2, 11))
        L = _random_loop(n, rng.integers(0, 1 << 30, size=int(rng.integers(1, 6))))
        H = FiniteGroup(L.table.copy(), [str(i) for i in range(n)],
                        np.argmax(L.table == 0, axis=1).astype(np.int32))
        assert _expansions(H) == (_ref_expansion_left(H), _ref_expansion_right(H))
        assert nine_identity(H) == _ref_nine_identity(H)
        ctx = SuiteContext(H)
        ctx._cache["gyro"] = GyroConstruction(H, L, None)
        assert ctx.associator_scan() == _ref_associator_scan(ctx)


# ---------------------------------------------------------------------------
# buffers reused across slabs

def _late_failing_table(m, Q):
    """Z_m x Q with the index q*m + h of (h, q): every x below m has Q's
    identity as its Q part and passes every scan, so a failure of the
    non-associative loop Q is first met at x >= m, after m slabs."""
    h = np.arange(m)
    Z = (h[:, None] + h[None, :]) % m
    return (Q[:, None, :, None] * m + Z[None, :, None, :]).reshape(m * len(Q), -1)


def test_late_witnesses_after_many_passing_slabs():
    rng = np.random.default_rng(3)
    m = 24
    closed = 0
    # the fifth loop closes both masks at x = 24, and slabs past that still
    # remove elements from its nuclei
    for _ in range(5):
        Q = _random_loop(8, rng.integers(0, 1 << 30, size=3))
        if associativity_violation(Q.table) is None:
            continue
        L = loop_from_table(_late_failing_table(m, Q.table))
        n = L.order
        H = FiniteGroup(L.table.copy(), [str(i) for i in range(n)],
                        np.argmax(L.table == 0, axis=1).astype(np.int32))
        w = associativity_violation(L.table)
        assert w == _ref_associativity_violation(L.table) and w[0] >= m
        ref = _ref_nuclei(L)
        assert _ref_scan_nuclei(L) == ref
        left, right = _expansions(H)
        assert (left, right) == (_ref_expansion_left(H), _ref_expansion_right(H))
        assert nine_identity(H) == _ref_nine_identity(H)
        ctx = SuiteContext(H)
        ctx._cache["gyro"] = GyroConstruction(H, L, None)
        formula, central, _ = ctx.associator_scan()
        assert ctx.associator_scan() == _ref_associator_scan(ctx)
        for witness in (left, right, formula, central):
            assert witness is None or witness[0] >= m
        # the masks close at x >= m, and the nuclei are reduced past them
        closed += formula is not None and central is not None
        for kind, expected in zip(NUCLEUS_KINDS, ref):
            assert ctx.nuc(kind) == expected, kind
        assert ctx.nuc("full") == ref[0] & ref[1] & ref[2]
    assert closed


def test_nuclei_and_associativity_past_uint16_cells():
    # n = 324: n * n = 104,976 cells, past what a uint16 offset holds
    L = _gyro("product:wreath33,cyclic:4").loop
    assert L.order ** 2 > np.iinfo(np.uint16).max
    for M in (L, _opposite(L)):
        assert _scan_nuclei(M) == _ref_nuclei(M)
        assert associativity_violation(M.table) == _ref_associativity_violation(M.table)


def test_first_violation_reads_each_mask_before_the_next_call():
    # one buffer for every x, as the kernels' slabs return it; the failing
    # cell of x = 3 is cleared again by the call for x = 4
    buf = np.zeros((5, 5), dtype=bool)
    calls = []

    def slab(x):
        calls.append(x)
        buf[:] = False
        buf[2, 1] = x == 3
        return buf
    assert first_violation(5, slab) == (3, 2, 1)
    assert calls == [0, 1, 2, 3]
    assert first_violation(3, slab) is None

    def transposed(x):
        buf[:] = False
        buf[1, 4] = x == 2                 # cell [4, 1] of the view
        return buf.T
    assert first_violation(5, transposed) == (2, 4, 1)



def test_out_of_range_table_is_refused_not_clipped():
    # the scans take with mode="clip", so the range is checked once up front
    with pytest.raises(IndexError):
        associativity_violation(np.array([[0, 1], [1, 2]]))
    with pytest.raises(IndexError):
        associativity_violation(np.array([[0, 1], [-1, 0]]))


FAULT_PROBE = """
import resource
import sys
import numpy as np
from gyrolab.groups import associativity_violation
T = np.load(sys.argv[1])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert associativity_violation(T) is None
print(len(T), resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _shifted_group_table():
    """wreath33 x C4's group table relabelled by x -> x + 1 mod n.  The
    table is still associative, but its identity is 1, so Light's test does
    not decide it; the visits assert that the scan computes every slab."""
    T = catalog_group("product:wreath33,cyclic:4").table
    n = len(T)
    up, down = (np.arange(n) + 1) % n, (np.arange(n) - 1) % n
    T = up[T[np.ix_(down, down)]].astype(T.dtype)
    with pytest.MonkeyPatch.context() as mp:
        visits = _visits(mp)
        assert associativity_violation(T) is None
    assert visits == list(range(n))
    return T


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt counts minor faults on Linux")
def test_associativity_scan_does_not_fault_per_slab(tmp_path):
    # a fresh interpreter, so that the count does not depend on what earlier
    # tests left in the allocator; fresh n x n temporaries for every slab
    # fault about 380 pages per x at n = 324, one set of buffers about none
    pytest.importorskip("resource")
    np.save(tmp_path / "table.npy", _shifted_group_table())
    src = str(Path(gyrolab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", FAULT_PROBE, str(tmp_path / "table.npy")],
                         env=env, check=True, capture_output=True, text=True).stdout
    n, faults = map(int, out.split())
    assert n == 324 and faults < 20 * n, faults


def test_associativity_scan_allocates_its_buffers_once():
    # The scan's buffers are an intp copy of T, two value slabs and a mask;
    # a fresh n x n array for every x (about 410 KiB here) raises the traced
    # peak past them, which the fault count above cannot see: the allocator
    # hands the freed slab back on the next x
    T = _shifted_group_table()
    n = len(T)
    buffers = n * n * (np.dtype(np.intp).itemsize + 2 * T.itemsize + 1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert associativity_violation(T) is None
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < buffers + 256 * 1024, (peak, buffers)


def test_associator_scan_allocates_its_buffers_once():
    # A cold call on a fresh loop peaks in verify_translations, which checks
    # the loop key under tracing: an intp copy of T, two value slabs in T's
    # dtype and a bool mask, 13 n^2 bytes here.  The row labels of the
    # commutator table, the gathers of the x, y and z tests and the cube's
    # |R| x |R| buffers (pinned in the test below) stay under it, with one
    # ufunc cast buffer.  A fresh n x n
    # array kept past the verification (a bool mask is about 103 KiB here)
    # raises the peak past the bound.  A first scan fills Python's free
    # lists, so that they are not traced
    G = catalog_group("product:wreath33,cyclic:4")
    SuiteContext(G).associator_scan()
    ctx = SuiteContext(G)
    L, n = ctx.loop, ctx.n
    ctx.zg                                # built before tracing, as in a suite
    assert n == 324
    intp = np.dtype(np.intp).itemsize
    buffers = n * n * (intp + 2 * L.table.itemsize + 1)
    assert buffers == 13 * n * n
    cast = np.getbufsize() * intp
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        formula, central, _ = ctx.associator_scan()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert formula is None and central is None
    assert peak < buffers + cast + 48 * 1024, (peak, buffers)


def test_associator_scan_allocates_only_its_cube_buffers(monkeypatch):
    # wreath33 x C4: |R| = 9 of n = 324.  The peak is traced from the start
    # of a warm call, with the loop key cached, and reset as
    # _associator_key returns, once the x, y and z tests have freed their
    # n x n gathers and row labels; it includes the three nuclei built
    # after the pass.
    # The [y, z] tables of y*z and of [z^-1, y], the offsets, the intp
    # indices of the central lookup, two value slabs, the expected values
    # and two masks are |R| x |R| arrays; any n x n array kept across the
    # slabs or made per slab, even a bool mask (about 103 KiB here), raises
    # the peak past them and the slack
    G = catalog_group("product:wreath33,cyclic:4")
    gc = build_gyro(G)
    SuiteContext(G).associator_scan()           # fills Python's free lists
    ctx = SuiteContext(G)
    ctx._cache["gyro"] = gc
    n, cm = ctx.n, ctx.cm
    ctx.zg
    cs, _ = loops.central_translations(gc.loop)
    key, peaks = checks._associator_key, []

    def traced(*args):
        k = key(*args)
        tracemalloc.reset_peak()
        return k
    monkeypatch.setattr(checks, "_associator_key", traced)
    m = int((_ref_key(gc.loop, G) == np.arange(n)).sum())
    assert (n, m, len(cs)) == (324, 9, 3)
    intp, item = np.dtype(np.intp).itemsize, cm.itemsize
    buffers = m * m * (4 * intp + 3 * item + 2)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        formula, central, _ = ctx.associator_scan()
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert formula is None and central is None and len(peaks) == 1
    assert peaks[0] - base < buffers + 32 * 1024 < n * n, (peaks[0] - base, buffers)


# ---------------------------------------------------------------------------
# the right expansion on tables whose commutators take many values

def _as_group(table, inverse=None):
    """A table wrapped as a "group" with no checks, with its right inverses
    unless an inverse map is given."""
    n = len(table)
    if inverse is None:
        inverse = np.argmax(np.asarray(table) == 0, axis=1)
    return FiniteGroup(np.array(table, dtype=np.int32), [str(i) for i in range(n)],
                       np.asarray(inverse, dtype=np.int32))


@pytest.mark.parametrize("n, choices", [(12, [5, 99]), (40, [7, 123, 4567])])
def test_expansion_right_with_n_values_of_the_commutator(n, choices):
    # with every inverse sent to the identity, [x, y] = x y, so on a Latin
    # table [x, z] takes all n values for every x
    L = _random_loop(n, choices)
    H = _as_group(L.table, np.zeros(n))
    assert all(len(np.unique(row)) == n for row in H.commutator_table())
    w = _expansions(H)[1]
    assert w == _ref_expansion_right(H)
    assert w is not None


@pytest.mark.parametrize("m", [5, 40])
def test_expansion_right_witness_past_half_the_slabs(m):
    # this order-8 loop first fails the law at x = 6, so Z_m x Q, indexed
    # q*m + h, first fails at x = 6m, past n/2 = 4m; m = 40 gives n = 320,
    # whose n * n cells are past what uint16 holds
    Q = _random_loop(8, [660155962, 379779733])
    assert _ref_expansion_right(_as_group(Q.table))[0] == 6
    H = _as_group(_late_failing_table(m, Q.table))
    w = _expansions(H)[1]
    assert w == _ref_expansion_right(H)
    assert w[0] == 6 * m >= H.order / 2


def test_expansion_right_allocates_its_buffers_once():
    # dihedral:326: Z(G) is trivial, so no key could shrink a scan, but the
    # group is one: a warm call reads the cached group verdict and
    # allocates no n x n array, where one bool mask of a slab is 104 KiB
    ctx = SuiteContext(catalog_group("dihedral:326"))
    n = ctx.n
    checks._check_commutator_expansion_right(ctx)    # fills Python's free lists
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert checks._check_commutator_expansion_right(ctx)[0] is None
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024 < n * n, peak


def test_suite_loop_class_starts_from_the_center():
    # a commutative loop of order 10 with center {0, 5}: its series started
    # from the center gives class 2, from the commutant (all of it) class 1
    L = _random_loop(10, [621592837])
    assert commutant(L) == frozenset(range(10)) and loop_center(L) == {0, 5}
    H = _as_group(L.table)
    ctx = SuiteContext(H)
    ctx._cache["gyro"] = GyroConstruction(H, L, None)
    assert ctx.zl == loop_center(L)
    assert ctx.loop_class == loop_nilpotency_class(L) == 2


def test_expansion_right_past_uint16_cells():
    gc = _gyro("product:wreath33,cyclic:4")
    assert gc.source.order ** 2 > np.iinfo(np.uint16).max
    for G in (gc.source, _wrapped(gc)):
        assert _expansions(G)[1] == _ref_expansion_right(G)


# ---------------------------------------------------------------------------
# keyed scans: the group-side scans read the cube of the group key, and the
# bracket's associativity scan the cube of the loop key

LADDER_324 = ["dihedral:16", "wreath33", "heisenberg:5",
              "product:dihedral:16,cyclic:5", "product:wreath33,cyclic:4"]
WRAPPED_PINS = ["dihedral:16", "wreath33", "product:dihedral:16,cyclic:5"]


def _unkeyed(mp):
    """Run every scan unkeyed from here on: the group and loop keys are
    trivial, so the cubes are all of G x G x G and L x L x L."""
    trivial = lambda X: ((), np.arange(X.order))
    for module, name in ((checks, "group_translations"), (checks, "central_translations"),
                         (loops, "central_translations")):
        mp.setattr(module, name, trivial)


def _visits(mp):
    """The s whose slab each scan computes, from here on, in call order:
    an element for the associativity scan, the product tests and the
    associator scan (an element of its R), a position in R for the
    group-side scans of the cube.  The associator scan runs its own pass
    over every x of R, so its visits are R, read off its key."""
    visits = []
    scan, key = groups.first_violation, checks._associator_key

    def counting(n, slab):
        def counted(x):
            visits.append(x)
            return slab(x)
        return scan(n, counted)

    def keyed(*args):
        k = key(*args)
        visits.extend(np.flatnonzero(k == np.arange(len(k))).tolist())
        return k
    for module in (groups, checks, loops, cocycle):
        mp.setattr(module, "first_violation", counting)
    mp.setattr(checks, "_associator_key", keyed)
    return visits


def _keyed_scans(G, tables):
    """The ninth-power identity of G, which reads the group key, both
    expansions, which read none, and the associativity scan of each
    table."""
    return ((nine_identity(G),) + _expansions(G)
            + tuple(associativity_violation(t) for t in tables))


def _first_rows(table):
    """The x whose row differs from the rows of every smaller x."""
    first = {}
    for x, row in enumerate(table):
        first.setdefault(row.tobytes(), x)
    return sorted(first.values())


def _keyed_cases(spec):
    gc = _gyro(spec)
    yield gc.source, (commutator_bracket_table(gc.loop), gc.source.table)
    if spec in WRAPPED_PINS:
        H = _wrapped(gc)
        yield H, (H.table, H.commutator_table())


@pytest.mark.parametrize("spec", LADDER_324)
def test_keyed_scans_match_the_unkeyed_scans(spec):
    # the sources with their bracket and group tables, and the wrapped
    # twisted tables of the failing-report pins with their own tables and
    # commutator tables (not Latin, with repeated rows, and failing)
    for G, tables in _keyed_cases(spec):
        keyed = _keyed_scans(G, tables)
        with pytest.MonkeyPatch.context() as mp:
            _unkeyed(mp)
            assert _keyed_scans(G, tables) == keyed
        assert keyed[:4] == (_ref_nine_identity(G), _ref_expansion_left(G),
                             _ref_expansion_right(G), _ref_associativity_violation(tables[0]))


def test_keyed_scans_find_witnesses_on_the_wrapped_tables():
    # the comparison above is not all passes: the wrapped D16xC5 fails all
    # five scans, and its commutator table repeats rows
    G, tables = list(_keyed_cases("product:dihedral:16,cyclic:5"))[1]
    keyed = _keyed_scans(G, tables)
    assert all(w is not None for w in (keyed[0][1],) + keyed[1:])
    assert len(_first_rows(tables[1])) < G.order


def _bracket_context(kind, spec):
    """A fresh suite context: of the source, of the twisted table wrapped as
    a "group", or of the source with the opposite of its twisted loop."""
    gc = _gyro(spec)
    if kind == "wrapped":
        return SuiteContext(_wrapped(gc))
    ctx = SuiteContext(gc.source)
    if kind == "opposite":
        ctx._cache["gyro"] = GyroConstruction(gc.source, _opposite(gc.loop), None)
    return ctx


@pytest.mark.parametrize("kind, spec", [("source", s) for s in LADDER_324]
                         + [("wrapped", s) for s in WRAPPED_PINS]
                         + [("opposite", "unitriangular4:3")])
def test_bracket_scan_matches_the_unkeyed_scan_and_the_reference(kind, spec):
    # the bracket is read on the cube of the loop key: 8 to 27 classes here,
    # and D16 and D16 x C5 fail, in the sources and the wrapped tables
    ctx = _bracket_context(kind, spec)
    keyed = ctx.bracket_violation
    assert len(set(loops.central_translations(ctx.loop)[1].tolist())) < ctx.n
    with pytest.MonkeyPatch.context() as mp:
        _unkeyed(mp)
        assert _bracket_context(kind, spec).bracket_violation == keyed
    assert keyed == _ref_associativity_violation(ctx.bracket)
    assert (keyed is not None) == ("dihedral:16" in spec)


@st.composite
def _identity_magmas(draw):
    """A random n x n table whose row 0 and column 0 are the identity map:
    random cells, seldom Latin, or the table of the monoid that up to three
    random maps of {0, 1, 2} generate under composition, identity first,
    with one cell off row 0 and column 0 planted with a random value."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=7))
        cells = st.integers(min_value=0, max_value=n - 1)
        table = np.array(draw(st.lists(st.lists(cells, min_size=n, max_size=n),
                                       min_size=n, max_size=n)), dtype=np.int64)
    else:
        maps = draw(st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=1, max_size=3))
        elements, index = [(0, 1, 2)], {(0, 1, 2): 0}
        for f in elements:
            for g in maps:
                fg = tuple(g[f[i]] for i in range(3))
                if fg not in index:
                    index[fg] = len(elements)
                    elements.append(fg)
        n = len(elements)
        table = np.array([[index[tuple(g[f[i]] for i in range(3))] for g in elements]
                          for f in elements], dtype=np.int64)
        if n > 1 and draw(st.booleans()):
            a, b = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
            table[a, b] = draw(st.integers(0, n - 1))
    table[0] = table[:, 0] = np.arange(n)
    return table


@given(_identity_magmas())
def test_associativity_matches_the_reference_on_magmas_with_an_identity(table):
    # Light's test needs only the identity: it decides non-Latin tables and
    # monoids of maps, associative or planted, as the scan of every triple
    assert associativity_violation(table) == _ref_associativity_violation(table)


@st.composite
def _repeated_rows(draw):
    """A random n x n table and inverse map, with rows planted as copies of
    other rows (the inverse copied along, so the commutator rows repeat)."""
    n = draw(st.integers(min_value=2, max_value=7))
    cells = st.integers(min_value=0, max_value=n - 1)
    table = np.array(draw(st.lists(st.lists(cells, min_size=n, max_size=n),
                                   min_size=n, max_size=n)))
    inverse = np.array(draw(st.lists(cells, min_size=n, max_size=n)))
    for src, dst in draw(st.lists(st.tuples(cells, cells), min_size=1, max_size=n)):
        table[dst], inverse[dst] = table[src], inverse[src]
    return table, inverse


@given(_repeated_rows())
def test_keyed_scans_match_the_unkeyed_scans_on_repeated_rows(drawn):
    table, inverse = drawn
    H = _as_group(table, inverse)
    tables = (H.table, H.commutator_table())
    keyed = _keyed_scans(H, tables)
    with pytest.MonkeyPatch.context() as mp:
        _unkeyed(mp)
        assert _keyed_scans(H, tables) == keyed
    assert keyed == (_ref_nine_identity(H), _ref_expansion_left(H), _ref_expansion_right(H),
                     _ref_associativity_violation(tables[0]),
                     _ref_associativity_violation(tables[1]))


def test_keyed_scans_visit_each_distinct_row_once():
    # wreath33 x C4: 27 distinct rows of 324 in the commutator table, the
    # classes of the group key, and 9 in the loop-commutator bracket table,
    # as many as the classes of the loop key, the cosets of the loop's 36
    # commuting elements.  The scans pass, so the cube scans each visit
    # every position of their R once: the 27 of the group key, the first x
    # of every distinct row of the commutator table, for the ninth-power
    # identity, and the 9 of the loop key for the bracket, as the suite
    # runs them.  The right expansion, a law of every group, reads the
    # group verdict and visits none
    ctx = SuiteContext(catalog_group("product:wreath33,cyclic:4"))
    G, cm = ctx.G, ctx.cm
    R = np.flatnonzero(group_translations(G)[1] == np.arange(ctx.n)).tolist()
    assert R == _first_rows(cm)
    loop_key = loops.central_translations(ctx.loop)[1]
    assert len(set(loop_key.tolist())) == len(_first_rows(ctx.bracket)) == 9
    cube = list(range(len(R)))
    expected = {"nine": cube, "right": [], "bracket": list(range(9))}
    assert list(map(len, expected.values())) == [27, 0, 9]
    runs = {"nine": lambda: nine_identity(G)[1],
            "right": lambda: checks._check_commutator_expansion_right(ctx)[0],
            "bracket": lambda: ctx.bracket_violation}
    for name, run in runs.items():
        with pytest.MonkeyPatch.context() as mp:
            visits = _visits(mp)
            assert run() is None
        assert visits == expected[name], name


def test_keyed_scan_visits_only_the_x_up_to_a_refused_tables_witness():
    # a table whose row 0 and column 0 are the identity is decided by
    # Light's test: a passing one visits no slab, a refused one every x up
    # to its witness.  The bracket's row 0 is all 0, so its table is
    # scanned from x = 0 on
    T = catalog_group("product:wreath33,cyclic:4").table
    H = _wrapped(_gyro("dihedral:16"))
    B = commutator_bracket_table(_gyro("wreath33").loop)
    with pytest.MonkeyPatch.context() as mp:
        visits = _visits(mp)
        assert associativity_violation(T) is None
        w = associativity_violation(H.table)
        assert visits == list(range(w[0] + 1))
        assert associativity_violation(B) is None
    assert w == _ref_associativity_violation(H.table)
    assert visits == list(range(w[0] + 1)) + list(range(len(B)))


def test_keyed_scans_allocate_their_buffers_once():
    # n = 324.  The bracket scan's buffers are an intp copy of the table,
    # two value slabs and a mask; the ninth-power scan's are those and the
    # [a, b]^9 table, on the cube.  The first rows are found, by a sort of
    # the rows, before the buffers are allocated, so a copy of every row
    # kept past that (about 210 KiB here) or a fresh n x n array per x
    # raises the peak past the slack
    ctx = SuiteContext(catalog_group("product:wreath33,cyclic:4"))
    G, cm, B = ctx.G, ctx.cm, ctx.bracket
    n, intp = ctx.n, np.dtype(np.intp).itemsize
    G.power_array(9)
    assert n == 324
    runs = [(lambda: associativity_violation(B), n * n * (intp + 2 * B.itemsize + 1)),
            (lambda: nine_identity(G)[1], n * n * (intp + 3 * cm.itemsize + 1))]
    for run, buffers in runs:
        run()                                 # fills Python's free lists
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert run() is None
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < buffers + 256 * 1024, (peak, buffers)


def test_normal_subloop_allocates_its_buffers_once():
    # the 108-element nucleus of wreath33 x C4's twisted loop, normal, so
    # the coset congruence decides it and no product test runs.  The
    # buffers are the bool membership table, the [x, n_i] and [n_i, x]
    # tables, the cosets T[:, N], their sort and its gather by the least
    # element, all in the element dtype, and the congruence test's three
    # n x n arrays: proj[T] and the quotient product at each cell, at most
    # in the element dtype, and their bool comparison.  An intp copy of the
    # table (820 KiB here) raises the peak past them
    ctx = SuiteContext(catalog_group("product:wreath33,cyclic:4"))
    L, n = ctx.loop, ctx.n
    N = max((ctx.nuc(kind) for kind in NUCLEUS_KINDS), key=len)
    k, elem = len(N), L.table.dtype.itemsize
    assert k == 108
    buffers = n * n * (2 + 2 * elem) + n * k * 5 * elem
    assert normal_subloop_violation(L, N) is None
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert normal_subloop_violation(L, N) is None
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < buffers + 256 * 1024, (peak, buffers)


# ---------------------------------------------------------------------------
# the left expansion on tables whose columns of the commutator table repeat:
# it reads no key, so a run with every key made trivial gives its witness

def _left(G):
    return checks._check_commutator_expansion_left(SuiteContext(G))[0]


def _column_witnesses(G):
    """For each z, the least (x, y) failing [xy,z] = [x,[y,z]] [y,z] [x,z],
    from whole n x n gathers of column z, else None."""
    cm, T = G.commutator_table(), G.table
    out = []
    for z in range(G.order):
        c = cm[:, z]
        lhs = c[T]
        rhs = T[T[cm[:, c], c[None, :]], c[:, None]]
        out.append(groups.first_cell(lhs != rhs))
    return out


@pytest.mark.parametrize("spec", LADDER_324)
def test_expansion_left_keyed_matches_the_unkeyed_scan_and_the_reference(spec):
    # the sources and their wrapped twisted tables (failing, with repeated
    # columns); the witness is also the least over every z of the least
    # failing (x, y) of column z (wreath33 x C4's wrapped table: (108, ., 4)
    # at z = 4, and (4, 108, 108) overall)
    gc = _gyro(spec)
    for G in (gc.source, _wrapped(gc)):
        keyed = _left(G)
        with pytest.MonkeyPatch.context() as mp:
            _unkeyed(mp)
            assert _left(G) == keyed
        assert keyed == _ref_expansion_left(G)
        per_column = [cell + (z,) for z, cell in enumerate(_column_witnesses(G)) if cell]
        assert keyed == min(per_column, default=None)
    assert _left(gc.source) is None


@pytest.mark.parametrize("spec, distinct", [("product:wreath33,cyclic:4", 27),
                                            ("product:dihedral:16,cyclic:5", 8)])
def test_group_key_classes_are_the_distinct_columns(spec, distinct):
    # [x, y c] = [x, y] for central c: wreath33 x C4 has 27 distinct columns
    # of 324 in its commutator table, D16 x C5 8 of 80, and the group key's
    # R is the first z of every distinct column.  The left expansion reads
    # the group verdict instead, and computes no slab
    ctx = SuiteContext(catalog_group(spec))
    expected = _first_rows(ctx.cm.T)
    assert len(expected) == distinct
    with pytest.MonkeyPatch.context() as mp:
        visits = _visits(mp)
        assert checks._check_commutator_expansion_left(ctx)[0] is None
    assert np.flatnonzero(group_translations(ctx.G)[1] == np.arange(ctx.n)).tolist() == expected
    assert visits == []


@pytest.mark.parametrize("spec", WRAPPED_PINS + ["product:wreath33,cyclic:4"])
def test_expansion_left_reads_only_the_rows_up_to_its_witness(spec):
    # a wrapped twisted table is no group, so the scan reads every x from 0:
    # it computes the slabs up to the witness's x, and no slab after it;
    # the witness is the least over every z of the least failing (x, y) of
    # column z (wreath33 x C4: (108, ., 4) at z = 4, then (4, 108, 108)
    # overall)
    H = _wrapped(_gyro(spec))
    with pytest.MonkeyPatch.context() as mp:
        visits = _visits(mp)
        w = _left(H)
    per_column = [cell + (z,) for z, cell in enumerate(_column_witnesses(H)) if cell]
    assert w == min(per_column) == _ref_expansion_left(H)
    assert visits == list(range(w[0] + 1))
    assert w[0] + 1 < H.order


@st.composite
def _repeated_columns(draw):
    """A random n x n table and inverse map, with columns planted as copies
    of other columns (the inverse copied along, so the columns of the
    commutator table repeat)."""
    n = draw(st.integers(min_value=2, max_value=7))
    cells = st.integers(min_value=0, max_value=n - 1)
    table = np.array(draw(st.lists(st.lists(cells, min_size=n, max_size=n),
                                   min_size=n, max_size=n)))
    inverse = np.array(draw(st.lists(cells, min_size=n, max_size=n)))
    for src, dst in draw(st.lists(st.tuples(cells, cells), min_size=1, max_size=n)):
        table[:, dst], inverse[dst] = table[:, src], inverse[src]
    return table, inverse


@given(_repeated_columns())
def test_expansion_left_matches_the_reference_on_repeated_columns(drawn):
    table, inverse = drawn
    H = _as_group(table, inverse)
    keyed = _left(H)
    with pytest.MonkeyPatch.context() as mp:
        _unkeyed(mp)
        assert _left(H) == keyed
    assert keyed == _ref_expansion_left(H)


@given(_repeated_columns())
def test_group_scans_match_the_reference_on_repeated_columns(drawn):
    # the same tables for the right expansion and the ninth-power identity
    table, inverse = drawn
    H = _as_group(table, inverse)
    keyed = (checks._check_commutator_expansion_right(SuiteContext(H))[0], nine_identity(H))
    with pytest.MonkeyPatch.context() as mp:
        _unkeyed(mp)
        assert (checks._check_commutator_expansion_right(SuiteContext(H))[0],
                nine_identity(H)) == keyed
    assert keyed == (_ref_expansion_right(H), _ref_nine_identity(H))


def test_expansion_left_allocates_its_buffers_once():
    # wreath33 x C4 is a group: a warm call reads the cached group verdict
    # and allocates no n x n array, where one bool mask of a slab is
    # 103 KiB here
    ctx = SuiteContext(catalog_group("product:wreath33,cyclic:4"))
    n = ctx.n
    checks._check_commutator_expansion_left(ctx)     # fills Python's free lists
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert checks._check_commutator_expansion_left(ctx)[0] is None
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024 < n * n, peak


# ---------------------------------------------------------------------------
# the associator scan keyed by the central translations it verifies: for c
# in the commutant of the loop and rho = T[:, c], slab(rho x) = slab(x)
# once (a) and (a') hold, and the scan reads the cube R^3, as the x, y and
# z conditions also hold

def _conditions(L, c):
    """Whether rho = L.table[:, c] passes (a) T[rho p, z] = rho T[p, z] and
    (a') T[p, rho z] = rho T[p, z], each by one whole-table gather."""
    T = L.table
    rho = T[:, c]
    return np.array_equal(T[rho, :], rho[T]), np.array_equal(T[:, rho], rho[T])


def _scan_conditions(L, c, G):
    """Whether rho = L.table[:, c] passes the conditions of the associator
    scan on G's commutator table cm, with rows labelled by np.unique:
    (x) cm[W][:, rho] = cm[W], W the values of cm; (y) the rows of cm at
    [w, rho y] and [w, y] agree; (z) the rows at [(rho z)^-1, y] and
    [z^-1, y] agree."""
    cm, inv, rho = G.commutator_table(), G.inverse, L.table[:, c]
    W = np.unique(cm)
    label = np.unique(cm, axis=0, return_inverse=True)[1].ravel()[cm]
    return (np.array_equal(cm[W][:, rho], cm[W]), np.array_equal(label[:, rho], label),
            np.array_equal(label[inv[rho]], label[inv]))


def _commuting(L):
    """The c with T[c] = T[:, c]: the candidates of the loop key."""
    return np.flatnonzero((L.table == L.table.T).all(axis=1)).tolist()


def _closed_key(rhos, n):
    """Each x's least image under every composition of the maps rhos, by
    one step at a time until no key changes."""
    key = np.arange(n)
    while True:
        lower = np.min([key, *(key[rho] for rho in rhos)], axis=0)
        if np.array_equal(lower, key):
            return key
        key = lower


def _ref_key(L, G=None):
    """Each x's least image under the compositions of the translations by
    the commuting elements of L that pass every condition, each candidate
    tested: (a) and (a'), the loop key, or with the commutators and
    inverses of G the x, y and z conditions too, the associator scan's."""
    return _closed_key([L.table[:, c] for c in _commuting(L)
                        if all(_conditions(L, c)) and (G is None or all(_scan_conditions(L, c, G)))],
                       L.order)


def _assert_associator_scans_agree(make_ctx):
    """The keyed associator scan equals the unkeyed scan and the reference;
    make_ctx gives a fresh context, as each caches its scan."""
    keyed = make_ctx().associator_scan()
    with pytest.MonkeyPatch.context() as mp:
        _unkeyed(mp)
        assert make_ctx().associator_scan() == keyed
    assert keyed == _ref_associator_scan(make_ctx())


@pytest.mark.parametrize("spec", SPECS + ["product:wreath33,cyclic:4"])
def test_associator_scan_keyed_matches_the_unkeyed_scan_and_the_reference(spec):
    # the sources, and their twisted tables wrapped as "groups" (all but
    # heisenberg:5's fail the formula), keyed on the translations they pass
    gc = _gyro(spec)
    for G in (gc.source, _wrapped(gc)):
        _assert_associator_scans_agree(lambda: SuiteContext(G))


def test_associator_scan_keyed_on_random_tables():
    # a seeded random loop times C_k, wrapped as a "group" with itself as
    # its twisted loop: (0, t) commutes and passes (a), (a') and the x, y
    # and z conditions, so the key merges each x with its k translates
    rng = np.random.default_rng(5)
    for _ in range(40):
        m, k = int(rng.integers(2, 7)), int(rng.integers(2, 4))
        L1 = _random_loop(m, rng.integers(0, 1 << 30, size=int(rng.integers(1, 4))))
        L = loop_from_table((k * L1.table[:, None, :, None]
                             + np.add.outer(np.arange(k), np.arange(k))[None, :, None, :] % k
                             ).reshape(m * k, m * k))
        H = _as_group(L.table)

        def make_ctx():
            ctx = SuiteContext(H)
            ctx._cache["gyro"] = GyroConstruction(H, L, None)
            return ctx
        _assert_associator_scans_agree(make_ctx)
        assert len(set(_ref_key(L, H).tolist())) <= m


@pytest.mark.parametrize("spec, cosets", [("product:wreath33,cyclic:4", 9),
                                          ("product:dihedral:16,cyclic:5", 8),
                                          ("unitriangular4:3", 27)])
def test_associator_scan_visits_one_slab_per_coset_of_the_center(spec, cosets):
    # every c of Z(L) passes, so the key is the least element of x Z(L), and
    # a passing scan visits that element of each coset, R, and reads R^3:
    # 9 of 324 slabs on wreath33 x C4 and 27 of 729 on unitriangular4:3
    ctx = SuiteContext(catalog_group(spec))
    key = _ref_key(ctx.loop, ctx.G)
    with pytest.MonkeyPatch.context() as mp:
        visits = _visits(mp)
        formula, central, _ = ctx.associator_scan()
    assert formula is None and central is None
    assert visits == _first_rows(key[:, None]) == sorted(set(key.tolist()))
    assert len(visits) == cosets == ctx.n // len(ctx.zl)


def _planted(fails):
    """A context whose loop holds c = r^4 (index 4) in its commutant, and
    rho = T[:, 4] fails one condition:
      (a), (a') the loops of _planted_normal, under D16 itself;
      (x), (y), (z) D16's twisted loop, where rho passes (a) and (a'),
          under a copy of D16 with one change to its commutator table.
    The rows of cm at w and w c are equal in D16, and W = {e, r2, r4, r6}:
      (x) [r2, sr4] = e for r4: row r2 lies in W and [r2, rho sr4] =
          [r2, s] = r4 differs, while the rows of e and r4 (both e) agree;
      (y) [r, sr4] = [r5, sr4] = e for r2: rows r and r5 lie outside W;
          the rows of [r, sr4] = e and [r, s] = r2 differ, and r, r5 are
          the two z^-1 of one z-class, so the z rows agree;
      (z) [r, s] = [r, sr4] = e for r2: the y rows agree, and the rows of
          [(rho r7)^-1, s] = [r5, s] = r2 and [r, s] = e differ."""
    G = catalog_group("dihedral:16")
    if fails in ("a", "a'"):
        L = _planted_normal(fails)
    else:
        L = build_gyro(G).loop
        cm = G.commutator_table().copy()
        cell = {"x": (2, 12), "y": ([1, 5], 12), "z": (1, [8, 12])}[fails]
        cm[cell] = 0
        G = FiniteGroup(G.table, G.names, G.inverse)
        G._cache["cm"] = cm
    ctx = SuiteContext(G)
    ctx._cache["gyro"] = GyroConstruction(G, L, None)
    return ctx


@pytest.mark.parametrize("fails, witnesses", [("a", ((2, 12, 10), (2, 12, 10))),
                                               ("a'", ((1, 1, 1), (1, 1, 1))),
                                               ("x", ((12, 3, 8), None)),
                                               ("z", ((8, 8, 7), None)),
                                               ("y", ((8, 12, 3), None))])
def test_associator_scan_refuses_a_translation_that_fails_one_condition(fails, witnesses):
    # c = 4 commutes and fails the named condition alone.
    # central_translations refuses it for (a) and (a'); for x, y and z it
    # passes both, and the scan refuses it itself.  Each keeps keyed =
    # unkeyed = reference.  Merging x with x c anyway changes each answer.
    # In (a), x c takes the nuclei readings of x.  In (a'), which carries A
    # from y to y c and from z to z c, the cube reads y and z at the
    # classes' least elements, so the middle and right nuclei read {0, 4}
    # where the scan reads {0}.  The least formula failure lies at x = sr4
    # in (x), at y = sr4 in (y) and at z = r7 in (z), each the larger
    # element of its class, outside the merged cube
    ctx = _planted(fails)
    L = ctx.loop
    assert 4 in _commuting(L)
    assert _conditions(L, 4) == (fails != "a", fails != "a'")
    if fails in ("x", "y", "z"):
        assert _scan_conditions(L, 4, ctx.G) == tuple(k != fails for k in ("x", "y", "z"))
    with pytest.MonkeyPatch.context() as mp:
        visits = _visits(mp)
        result = ctx.associator_scan()
    assert visits == sorted(set(_ref_key(L, ctx.G).tolist())) == list(range(16))
    _assert_associator_scans_agree(lambda: _planted(fails))
    assert result[:2] == witnesses
    cs, key = L._cache["central"]
    assert np.array_equal(key, _ref_key(L)) and (4 in cs) == (fails in ("x", "y", "z"))
    merged = np.minimum(np.arange(16), L.table[:, 4])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "_least_reached", lambda maps, n: merged)
        forced = _planted(fails).associator_scan()
    assert forced != result
    if fails == "a'":
        assert forced[2][1:] == (frozenset({0, 4}),) * 2 and result[2][1:] == (frozenset({0}),) * 2


# ---------------------------------------------------------------------------
# normal_subloop_violation on loops with a key of central translations,
# which it does not read, against the same test run unkeyed and the reference

def _assert_normal_scans_agree(L, subsets):
    """The keyed normal_subloop_violation equals the unkeyed one and the
    reference on each subset; returns the count of each outcome's tag."""
    tags = Counter()
    for S in subsets:
        keyed = normal_subloop_violation(L, S)
        with pytest.MonkeyPatch.context() as mp:
            _unkeyed(mp)
            assert normal_subloop_violation(L, S) == keyed
        assert keyed == _ref_normal_subloop_violation(L, S), sorted(S)
        tags[keyed[0] if keyed else "normal"] += 1
    return tags


def test_normal_subloop_keyed_matches_the_unkeyed_scan_on_larger_loops():
    # wreath33 x C4's twisted loop (9 keys) on its nuclei, its commutant
    # and two cyclic subloops, and the twisted loops of the wrapped twisted
    # tables, keyed on their commuting elements that pass
    L = _gyro("product:wreath33,cyclic:4").loop
    subsets = set(_ref_scan_nuclei(L)) | {commutant(L), subloop_generated(L, {1}),
                                          subloop_generated(L, {5})}
    tags = _assert_normal_scans_agree(L, sorted(subsets, key=sorted))
    _assert_normal_iff_quotient(L, subsets)
    assert len(set(_ref_key(L).tolist())) == 9 and tags["normal"] >= 2
    for spec in SPECS:
        M = build_gyro(_wrapped(_gyro(spec))).loop
        assert M.is_loop and len(set(_ref_key(M).tolist())) < M.order
        subsets = {subloop_generated(M, {a}) for a in range(0, M.order, 3)} | {commutant(M)}
        _assert_normal_scans_agree(M, sorted(subsets, key=sorted))
        _assert_normal_iff_quotient(M, subsets)


def _times_cyclic(T1, k):
    """The loop T1 x C_k, with (a, t) at index a k + t."""
    m = len(T1)
    return loop_from_table((k * np.asarray(T1)[:, None, :, None]
                            + np.add.outer(np.arange(k), np.arange(k))[None, :, None, :] % k
                            ).reshape(m * k, m * k))


def test_normal_subloop_keyed_on_random_loops():
    # seeded random loops times C_k: every (0, t) commutes and its
    # translation passes both conditions, so each loop has a key, which
    # normal_subloop_violation does not read, and every tag is reached
    # (product-right through the pinned order-12 loop)
    rng = np.random.default_rng(3)
    loops = [_times_cyclic(PRODUCT_RIGHT_12, 2)]
    for _ in range(16):
        m, k = int(rng.integers(6, 10)), int(rng.integers(2, 4))
        loops.append(_times_cyclic(_random_loop(m, rng.integers(0, 1 << 30, size=int(
            rng.integers(1, 6)))).table, k))
    tags = Counter()
    for L in loops:
        key = _ref_key(L)
        assert len(set(key.tolist())) < L.order
        n = L.order
        subloops = {subloop_generated(L, {a, b}) for a in range(n) for b in range(a, n)}
        tags += _assert_normal_scans_agree(L, sorted(subloops, key=sorted))
        _assert_normal_iff_quotient(L, subloops)
        assert "central" not in L._cache
    assert set(tags) == {"normal", "left-right-coset", "product-left", "product-right"}, tags


@pytest.mark.parametrize("spec", ["product:wreath33,cyclic:4", "product:dihedral:16,cyclic:5",
                                  "unitriangular4:3"])
def test_normal_subloop_computes_no_slab_for_a_normal_subloop(spec):
    # the commutant and the nuclei are normal: the coset congruence decides
    # that, and neither product test computes a slab
    ctx = SuiteContext(catalog_group(spec))
    L = ctx.loop
    subsets = {ctx.com, *(ctx.nuc(kind) for kind in NUCLEUS_KINDS)}
    with pytest.MonkeyPatch.context() as mp:
        visits = _visits(mp)
        assert all(normal_subloop_violation(L, S) is None for S in subsets)
    assert visits == []


def test_normal_subloop_never_trusts_its_candidates():
    # keys that no verified translation gives, one class and every x merged
    # with x * 4, forced into the loop's cache change no answer: D16's
    # twisted loop, the planted loops below and the pinned product-right
    # loop, on all of their subloops
    tags = Counter()
    for M in (_gyro("dihedral:16").loop, _planted_normal("a"), _planted_normal("a'"),
              loop_from_table(PRODUCT_RIGHT_12)):
        n = M.order
        subloops = sorted({subloop_generated(M, {a, b}) for a in range(n) for b in range(a, n)},
                          key=sorted)
        answers = [normal_subloop_violation(M, S) for S in subloops]
        assert answers == [_ref_normal_subloop_violation(M, S) for S in subloops]
        for key in (np.zeros(n, dtype=M.table.dtype), np.minimum(np.arange(n), M.table[:, 4])):
            M._cache["central"] = ((4,), key)
            assert [normal_subloop_violation(M, S) for S in subloops] == answers
        tags.update(w[0] if w else "normal" for w in answers)
    assert set(tags) == {"normal", "left-right-coset", "product-left", "product-right"}, tags


def test_normal_subloop_raises_when_the_two_readings_disagree(monkeypatch):
    # a congruence test that refused a normal subloop would contradict the
    # product tests, which find no witness
    def refuse(T, lst):
        raise NotWellDefined((0, 0))
    monkeypatch.setattr(loops, "_coset_congruence", refuse)
    L = _gyro("dihedral:16").loop
    with pytest.raises(InvariantViolated):
        normal_subloop_violation(L, commutant(L))


def _planted_normal(fails):
    """An order-16 loop whose commutant holds c = r^4 (index 4), a
    candidate of its key, and rho = T[:, 4] fails one condition:
      (a) D8 x C2, (q, s) at index 2 q + s, with the C2 coordinate of
          every product of (sr2, s) by (sr, s') and by (sr3, s') flipped
          (the flip reads only the D8 coordinates, so the table stays a
          loop): rho passes (a') and fails (a);
      (a') D16's twisted loop with the intercalates at rows 1, 8 and at
          their images 5, 12 under rho, both in columns 2, 13, switched:
          rho passes (a) and fails (a')."""
    if fails == "a":
        Q = catalog_group("dihedral:8").table.astype(np.int64)
        f = np.zeros((8, 8), dtype=np.int64)
        f[6, [5, 7]] = 1
        T = (2 * Q[:, None, :, None] + (np.add.outer(np.arange(2), np.arange(2))[None, :, None, :]
                                       + f[:, None, :, None]) % 2).reshape(16, 16)
    else:
        T = _gyro("dihedral:16").loop.table.astype(np.int64)
        for r1, r2 in ((1, 8), (5, 12)):
            T[[r1, r1, r2, r2], [2, 13, 2, 13]] = T[[r1, r1, r2, r2], [13, 2, 13, 2]]
    return loop_from_table(T)


@pytest.mark.parametrize("fails, N, witness", [("a", [0, 2, 4, 6], ("product-left", 12, 8)),
                                                ("a'", [0, 4], ("product-left", 1, 2))])
def test_normal_subloop_refuses_a_translation_that_fails_one_condition(fails, N, witness):
    # c fails the named condition alone.  The cosets of N form no
    # congruence, so the product-left scan visits every x up to its
    # witness.  Merging x with x c would change the answer in (a): slab
    # 8 = 12 c passes, and the first product-left failure is at 12.  The
    # scan reads no key, so a merged key forced into the cache changes
    # nothing
    L = _planted_normal(fails)
    assert 4 in _commuting(L)
    conditions = (fails != "a", fails != "a'")
    assert [_conditions(L, c) for c in (0, 4)] == [(True, True), conditions]
    with pytest.raises(NotWellDefined):
        quotient_loop(L, N)
    with pytest.MonkeyPatch.context() as mp:
        visits = _visits(mp)
        assert normal_subloop_violation(L, N) == witness
    assert visits == list(range(witness[1] + 1))
    assert "central" not in L._cache
    assert witness == _ref_normal_subloop_violation(L, N)
    M = _planted_normal(fails)
    M._cache["central"] = ((4,), np.minimum(np.arange(16), M.table[:, 4]))
    assert normal_subloop_violation(M, N) == witness


# ---------------------------------------------------------------------------
# the group key: translations rho = G.table[:, c] by c in Z(G) that pass (a)
# and (a') on the group table and leave the rows (r) and columns (c) of the
# commutator table unchanged; the ninth-power identity reads the cube R^3 of
# the least elements of its classes, and the expansions read no key

def _group_conditions(G, c):
    """Whether rho = G.table[:, c] passes (a) T[rho p, z] = rho T[p, z],
    (a') T[p, rho z] = rho T[p, z], (r) cm[rho x, w] = cm[x, w] and (c)
    cm[w, rho x] = cm[w, x], each by one whole-table gather."""
    T, cm = G.table, G.commutator_table()
    rho = T[:, c]
    return (np.array_equal(T[rho, :], rho[T]), np.array_equal(T[:, rho], rho[T]),
            np.array_equal(cm[rho, :], cm), np.array_equal(cm[:, rho], cm))


def _ref_group_key(G):
    """Each x's least image under the compositions of the translations by
    Z(G) that pass all four conditions, each candidate tested."""
    return _closed_key([G.table[:, c] for c in group_center(G) if all(_group_conditions(G, c))],
                       G.order)


def _group_scans(G):
    return _expansions(G) + (nine_identity(G),)


@pytest.mark.parametrize("spec, cosets, nine", [
    ("product:wreath33,cyclic:4", 27, None),
    ("product:dihedral:16,cyclic:5", 8, (5, 40, 40)),
    ("unitriangular4:3", 243, None)])
def test_group_scans_read_one_cube_per_coset_of_the_center(spec, cosets, nine):
    # every c of Z(G) passes, so R holds the least element of each coset of
    # Z(G), and the ninth-power identity visits every position of R when it
    # passes; D16 x C5 fails it (as test_group_scans_match_reference pins
    # against the reference) in the slab of x = 5, position 1 of R.  The
    # expansions read the group verdict and visit none
    G = catalog_group(spec)
    cs, key = group_translations(G)
    assert np.array_equal(key, _ref_group_key(G))
    R = np.flatnonzero(key == np.arange(G.order))
    assert len(R) == cosets == G.order // len(group_center(G))
    with pytest.MonkeyPatch.context() as mp:
        visits = _visits(mp)
        assert _group_scans(G) == (None, None, (nine is None, nine))
    last = cosets if nine is None else R.tolist().index(nine[0]) + 1
    assert visits == list(range(last))


def _planted_group(fails):
    """A copy of D16, whose center {e, c} with c = r^4 (index 4) gives the
    one candidate, with rho = T[:, 4] failing one condition:
      (a), (a') the intercalate at rows 1, 8 and columns 2, 11 switched,
          and with it the one at its image under rho, columns 6, 15 for
          (a) and rows 5, 12 for (a');
      (r), (c) D16's table with [e, 1] = [e, 5] = 1, or [1, e] = [5, e] = 1,
          in the commutator table.
    The commutator table is D16's in the first two, so (r) and (c) hold.  In
    the last two the table is D16's own, a group, and the planted
    commutator table is not its own, so only nine_identity reads it."""
    D = catalog_group("dihedral:16")
    T, cm = D.table.copy(), D.commutator_table().copy()
    if fails in ("a", "a'"):
        image = (1, 8, 6, 15) if fails == "a" else (5, 12, 2, 11)
        for r1, r2, c1, c2 in ((1, 8, 2, 11), image):
            T[[r1, r1, r2, r2], [c1, c2, c1, c2]] = T[[r1, r1, r2, r2], [c2, c1, c2, c1]]
    elif fails == "r":
        cm[0, [1, 5]] = 1
    else:
        cm[[1, 5], 0] = 1
    G = FiniteGroup(T, D.names, D.inverse.copy())
    G._cache["cm"] = cm
    return G


@pytest.mark.parametrize("fails, witnesses", [
    ("a", ((1, 2, 1), (1, 1, 2), (False, (1, 8, 8)))),
    ("a'", ((1, 2, 1), (1, 1, 2), (False, (1, 8, 8)))),
    ("r", (None, None, (False, (0, 1, 8)))),
    ("c", (None, None, (False, (1, 0, 1))))])
def test_group_key_refuses_a_translation_that_fails_one_condition(fails, witnesses):
    # c fails the named condition alone, so it is refused, the key is
    # trivial and the cube is all of G^3; the ninth-power identity still
    # gives the reference's witness.  The expansions give theirs on the
    # planted tables, which are no group, and pass on D16's own table
    G = _planted_group(fails)
    assert sorted(group_center(G)) == [0, 4]
    assert _group_conditions(G, 4) == tuple(k != fails for k in ("a", "a'", "r", "c"))
    cs, key = group_translations(G)
    assert cs == () and np.array_equal(key, np.arange(16))
    assert _group_scans(G) == witnesses
    assert witnesses[2] == _ref_nine_identity(G)
    assert groups.is_group_table(G) == (fails in ("r", "c"))
    if fails in ("a", "a'"):
        assert witnesses[:2] == (_ref_expansion_left(G), _ref_expansion_right(G))


def test_translations_allocate_nothing_when_no_candidate_needs_a_test():
    # dihedral:326: Z(G) = {e}, and e is in the class of 0, so no candidate
    # is tested, and neither the intp copy of the table nor the three n x n
    # buffers (13 n^2 bytes together, about 1.4 MB here) are made
    G = catalog_group("dihedral:326")
    n, cm = G.order, G.commutator_table()
    center = sorted(group_center(G))
    assert center == [0]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cs, key = groups.verify_translations(G.table, center, cm)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert cs == () and np.array_equal(key, np.arange(n))
    assert peak < n * np.dtype(np.intp).itemsize + 16 * 1024 < n * n, peak


def test_group_scans_allocate_only_their_cube_buffers():
    # wreath33 x C4: |R| = 27 of n = 324.  The cube's tables (commutators
    # and their classes) and the ninth-power scan's slab buffers are
    # |R| x |R| arrays, with intp offsets, and the expansions, on a group,
    # allocate none; any n x n array per call, even a bool mask (about
    # 103 KiB here), raises the traced peak of a warm call past them and
    # the slack
    ctx = SuiteContext(catalog_group("product:wreath33,cyclic:4"))
    G, n = ctx.G, ctx.n
    m = int((group_translations(G)[1] == np.arange(n)).sum())
    assert (n, m) == (324, 27)
    intp, item = np.dtype(np.intp).itemsize, ctx.cm.itemsize
    buffers = m * m * (2 * intp + 6 * item + 2)
    runs = {"left": lambda: checks._check_commutator_expansion_left(ctx)[0],
            "right": lambda: checks._check_commutator_expansion_right(ctx)[0],
            "nine": lambda: nine_identity(G)[1]}
    for name, run in runs.items():
        run()                                 # fills Python's free lists
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert run() is None
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < buffers + 32 * 1024 < n * n, (name, peak, buffers)


# ---------------------------------------------------------------------------
# laws of every group: the two expansions and the cocycle identity of
# factor_set compute no slab on a table that is_group_table certifies, and
# scan every x of any other

def _factor_set_witness(G, T, ref):
    """factor_set(G, T) with its cocycle scan watched: (witness, scanned),
    the witness that of NotACocycle, else None.  It must equal ref on the
    factor set of the values factor_set computed."""
    seen, scan = [], cocycle.cocycle_violation
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cocycle, "cocycle_violation", lambda f: seen.append(f) or scan(f))
        try:
            fs, w = cocycle.factor_set(G, T), None
        except NotACocycle as exc:
            (fs,), w = seen, exc.witness
    assert w == ref(fs)
    return w, bool(seen)


@pytest.mark.parametrize("spec", LADDER_324 + ["unitriangular4:3"])
def test_group_laws_compute_no_slab_on_a_group(spec, ref_cocycle_violation):
    # the expansions are identities of the free group (tests/test_laws.py),
    # and the cocycle identity follows from associativity in G and in
    # G/Z(G) with central values, so on a group neither computes a slab
    G = catalog_group(spec)
    T = cocycle.make_transversal(G, group_center(G))
    with pytest.MonkeyPatch.context() as mp:
        visits = _visits(mp)
        assert _expansions(G) == (None, None)
        assert _factor_set_witness(G, T, ref_cocycle_violation) == (None, False)
    assert visits == []


def test_factor_set_gives_the_reference_witness_on_other_inputs(ref_cocycle_violation):
    # the wrapped twisted tables of the failing-report pins and seeded
    # random loop tables wrapped as "groups" with their right inverses,
    # refused by the group verdict, and D16 over its normal subgroups with
    # every least coset representative, where a non-central one, such as
    # <r2>, fails the centrality test: the cocycle scan gives the
    # reference's witness.  The expansions' witnesses on the same tables
    # are pinned by test_group_scans_match_reference and its random sweep
    D = catalog_group("dihedral:16")
    inputs = []
    for N in sorted({groups.subgroup_generated(D, {a}) for a in range(16)}, key=sorted):
        try:
            Q, proj = groups.quotient_group(D, N)
        except GyrolabError:
            continue
        reps = np.unique(proj, return_index=True)[1].astype(D.table.dtype)
        inputs.append((D, cocycle.Transversal(D, tuple(sorted(N)), Q, proj, reps)))
    tables = [_wrapped(_gyro(spec)) for spec in WRAPPED_PINS]
    rng = np.random.default_rng(2)
    for _ in range(120):
        n = int(rng.integers(2, 11))
        L = _random_loop(n, rng.integers(0, 1 << 30, size=int(rng.integers(1, 6))))
        tables.append(_as_group(L.table))
    for H in tables:
        try:
            inputs.append((H, cocycle.make_transversal(H, group_center(H))))
        except GyrolabError:
            pass
    outcomes, r2 = Counter(), None
    for G, T in inputs:
        w, scanned = _factor_set_witness(G, T, ref_cocycle_violation)
        outcomes[scanned, w is None] += 1
        if G is D and T.center == (0, 2, 4, 6):
            r2 = w, scanned
    assert r2 == ((2, 1, 1), True)
    assert set(outcomes) == {(True, True), (True, False), (False, True)}, outcomes
