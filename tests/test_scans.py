"""The row-local cubic scans against the 2-D-gather bodies they replaced.

Each _ref_* function below is the earlier kernel, kept as the reference:
per-element nuclei, the associator scan, both commutator expansions, the
ninth-power identity, the group-table associativity scan, the sort-based
subloop normality test and the dict relabel of a nucleus's induced product.  Verdicts and witnesses must be equal, on passing
inputs and on failing ones: twisted tables wrapped as (non-associative)
"groups", a class-4 source, and random loops.
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
    loop_center,
    loop_nilpotency_class,
    nine_identity,
    nucleus,
    subloop_generated,
)
import gyrolab
from gyrolab import checks
from gyrolab.groups import (
    FiniteGroup,
    _group_unchecked,
    associativity_violation,
    first_violation,
)
from gyrolab.gyro import GyroConstruction
from gyrolab.invariants import NUCLEUS_KINDS, _nucleus_member, nuclei
from gyrolab.loops import loop_from_table, normal_subloop_violation

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
    return tuple(frozenset(a for a in range(L.order) if _nucleus_member(L, a, kind))
                 for kind in NUCLEUS_KINDS)


def _ref_associator_scan(ctx):
    G, L = ctx.G, ctx.loop
    cm, n = ctx.cm, ctx.n
    T, rdiv = L.table, L.right_division
    zmask = ctx.zmask()
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
    return formula_bad, central_bad


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


@pytest.mark.parametrize("spec", SPECS)
def test_nuclei_match_per_element_definition(spec):
    gc = _gyro(spec)
    ref = _ref_nuclei(gc.loop)
    assert nuclei(gc.loop) == ref
    ctx = SuiteContext(gc.source)
    for kind, expected in zip(NUCLEUS_KINDS, ref):
        assert nucleus(gc.loop, kind) == expected
        assert ctx.nuc(kind) == expected
    assert ctx.nuc("full") == nucleus(gc.loop, "full") == ref[0] & ref[1] & ref[2]
    op = _opposite(gc.loop)
    assert nuclei(op) == _ref_nuclei(op) == (ref[2], ref[1], ref[0])


@pytest.mark.parametrize("spec", SPECS)
def test_associator_scan_matches_reference(spec):
    ctx = SuiteContext(_gyro(spec).source)
    assert ctx.associator_scan() == _ref_associator_scan(ctx)


def test_associator_scan_class_four_witnesses():
    ctx = SuiteContext(_gyro("dihedral:32").source)
    assert ctx.associator_scan() == ((16, 1, 16), (16, 1, 16))


def test_associator_scan_stops_computing_a_mask_once_it_has_a_witness(monkeypatch):
    # wreath33xC4's twisted table as a "group": the formula fails at x = 4,
    # and no associator is non-central, so the central mask runs for every x
    ctx = SuiteContext(_wrapped(_gyro("product:wreath33,cyclic:4")))
    computed = []
    scan = checks.first_violations

    def counting(n, count, slab):
        def counted(x, open_):
            masks = slab(x, open_)
            computed.append(tuple(m is not None for m in masks))
            return masks
        return scan(n, count, counted)
    monkeypatch.setattr(checks, "first_violations", counting)
    formula, central = ctx.associator_scan()
    assert (formula, central) == _ref_associator_scan(ctx)
    assert formula[0] == 4 and central is None
    assert len(computed) == ctx.n
    assert sum(f for f, _ in computed) == formula[0] + 1
    assert all(c for _, c in computed)


def _expansions(G):
    ctx = SuiteContext(G)
    return (checks._check_commutator_expansion_left(ctx).witness,
            checks._check_commutator_expansion_right(ctx).witness)


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
])
def test_wrapped_twisted_tables_fail_the_group_laws(spec, left, right, nine):
    # the expansions are group laws, so on a non-associative table they fail
    H = _wrapped(_gyro(spec))
    assert _expansions(H) == (left, right)
    assert nine_identity(H) == (nine is None, nine)


@pytest.mark.parametrize("spec", SPECS)
def test_normal_subloop_matches_reference_on_catalog_loops(spec):
    L = _gyro(spec).loop
    subloops = {subloop_generated(L, {a}) for a in range(L.order)}
    subloops |= set(nuclei(L)) | {commutant(L)}
    for M in (L, _opposite(L)):
        for S in sorted(subloops, key=sorted):
            assert normal_subloop_violation(M, S) == _ref_normal_subloop_violation(M, S)


@pytest.mark.parametrize("spec", SPECS)
def test_induced_op_matches_reference(spec):
    # subloops (closed; associative or not) and seeded subsets that do not
    # close, in the twisted loop and its opposite
    L = _gyro(spec).loop
    rng = np.random.default_rng(4)
    sets = {subloop_generated(L, {a, b}) for a in range(0, L.order, 3) for b in range(a, L.order, 5)}
    sets |= {frozenset({0, *rng.choice(L.order, size=k).tolist()}) for k in (1, 2, 3, 5, 8)}
    sets |= set(nuclei(L)) | {commutant(L), frozenset(range(L.order))}
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


def test_product_right_fixture():
    L = loop_from_table(PRODUCT_RIGHT_12)
    assert subloop_generated(L, {6}) == {0, 6}
    assert normal_subloop_violation(L, {0, 6}) == ("product-right", 1, 2)
    assert _ref_normal_subloop_violation(L, {0, 6}) == ("product-right", 1, 2)


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


@given(n=st.integers(min_value=1, max_value=10),
       choices=st.lists(st.integers(min_value=0, max_value=10_000), max_size=5))
def test_nuclei_property_on_random_loops(n, choices):
    L = _random_loop(n, choices)
    ref = _ref_nuclei(L)
    assert nuclei(L) == ref
    assert nucleus(L, "full") == ref[0] & ref[1] & ref[2]
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
    for _ in range(4):
        Q = _random_loop(8, rng.integers(0, 1 << 30, size=3))
        if associativity_violation(Q.table) is None:
            continue
        L = loop_from_table(_late_failing_table(m, Q.table))
        n = L.order
        H = FiniteGroup(L.table.copy(), [str(i) for i in range(n)],
                        np.argmax(L.table == 0, axis=1).astype(np.int32))
        w = associativity_violation(L.table)
        assert w == _ref_associativity_violation(L.table) and w[0] >= m
        assert nuclei(L) == _ref_nuclei(L)
        left, right = _expansions(H)
        assert (left, right) == (_ref_expansion_left(H), _ref_expansion_right(H))
        assert nine_identity(H) == _ref_nine_identity(H)
        ctx = SuiteContext(H)
        ctx._cache["gyro"] = GyroConstruction(H, L, None)
        formula, central = ctx.associator_scan()
        assert (formula, central) == _ref_associator_scan(ctx)
        for witness in (left, right, formula, central):
            assert witness is None or witness[0] >= m


def test_nuclei_and_associativity_past_uint16_cells():
    # n = 324: n * n = 104,976 cells, past what a uint16 offset holds
    L = _gyro("product:wreath33,cyclic:4").loop
    assert L.order ** 2 > np.iinfo(np.uint16).max
    for M in (L, _opposite(L)):
        assert nuclei(M) == _ref_nuclei(M)
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
from gyrolab import catalog_group
from gyrolab.groups import associativity_violation
T = catalog_group("product:wreath33,cyclic:4").table
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert associativity_violation(T) is None
print(len(T), resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt counts minor faults on Linux")
def test_associativity_scan_does_not_fault_per_slab():
    # a fresh interpreter, so that the count does not depend on what earlier
    # tests left in the allocator; fresh n x n temporaries for every slab
    # fault about 380 pages per x at n = 324, one set of buffers about none
    pytest.importorskip("resource")
    src = str(Path(gyrolab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    n, faults = map(int, out.split())
    assert faults < 20 * n, faults


def test_associativity_scan_allocates_its_buffers_once():
    # The scan's buffers are an intp copy of T, two value slabs and a mask;
    # a fresh n x n array for every x (about 410 KiB here) raises the traced
    # peak past them, which the fault count above cannot see: the allocator
    # hands the freed slab back on the next x
    T = catalog_group("product:wreath33,cyclic:4").table
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


# ---------------------------------------------------------------------------
# the right expansion read through the values of [x, z]

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
    # table [x, z] takes all n values for every x and the n x m tables are
    # n x n
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
    # dihedral:326: [x, z] takes n/2 = 163 values for each reflection x.
    # The scan's buffers are an intp copy of T, two value slabs, a mask and
    # the two n x m tables at the largest m; a fresh n x n value slab for
    # every x (about 415 KiB here) raises the traced peak past them.  Minor
    # faults do not show it: the allocator hands the freed slab back
    ctx = SuiteContext(catalog_group("dihedral:326"))
    n, cm = ctx.n, ctx.cm
    m = max(len(np.unique(row)) for row in cm)
    assert m == n // 2
    intp, item = np.dtype(np.intp).itemsize, cm.itemsize
    buffers = n * n * (intp + 2 * item + 1) + n * m * (intp + item)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert checks._check_commutator_expansion_right(ctx).status == "pass"
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < buffers + 256 * 1024, (peak, buffers)


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
