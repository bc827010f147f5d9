"""Instance verification suite: every structural statement the package knows
about the twisted loop of a nilpotent group, checked exhaustively on one group.

Each check scans all relevant tuples (a pass never short-circuits) and
produces the lexicographically least witness on failure.  A check is one
body registered by _check(check_id, short, statement, needs): the body takes
the SuiteContext and returns (witness, details), where a witness of None
means pass.  verify_suite turns that pair into the CheckReport.  Every check
needs a group of class at most 3; needs names any further hypotheses by
their skip reason, tested in the order given, and a group outside one gets
status "skipped" with the first reason that fails.
"""

from __future__ import annotations

import time

import numpy as np

from .cocycle import (
    build_gyro_extension,
    factor_set,
    gyro_factor_set,
    make_transversal,
    verify_extension_isomorphism,
)
from .errors import NotACocycle, NotASubloop, NotWellDefined
from .groups import (
    FiniteGroup,
    _cached,
    _least_reached,
    _mark,
    associativity_violation,
    first_cell,
    first_violation,
    group_center,
    group_exponent,
    group_translations,
    index_table,
    is_subgroup,
    is_two_engel,
    latin_violation,
    nilpotency_class,
    normality_violation,
    pair_slabs,
    quotient_group,
    subgroup_as_group,
    subgroup_violation,
)
from .gyro import GYRO_AXIOMS_STATEMENT, build_gyro, is_gyrogroup
from .invariants import (
    NUCLEUS_KINDS,
    commutant,
    commutator_bracket_table,
    loop_center,
    loop_nilpotency_class,
)
from .loops import (
    FiniteLoop,
    central_translations,
    normal_subloop_violation,
    quotient_loop,
    subloop_violation,
)
from .mappings import is_inner_abelian
from .perms import RowIndex
from .report import CheckReport

# stable skip reasons
R_CLASS = "group-not-nilpotent-of-class-at-most-3"
R_THREE = "hypothesis-needs-order-coprime-to-3"
R_CLASS3 = "group-class-not-3"
R_ENGEL = "group-not-2-engel"
R_EXP3 = "group-exponent-not-3"

# whether a group meets the hypothesis that each skip reason names
_HOLDS = {
    R_CLASS: lambda ctx: ctx.cls is not None and ctx.cls <= 3,
    R_CLASS3: lambda ctx: ctx.cls == 3,
    R_THREE: lambda ctx: ctx.n % 3 != 0,
    R_ENGEL: lambda ctx: is_two_engel(ctx.G)[0],
    R_EXP3: lambda ctx: group_exponent(ctx.G) == 3,
}


def _cube_criterion(G: FiniteGroup, C: frozenset[int]) -> tuple[bool, tuple[int, int] | None]:
    """Whether every [x,y]^3 lies in C, the commutant of the twisted loop,
    with the least failing (x, y) when not."""
    cubes = G.power_array(3)[G.commutator_table()]
    w = first_cell(~_mark(G.order, C)[cubes])
    return w is None, w


def _cube_violation(key: np.ndarray, table: np.ndarray, make_slab, products=None):
    """The least failing triple, as elements, of the scan make_slab(t, tc,
    pc) over R^3, R the least elements of the classes of a verified key.
    On R x R, t are the values of table, tc their classes and pc those of
    products (None when not given), as positions in R.  The key's maps leave
    the mask unchanged on every axis, so the least failing triple lies in
    R^3.  The group key keeps the group-side scans on G's commutator table,
    where (r) and (c) give cm[u, v] from the classes.  The loop key keeps
    the associativity of the bracket B(x, y) = (x*y) / (y*x): a kept rho
    passes (a) and (a'), so (rho x)*y = rho(x*y), y*(rho x) = rho(y*x) and
    (rho u) / (rho v) = u / v, hence B(rho x, y) = B(x, rho y) = B(x, y)."""
    n = len(table)
    R = np.flatnonzero(key == np.arange(n))
    if len(R) == n:
        tables = table, table, products
    else:
        pos = np.zeros(n, dtype=table.dtype)
        pos[R] = np.arange(len(R))
        cls, tR = pos[key], table[np.ix_(R, R)]
        tables = tR, cls[tR], None if products is None else cls[products[np.ix_(R, R)]]
    w = first_violation(len(R), make_slab(*tables))
    return None if w is None else tuple(int(R[i]) for i in w)


def nine_identity(G: FiniteGroup) -> tuple[bool, tuple[int, int, int] | None]:
    """Whether [[x,y],z]^9 == [x,[y,z]]^9 for all triples, with the least
    failing (x, y, z) when not."""
    # values [a, b]^9 read through the classes of [a, b]
    w = _cube_violation(group_translations(G)[1], G.commutator_table(),
                        lambda cm, cmc, _: pair_slabs(G.power_array(9)[cm], cmc))
    return w is None, w


# ---------------------------------------------------------------------------
# characterization sets (group-identity side of the nucleus cross-checks)

def charset_left_nucleus(G: FiniteGroup) -> frozenset[int]:
    """{a : [a, [x, y^-1]] = e for all x, y}."""
    cm = G.commutator_table()
    K = np.flatnonzero(_mark(G.order, cm[:, G.inverse].ravel()))
    rows_ok = (cm[:, K] == 0).all(axis=1)
    return frozenset(int(i) for i in np.flatnonzero(rows_ok))


def charset_middle_nucleus(G: FiniteGroup) -> frozenset[int]:
    """{a : [x, [a, y^-1]] = e for all x, y}."""
    cm = G.commutator_table()
    central = (cm == 0).all(axis=0)          # central[c] iff [x, c] = e for all x
    ok = central[cm[:, G.inverse]].all(axis=1)
    return frozenset(int(i) for i in np.flatnonzero(ok))


def charset_right_nucleus(G: FiniteGroup) -> frozenset[int]:
    """{a : [x, [y, a^-1]] = e for all x, y}."""
    cm = G.commutator_table()
    central = (cm == 0).all(axis=0)
    ok = central[cm[:, G.inverse]].all(axis=0)
    return frozenset(int(i) for i in np.flatnonzero(ok))


def charset_commutant(G: FiniteGroup) -> frozenset[int]:
    """{a : (a x)^3 = a^3 x^3 for all x}."""
    cube = G.power_array(3)
    return frozenset(a for a in range(G.order)
                     if np.array_equal(cube[G.table[a]], G.table[int(cube[a]), cube]))


def _associator_key(T: np.ndarray, cm: np.ndarray, inv: np.ndarray, cs) -> np.ndarray:
    """The associator scan's key: each x's least image under compositions
    of the kept rho = T[:, c], c in cs.  (a) and (a') leave A(x, y, z), the
    central mask and the nuclei unchanged when one of x, y, z moves by rho.
    The expected cm[[z^-1, y], x], on the rows W of cm's values, is kept by
      x: cm[w, rho x] = cm[w, x] for w in W;
      y: the rows of cm at [w, rho y] and [w, y] agree;
      z: the rows of cm at [(rho z)^-1, y] and [z^-1, y] agree
    (rows compared by a RowIndex label).  Each makes a function of one axis
    rho-invariant, which compositions keep, so every mask's least witness
    lies in R^3.  A refused rho only makes the key finer."""
    n = len(T)
    cmW = cm[_mark(n, cm.ravel())]
    lab = RowIndex(n, cm.dtype).add(cm).astype(cm.dtype)[cm]      # [w, y] -> row label
    return _least_reached([rho for rho in (T[:, c] for c in cs)
                           if np.array_equal(np.take(cmW, rho, axis=1), cmW)
                           and np.array_equal(np.take(lab, rho, axis=1), lab)
                           and np.array_equal(lab[inv[rho[inv]]], lab)], n)


# ---------------------------------------------------------------------------
# suite context: shared cached computations

# the refusals that a per-set result keeps and raises again
_REFUSED = (NotASubloop, NotWellDefined)


class SuiteContext:
    """What the checks of one suite share.  Values of the group or the loop
    alone (Z(G), the commutant, the nuclei, the keys, the congruences) are
    cached on those; the rest goes through groups._cached into _cache,
    which holds the loop under "gyro".  The nuclei, the commutant and the
    loop center are often the same set, so a set-level result is keyed by
    (operation, frozenset) and computed once however many kinds share it."""

    def __init__(self, G: FiniteGroup):
        self.G = G
        self.n = G.order
        self._cache: dict = {}

    def normal_subloop(self, S):
        """normal_subloop_violation(loop, S), decided by quotient(S)'s test."""
        return _cached(self, ("normal-subloop", frozenset(S)),
                       lambda: normal_subloop_violation(self.loop, S), _REFUSED)

    def quotient(self, S) -> tuple[FiniteLoop, np.ndarray]:
        """quotient_loop(loop, S)."""
        return _cached(self, ("quotient", frozenset(S)),
                       lambda: quotient_loop(self.loop, S), _REFUSED)

    def quotient_associativity(self, S):
        """The associativity witness of the table of loop/S, None when
        associative; raises as quotient(S) does."""
        return _cached(self, ("quotient-assoc", frozenset(S)), lambda: (
            associativity_violation(self.quotient(S)[0].table)), _REFUSED)

    def group_normality(self, S):
        """normality_violation(G, S)."""
        return _cached(self, ("group-normal", frozenset(S)),
                       lambda: normality_violation(self.G, sorted(S)), _REFUSED)

    def subgroup_class(self, S):
        """The nilpotency class of S as a subgroup of G."""
        return _cached(self, ("subgroup-class", frozenset(S)),
                       lambda: nilpotency_class(subgroup_as_group(self.G, S)[0]), _REFUSED)

    def induced_associativity(self, S):
        """_induced_violation(loop table, S)."""
        return _cached(self, ("induced-assoc", frozenset(S)),
                       lambda: _induced_violation(self.loop.table, S), _REFUSED)

    @property
    def cls(self):
        return _cached(self, "cls", lambda: nilpotency_class(self.G))

    @property
    def loop(self) -> FiniteLoop:
        return _cached(self, "gyro", lambda: build_gyro(self.G)).loop

    @property
    def cm(self):
        return self.G.commutator_table()

    @property
    def zg(self):
        return group_center(self.G)

    @property
    def com(self):
        return commutant(self.loop)

    def nuc(self, kind: str):
        """A nucleus of the loop by definition, reduced from the associators
        of associator_scan: the brute-force oracle that the char-*-nucleus
        and loop-center-intersection checks hold the group side and the
        gyration reading against."""
        if kind == "full":
            return self.nuc("left") & self.nuc("middle") & self.nuc("right")
        return self.associator_scan()[2][NUCLEUS_KINDS.index(kind)]

    @property
    def zl(self):
        return loop_center(self.loop)

    @property
    def loop_class(self):
        return _cached(self, "lc", lambda: loop_nilpotency_class(self.loop))

    @property
    def bracket(self):
        return _cached(self, "bracket", lambda: commutator_bracket_table(self.loop))

    @property
    def bracket_violation(self):
        """The bracket's least non-associative triple, read on the loop key's cube."""
        return _cached(self, "bracket-assoc", lambda: _cube_violation(
            central_translations(self.loop)[1], self.bracket,
            lambda B, Bc, _: pair_slabs(B, Bc)))

    def names_for(self, witness):
        out = []
        for w in witness:
            if isinstance(w, (int, np.integer)) and 0 <= int(w) < self.n:
                out.append(self.G.names[int(w)])
            else:
                out.append(str(w))
        return tuple(out)

    def associator_scan(self):
        """One pass over the cube R^3 of the associator key: the first
        formula violation, the first non-central associator (None when
        absent) and the left, middle and right nuclei.  The pass visits
        every x of R, which holds the least element of each class of
        _associator_key, since the nuclei reduce over all of them; once a
        mask has its witness, later x skip it.  The slab of x reads R x R,
        into buffers allocated once per scan."""
        def run():
            L, cm, n = self.loop, self.cm, self.n
            T, inv = L.table, self.G.inverse
            key = _associator_key(T, cm, inv, central_translations(L)[0])
            R = np.flatnonzero(key == np.arange(n))
            m = len(R)
            Tf, rdiv = T.ravel(), L.right_division.ravel()
            yz = index_table(T[np.ix_(R, R)], n)                  # y*z at [y, z]
            K = index_table(cm[np.ix_(inv[R], R)].T, n)           # [z^-1, y] at [y, z]
            noncentral = ~_mark(n, self.zg)
            off = np.empty((m, m), dtype=np.intp)
            u = np.empty((m, m), dtype=T.dtype)                   # (x*y)*z, x*(y*z)
            vals = np.empty((m, m), dtype=rdiv.dtype)             # A
            expected = np.empty((m, m), dtype=cm.dtype)
            formula_bad = np.empty((m, m), dtype=bool)            # A != 0 first
            central_bad = np.empty((m, m), dtype=bool)
            left = np.zeros(n, dtype=bool)
            middle, right = np.ones((2, n), dtype=bool)
            formula = central = None

            def witness(x, mask):
                cell = first_cell(mask)
                return None if cell is None else (x, int(R[cell[0]]), int(R[cell[1]]))
            for x in R.tolist():
                # A(x, y, z) = ((x*y)*z) / (x*(y*z)) is read from the right
                # division at the offset ((x*y)*z)*n + x*(y*z), with (x*y)*z
                # read from T at (x*y)*n + z.  Right division is unique, so A
                # is the identity 0 exactly when the triple associates: x is
                # in the left nucleus when no cell of the slab fails, y in
                # the middle one when its row holds for every x, z in the
                # right one when its column does
                np.multiply(T[x, R][:, None], n, out=off, dtype=np.intp)
                np.add(off, R, out=off)
                np.multiply(np.take(Tf, off, out=u, mode="clip"), n, out=off, dtype=np.intp)
                np.add(off, np.take(T[x], yz, out=u, mode="clip"), out=off)
                np.take(rdiv, off, out=vals, mode="clip")
                nonassoc = np.not_equal(vals, 0, out=formula_bad)
                rows = nonassoc.any(axis=1)
                left[x] = not rows.any()
                middle[R[rows]] = False
                right[R[nonassoc.any(axis=0)]] = False
                if formula is None:
                    np.take(cm[:, x], K, out=expected, mode="clip")   # [[z^-1, y], x]
                    formula = witness(x, np.not_equal(vals, expected, out=formula_bad))
                if central is None:
                    central = witness(x, np.take(noncentral, vals, out=central_bad, mode="clip"))
            return formula, central, tuple(frozenset(int(i) for i in np.flatnonzero(mask[key]))
                                           for mask in (left, middle, right))
        return _cached(self, "assoc-scan", run)


# ---------------------------------------------------------------------------
# the checks, registered in report order

_REGISTRY: list[tuple[str, str, str, tuple[str, ...], object]] = []


def _check(check_id: str, short: str, statement: str, needs: tuple[str, ...] = ()):
    """Register the decorated body as check check_id.  A skipped report reads
    short as its statement; a pass or a fail reads statement."""
    def register(body):
        _REGISTRY.append((check_id, short, statement, needs, body))
        return body
    return register


def _set_mismatch_witness(A: frozenset, B: frozenset) -> tuple:
    return (min(A.symmetric_difference(B)),)


def _same_set(brute: frozenset, char: frozenset):
    """A set computed two ways: pass with its size, or fail at the least
    element of one only."""
    if brute != char:
        return _set_mismatch_witness(brute, char), None
    return None, {"size": len(brute)}


@_check("twisted-table-is-loop", "loop validity",
        "the twisted table is a loop (two-sided identity, both divisions)")
def _check_loop_valid(ctx):
    # the columns of a twisted table are permutations, so the first line
    # that fails is the first row that is not one
    if ctx.loop.is_loop:
        return None, None
    return (latin_violation(ctx.loop.table)[1],), None


@_check("gyro-axioms", "gyrogroup axioms", GYRO_AXIOMS_STATEMENT)
def _check_gyro_axioms(ctx):
    rep = is_gyrogroup(ctx.loop, source=ctx.G)
    return rep.witness, rep.details


@_check("commutant-subloop", "commutant subloop",
        "the commutant of the twisted loop is a subloop")
def _check_commutant_subloop(ctx):
    return subloop_violation(ctx.loop, ctx.com), None


@_check("commutant-normal-subloop", "commutant normal",
        "the commutant of the twisted loop is a normal subloop")
def _check_commutant_normal(ctx):
    return ctx.normal_subloop(ctx.com), None


@_check("char-left-nucleus", "left nucleus characterization",
        "the left nucleus computed from the loop table equals "
        "{a : [a,[x,y^-1]] = e for all x,y} computed from group commutators")
def _check_char_left(ctx):
    return _same_set(ctx.nuc("left"), charset_left_nucleus(ctx.G))


@_check("char-middle-nucleus", "middle nucleus characterization",
        "the middle nucleus computed from the loop table equals "
        "{a : [x,[a,y^-1]] = e for all x,y} computed from group commutators")
def _check_char_middle(ctx):
    return _same_set(ctx.nuc("middle"), charset_middle_nucleus(ctx.G))


@_check("char-right-nucleus", "right nucleus characterization",
        "the right nucleus computed from the loop table equals "
        "{a : [x,[y,a^-1]] = e for all x,y} computed from group commutators")
def _check_char_right(ctx):
    return _same_set(ctx.nuc("right"), charset_right_nucleus(ctx.G))


@_check("char-commutant", "commutant characterization",
        "the commutant computed from the loop table equals "
        "{a : (a x)^3 = a^3 x^3 for all x} computed in the group")
def _check_char_commutant(ctx):
    return _same_set(ctx.com, charset_commutant(ctx.G))


def _each_nucleus(ctx, violation):
    """Pass when violation(ctx, N) is None for the left, middle, right and
    full nucleus N, in that order; the witness of the first that fails is
    its kind followed by the violation."""
    for kind in ("left", "middle", "right", "full"):
        w = violation(ctx, ctx.nuc(kind))
        if w is not None:
            return (kind,) + w, None
    return None, None


@_check("nuclei-subgroups-of-group", "nuclei are subgroups",
        "each nucleus of the twisted loop is a subgroup of the source group")
def _check_nuclei_subgroups(ctx):
    return _each_nucleus(ctx, lambda ctx, N: subgroup_violation(ctx.G, N))


@_check("nuclei-normal-in-group", "nuclei normal in group",
        "each nucleus of the twisted loop is normal in the source group")
def _check_nuclei_normal_in_group(ctx):
    return _each_nucleus(ctx, SuiteContext.group_normality)


@_check("nuclei-class-at-most-2", "nuclei class <= 2",
        "each nucleus, as a subgroup of the source, has nilpotency class <= 2")
def _check_nuclei_class(ctx):
    def violation(ctx, N):
        c = ctx.subgroup_class(N)
        return None if c is not None and c <= 2 else (str(c),)
    return _each_nucleus(ctx, violation)


@_check("nuclei-induced-op-associative", "nuclei induced groups",
        "the twisted product restricted to each nucleus is associative (a group)")
def _check_nuclei_induced_group(ctx):
    return _each_nucleus(ctx, SuiteContext.induced_associativity)


@_check("nuclei-normal-subloops", "nuclei normal subloops",
        "each nucleus is a normal subloop of the twisted loop")
def _check_nuclei_normal_subloops(ctx):
    return _each_nucleus(ctx, SuiteContext.normal_subloop)


def _induced_violation(T: np.ndarray, S) -> tuple | None:
    """Whether the product of the table T restricted to S is a closed,
    associative operation: ("not-closed", v) with v the least product
    outside S, the least failing triple of S, or None."""
    lst = np.array(sorted(S), dtype=np.intp)
    pos = np.full(len(T), -1, dtype=np.intp)
    pos[lst] = np.arange(len(lst))
    sub = T[np.ix_(lst, lst)]
    local = pos[sub]                                  # the products as positions in lst
    if (local < 0).any():
        return ("not-closed", int(sub[local < 0].min()))
    bad = associativity_violation(local)
    return None if bad is None else tuple(int(lst[i]) for i in bad)


@_check("middle-nucleus-equals-right", "middle = right nucleus",
        "the middle and right nuclei coincide")
def _check_mid_eq_right(ctx):
    M, R = ctx.nuc("middle"), ctx.nuc("right")
    return (_set_mismatch_witness(M, R) if M != R else None), None


@_check("middle-nucleus-in-left", "middle <= left nucleus",
        "the middle nucleus is contained in the left nucleus")
def _check_mid_in_left(ctx):
    diff = ctx.nuc("middle") - ctx.nuc("left")
    return ((min(diff),) if diff else None), None


# The two expansions are laws of every group: they follow from associativity
# alone.  On a table that is a group they cannot fail, so what each scan tests
# is the associativity of the table it is given.

def _expansion_violation(G: FiniteGroup, sides):
    """The least (x, y, z) of the cube where lhs != (a b) c.  sides(x, cm,
    cmc, Tc, row, lhs, val) writes the [y, z] slab of lhs and returns a, b
    and c (at most one in val), with row(index, out) = cm[x, index].  Each
    slab writes into |R| x |R| buffers allocated once per scan, and
    products are read from G's table at the intp offsets u*n + v."""
    Tf, n = G.table.ravel(), G.order

    def make_slab(cm, cmc, Tc):
        m, cmf = len(cm), cm.ravel()
        lhs = np.empty((m, m), dtype=cm.dtype)
        val = np.empty_like(lhs)
        off = np.empty((m, m), dtype=np.intp)
        bad = np.empty((m, m), dtype=bool)

        def take(flat, u, k, v, out):               # flat[u*k + v] into out
            np.multiply(u, k, out=off, dtype=np.intp)
            np.add(off, v, out=off)
            return np.take(flat, off, out=out, mode="clip")

        def slab(x):
            a, b, c = sides(x, cm, cmc, Tc, lambda index, out: take(cmf, x, m, index, out),
                            lhs, val)
            return np.not_equal(lhs, take(Tf, take(Tf, a, n, b, val), n, c, val), out=bad)
        return slab
    return _cube_violation(group_translations(G)[1], G.commutator_table(), make_slab, G.table)


@_check("commutator-expansion-left", "product expansion of [xy,z]",
        "[x y, z] = [x,[y,z]] [y,z] [x,z] for all triples")
def _check_commutator_expansion_left(ctx):
    def sides(x, cm, cmc, Tc, row, lhs, val):
        np.take(cm, Tc[x], axis=0, out=lhs, mode="clip")    # [xy, z]
        return row(cmc, val), cm, cm[x]                     # ([x,[y,z]] [y,z]) [x,z]
    return _expansion_violation(ctx.G, sides), None


@_check("commutator-expansion-right", "product expansion of [x,yz]",
        "[x, y z] = [x,y] [y,[x,z]] [x,z] for all triples")
def _check_commutator_expansion_right(ctx):
    def sides(x, cm, cmc, Tc, row, lhs, val):
        row(Tc, lhs)                                        # [x, yz]
        np.take(cm, cmc[x], axis=1, out=val, mode="clip")   # [y,[x,z]]
        return cm[x][:, None], val, cm[x]                   # ([x,y] [y,[x,z]]) [x,z]
    return _expansion_violation(ctx.G, sides), None


@_check("commutant-element-identities", "commutant element identities",
        "for a in the commutant and any x: [[a,x],x] = [[a,x],a] = e; "
        "[x^-1,a^-1] = [a,x^-1] = [x,a]; "
        "[x^2,a] = [x,a]^2 = [x,a^2] = [x,a^-1] = [x^-1,a]; "
        "[a,x^3] = [a,x]^3 = [a^3,x] = e")
def _check_commutant_identities(ctx):
    G, cm = ctx.G, ctx.cm
    inv = G.inverse
    sq = G.power_array(2)
    cube = G.power_array(3)
    ar = np.arange(ctx.n)
    for a in sorted(ctx.com):
        row_a = cm[a]                                        # [a, x]
        col_a = cm[:, a]                                     # [x, a]
        ai, a2, a3 = int(inv[a]), int(sq[a]), int(cube[a])
        checks = [
            ("[[a,x],x]=e", cm[row_a, ar] == 0),
            ("[[a,x],a]=e", cm[row_a, a] == 0),
            ("[x^-1,a^-1]=[a,x^-1]", cm[inv, ai] == cm[a, inv]),
            ("[a,x^-1]=[x,a]", cm[a, inv] == col_a),
            ("[x^2,a]=[x,a]^2", cm[sq, a] == sq[col_a]),
            ("[x,a]^2=[x,a^2]", sq[col_a] == cm[:, a2]),
            ("[x,a^2]=[x,a^-1]", cm[:, a2] == cm[:, ai]),
            ("[x,a^-1]=[x^-1,a]", cm[:, ai] == cm[inv, a]),
            ("[a,x^3]=e", row_a[cube] == 0),
            ("[a,x]^3=e", cube[row_a] == 0),
            ("[a^3,x]=e", cm[a3] == 0),
        ]
        for tag, ok in checks:
            if not ok.all():
                return (tag, a) + first_cell(~ok), None
    return None, None


@_check("commutant-cubes-central", "commutant cubes central",
        "cubes of commutant elements lie in the group center")
def _check_commutant_cubes_central(ctx):
    cube = ctx.G.power_array(3)
    for a in sorted(ctx.com):
        if int(cube[a]) not in ctx.zg:
            return (a, int(cube[a])), None
    return None, None


@_check("loop-center-intersection", "center = commutant meet nucleus",
        "the loop center equals the commutant intersected with each of "
        "the left, middle and right nuclei")
def _check_center_intersection(ctx):
    Z = ctx.zl
    for kind in ("left", "middle", "right"):
        other = ctx.com & ctx.nuc(kind)
        if other != Z:
            return (kind,) + _set_mismatch_witness(Z, other), None
    return None, {"center_size": len(Z)}


@_check("commutant-equals-group-center", "commutant = group center (3 coprime)",
        "with order coprime to 3, the commutant, the loop center and the "
        "group center coincide", needs=(R_THREE,))
def _check_commutant_equals_group_center(ctx):
    ZG = ctx.zg
    other = ctx.com if ctx.com != ZG else ctx.zl
    return (_set_mismatch_witness(other, ZG) if other != ZG else None), None


def _quotient_group(ctx, S, abelian=False):
    """Pass when the loop modulo S is a group, and an abelian one when asked."""
    try:
        bad = ctx.quotient_associativity(S)
    except (NotASubloop, NotWellDefined) as exc:
        return exc.witness, None
    if bad is None and abelian:
        Q = ctx.quotient(S)[0].table
        bad = first_cell(Q != Q.T)
    return bad, None


@_check("quotient-by-commutant-group", "loop/commutant is a group",
        "the twisted loop modulo its commutant is a group")
def _check_quotient_by_commutant_group(ctx):
    return _quotient_group(ctx, ctx.com)


@_check("quotient-by-commutant-matches-gyro-of-quotient",
        "loop/commutant = twist of group/commutant",
        "the twisted loop modulo its commutant has the same table as the "
        "twisted loop built on the group modulo the commutant")
def _check_quotient_commutant_matches(ctx):
    C = ctx.com
    if not is_subgroup(ctx.G, C):
        return ("commutant-not-a-subgroup",), None
    w = ctx.group_normality(C)
    if w is not None:
        return ("commutant-not-normal",) + w, None
    circ_of_quotient = build_gyro(quotient_group(ctx.G, C)[0]).loop
    return first_cell(circ_of_quotient.table != ctx.quotient(C)[0].table), None


def _class_equivalence(ctx, k):
    """Pass when the group has class k exactly when the loop has."""
    if (ctx.cls == k) == (ctx.loop_class == k):
        return None, {"group_class": ctx.cls, "loop_class": ctx.loop_class}
    return ("group-class", str(ctx.cls), "loop-class", str(ctx.loop_class)), None


@_check("class2-equivalence", "class-2 equivalence (3 coprime)",
        "with order coprime to 3, the group has class exactly 2 iff the "
        "twisted loop has class exactly 2", needs=(R_THREE,))
def _check_class2_equivalence(ctx):
    return _class_equivalence(ctx, 2)


@_check("class3-equivalence", "class-3 equivalence (3 coprime)",
        "with order coprime to 3, the group has class exactly 3 iff the "
        "twisted loop has class exactly 3", needs=(R_THREE,))
def _check_class3_equivalence(ctx):
    return _class_equivalence(ctx, 3)


@_check("class2-criterion", "cube criterion for loop class <= 2",
        "for a class-3 group, all [x,y]^3 lie in the commutant iff the "
        "twisted loop has class <= 2", needs=(R_CLASS3,))
def _check_class2_criterion(ctx):
    crit, w = _cube_criterion(ctx.G, ctx.com)
    small = ctx.loop_class is not None and ctx.loop_class <= 2
    if crit == small:
        return None, {"criterion": crit, "loop_class": ctx.loop_class}
    return (w if w is not None else ("loop-class", str(ctx.loop_class))), None


@_check("two-engel-implies-class2", "2-Engel source gives class <= 2",
        "a 2-Engel source gives a twisted loop of class <= 2", needs=(R_ENGEL,))
def _check_loop_class_at_most_2(ctx):
    if ctx.loop_class is not None and ctx.loop_class <= 2:
        return None, {"loop_class": ctx.loop_class}
    return ("loop-class", str(ctx.loop_class)), None


# the same verdict, under the other hypothesis that implies it
_check("exponent3-implies-class2", "exponent-3 source gives class <= 2",
       "an exponent-3 source gives a twisted loop of class <= 2",
       needs=(R_EXP3,))(_check_loop_class_at_most_2)


@_check("circ-commutator-formula", "loop commutator product formula",
        "the loop commutator equals [x,y]^3 [x,[x,y]]^2 [y,[x,y]]^2 for all pairs")
def _check_circ_commutator_formula(ctx):
    G, cm, n = ctx.G, ctx.cm, ctx.n
    T = G.table
    sq = G.power_array(2)
    cube = G.power_array(3)
    ar = np.arange(n)
    cm2 = cm[np.broadcast_to(ar[:, None], (n, n)), cm]      # [x, [x, y]]
    cm3 = cm[np.broadcast_to(ar[None, :], (n, n)), cm]      # [y, [x, y]]
    expected = T[T[cube[cm], sq[cm2]], sq[cm3]]
    return first_cell(ctx.bracket != expected), None


@_check("associator-formula", "loop associator formula",
        "the loop associator equals [[z^-1, y], x] for all triples")
def _check_associator_formula(ctx):
    return ctx.associator_scan()[0], None


@_check("associators-central", "associators central",
        "every loop associator lies in the group center")
def _check_associators_central(ctx):
    return ctx.associator_scan()[1], None


@_check("quotient-by-nucleus-abelian-group", "loop/nucleus abelian group",
        "the twisted loop modulo its nucleus is an abelian group")
def _check_quotient_nucleus_abelian(ctx):
    return _quotient_group(ctx, ctx.nuc("full"), abelian=True)


@_check("quotient-by-center-group", "loop/center group",
        "the twisted loop modulo its center is a group")
def _check_quotient_center_group(ctx):
    return _quotient_group(ctx, ctx.zl)


@_check("bracket-assoc-iff-ninth-power", "bracket associativity iff ninth powers",
        "the loop-commutator bracket is associative iff "
        "[[x,y],z]^9 == [x,[y,z]]^9 for all triples")
def _check_bracket_iff_nine(ctx):
    bw = ctx.bracket_violation
    nine_ok, nw = nine_identity(ctx.G)
    if (bw is None) == nine_ok:
        return None, {"bracket_associative": bw is None}
    return (bw if bw is not None else nw), None


@_check("bracket-not-associative", "bracket non-associative (class 3, 3 coprime)",
        "for a class-3 group of order coprime to 3, the loop-commutator "
        "bracket is not associative", needs=(R_CLASS3, R_THREE))
def _check_bracket_not_associative(ctx):
    bw = ctx.bracket_violation
    if bw is None:
        return ("no-violating-triple",), None
    return None, {"witness_triple": list(bw)}


@_check("inner-mapping-group-not-abelian",
        "inner mapping group non-abelian (class 3, 3 coprime)",
        "for a class-3 group of order coprime to 3, the inner mapping "
        "group of the twisted loop is not abelian", needs=(R_CLASS3, R_THREE))
def _check_inner_not_abelian(ctx):
    ok, w = is_inner_abelian(ctx.loop)
    if ok:
        return ("all-generators-commute",), None
    return None, {"witness_pair": list(w)}


@_check("cocycle-reconstruction", "factor-set reconstruction",
        "the twisted loop is reconstructed, up to the canonical pair "
        "bijection, from the center factor set of the group")
def _check_cocycle_reconstruction(ctx):
    T = make_transversal(ctx.G, ctx.zg)
    try:
        fs = factor_set(ctx.G, T)
    except NotACocycle as exc:                  # G is not associative
        return ("not-a-cocycle",) + exc.witness, None
    built = build_gyro_extension(gyro_factor_set(fs))
    ok, w = verify_extension_isomorphism(built, ctx.loop, T)
    if ok:
        return None, {"center_size": len(T.center), "quotient_order": T.quotient.order}
    return w, None


# ---------------------------------------------------------------------------
# driver

def suite_check_ids() -> list[str]:
    return [cid for cid, *_ in _REGISTRY]


def verify_suite(G: FiniteGroup, selection: list[str] | None = None) -> list[CheckReport]:
    """Run the full (or selected) check suite on one group.

    Unknown selection ids raise ValueError.  Reports come back in registry
    order with wall-clock timing attached (timing is not serialized).
    """
    known = suite_check_ids()
    unknown = sorted(s for s in selection or () if s not in known)
    if unknown:
        raise ValueError(f"unknown check ids: {', '.join(unknown)}")
    wanted = set(known if selection is None else selection)
    ctx = SuiteContext(G)
    reports: list[CheckReport] = []
    for cid, short, statement, needs, body in _REGISTRY:
        if cid not in wanted:
            continue
        t0 = time.perf_counter()
        reason = next((r for r in (R_CLASS,) + needs if not _HOLDS[r](ctx)), None)
        if reason is not None:
            rep = CheckReport(cid, short, "skipped", reason=reason)
        else:
            witness, details = body(ctx)
            if witness is None:
                rep = CheckReport(cid, statement, "pass", details=details)
            else:
                witness = tuple(witness)
                rep = CheckReport(cid, statement, "fail", witness=witness,
                                  witness_names=ctx.names_for(witness), details=details)
        rep.timing = time.perf_counter() - t0
        reports.append(rep)
    return reports
