"""Instance verification suite: every structural statement the package knows
about the twisted loop of a nilpotent group, checked exhaustively on one group.

Each check scans all relevant tuples (a pass never short-circuits), produces
the lexicographically least witness on failure, and is gated by explicit
hypotheses; a group outside a gate gets status "skipped" with a stable
reason string.
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
from .errors import NotASubloop, NotWellDefined, WrongClass
from .groups import (
    FiniteGroup,
    _mark,
    _subgroup_witness,
    first_cell,
    first_violation,
    first_violations,
    group_center,
    group_exponent,
    index_table,
    is_subgroup,
    is_two_engel,
    nilpotency_class,
    normality_violation,
    pair_slabs,
    quotient_group,
    subgroup_as_group,
)
from .gyro import build_gyro, is_gyrogroup
from .invariants import (
    NUCLEUS_KINDS,
    _loop_class,
    commutant,
    commutator_bracket_table,
    nuclei,
)
from .loops import (
    FiniteLoop,
    is_subloop,
    normal_subloop_violation,
    quotient_loop,
    subloop_witness,
    table_associativity_violation,
)
from .mappings import bracket_associativity_violation, is_inner_abelian
from .report import CheckReport, failed, passed, skipped

# stable skip reasons
R_CLASS = "group-not-nilpotent-of-class-at-most-3"
R_THREE = "hypothesis-needs-order-coprime-to-3"
R_CLASS3 = "group-class-not-3"
R_ENGEL = "group-not-2-engel"
R_EXP3 = "group-exponent-not-3"


def class2_criterion(G: FiniteGroup) -> tuple[bool, tuple[int, int] | None]:
    """Whether [x,y]^3 lies in the commutant of the twisted loop for all x, y.

    Only meaningful for class-3 groups (raises WrongClass otherwise); for
    those it is equivalent to the twisted loop having nilpotency class <= 2.
    """
    cls = nilpotency_class(G)
    if cls != 3:
        raise WrongClass("exactly 3", cls)
    return _cube_criterion(G, commutant(build_gyro(G).loop))


def _cube_criterion(G: FiniteGroup, C: frozenset[int]) -> tuple[bool, tuple[int, int] | None]:
    """Whether every [x,y]^3 lies in C, the commutant of the twisted loop,
    with the least failing (x, y) when not."""
    cubes = G.power_array(3)[G.commutator_table()]
    w = first_cell(~_mark(G.order, C)[cubes])
    return w is None, w


def nine_identity(G: FiniteGroup) -> tuple[bool, tuple[int, int, int] | None]:
    """Whether [[x,y],z]^9 == [x,[y,z]]^9 for all triples, with the least
    failing (x, y, z) when not."""
    cm = G.commutator_table()
    # values [a, b] -> [a, b]^9 read through index cm: [[x,y],z]^9 against
    # [x,[y,z]]^9
    w = first_violation(G.order, pair_slabs(G.power_array(9)[cm], cm))
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
    out = []
    for a in range(G.order):
        lhs = cube[G.table[a]]
        rhs = G.table[int(cube[a]), cube]
        if np.array_equal(lhs, rhs):
            out.append(a)
    return frozenset(out)


# ---------------------------------------------------------------------------
# suite context: shared cached computations

class SuiteContext:
    def __init__(self, G: FiniteGroup):
        self.G = G
        self.n = G.order
        self._cache: dict = {}
        self._sets: dict = {}

    def _get(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def _per_set(self, op: str, S, fn):
        """fn() once per (op, set) in this suite.  The nuclei, the commutant
        and the loop center are often the same set, so a set-level result
        is computed once however many kinds share it.  An outcome that
        raised NotASubloop or NotWellDefined is kept and raised again."""
        key = (op, frozenset(S))
        if key not in self._sets:
            try:
                self._sets[key] = (fn(), None)
            except (NotASubloop, NotWellDefined) as exc:
                self._sets[key] = (None, exc)
        value, exc = self._sets[key]
        if exc is not None:
            raise exc
        return value

    def normal_subloop(self, S):
        """normal_subloop_violation(loop, S)."""
        return self._per_set("normal-subloop", S,
                             lambda: normal_subloop_violation(self.loop, S))

    def quotient(self, S) -> tuple[FiniteLoop, np.ndarray]:
        """quotient_loop(loop, S)."""
        return self._per_set("quotient", S, lambda: quotient_loop(self.loop, S))

    def quotient_associativity(self, S):
        """The associativity witness of the table of loop/S, None when
        associative; raises as quotient(S) does."""
        return self._per_set("quotient-assoc", S, lambda: (
            table_associativity_violation(self.quotient(S)[0].table)))

    def group_normality(self, S):
        """normality_violation(G, S)."""
        return self._per_set("group-normal", S,
                             lambda: normality_violation(self.G, sorted(S)))

    def subgroup_class(self, S):
        """The nilpotency class of S as a subgroup of G."""
        return self._per_set("subgroup-class", S,
                             lambda: nilpotency_class(subgroup_as_group(self.G, S)[0]))

    def induced_associativity(self, S):
        """_induced_violation(loop table, S)."""
        return self._per_set("induced-assoc", S,
                             lambda: _induced_violation(self.loop.table, S))

    @property
    def cls(self):
        return self._get("cls", lambda: nilpotency_class(self.G))

    @property
    def loop(self) -> FiniteLoop:
        return self._get("gyro", lambda: build_gyro(self.G)).loop

    @property
    def cm(self):
        return self.G.commutator_table()

    @property
    def zg(self):
        return self._get("zg", lambda: group_center(self.G))

    @property
    def com(self):
        return self._get("com", lambda: commutant(self.loop))

    def nuc(self, kind: str):
        """A nucleus of the loop; all kinds come from one cached nuclei pass."""
        if kind == "full":
            return self._get(("nuc", "full"), lambda: (
                self.nuc("left") & self.nuc("middle") & self.nuc("right")))
        return self._get("nuclei", lambda: nuclei(self.loop))[NUCLEUS_KINDS.index(kind)]

    @property
    def zl(self):
        """The loop center, by the definition of loop_center: the commutant
        met with the nucleus."""
        return self._get("zl", lambda: self.com & self.nuc("full"))

    @property
    def loop_class(self):
        """loop_nilpotency_class(loop), with its series started from zl."""
        return self._get("lc", lambda: _loop_class(self.loop, self.zl))

    @property
    def bracket(self):
        return self._get("bracket", lambda: commutator_bracket_table(self.loop))

    @property
    def bracket_violation(self):
        return self._get("bracket-assoc", lambda: bracket_associativity_violation(self.loop))

    @property
    def exponent(self):
        return self._get("exp", lambda: group_exponent(self.G))

    @property
    def two_engel(self):
        return self._get("engel", lambda: is_two_engel(self.G)[0])

    @property
    def coprime_to_3(self):
        return self.n % 3 != 0

    def zmask(self):
        return _mark(self.n, self.zg)

    def names_for(self, witness):
        out = []
        for w in witness:
            if isinstance(w, (int, np.integer)) and 0 <= int(w) < self.n:
                out.append(self.G.names[int(w)])
            else:
                out.append(str(w))
        return tuple(out)

    def associator_scan(self):
        """One pass over all triples: first formula violation and first
        non-central associator (None when absent).  Once a mask has its
        witness, the slabs of later x skip it."""
        def run():
            G, L = self.G, self.loop
            n = self.n
            T = L.table
            Ti = index_table(T, n)
            # a / b at the flat offset b*n + a
            rdivT = np.ascontiguousarray(L.right_division.T).ravel()
            noncentral = ~self.zmask()[rdivT]             # at the same offsets
            K = index_table(self.cm[G.inverse, :].T, n)    # [y, z] -> [z^-1, y]
            off = np.empty((n, n), dtype=np.intp)
            vals = np.empty_like(T)
            expected = np.empty_like(T)
            formula_bad = np.empty((n, n), dtype=bool)
            central_bad = np.empty((n, n), dtype=bool)

            def slab(x, open_):
                # A(x, y, z) = ((x*y)*z) / (x*(y*z)) is read at the offset
                # (x*(y*z))*n + (x*y)*z; (x*y)*z are the rows of T taken by
                # row x
                formula_open, central_open = open_
                np.take(Ti[x] * n, Ti, out=off, mode="clip")
                np.add(off, np.take(T, T[x], axis=0, out=vals, mode="clip"), out=off)
                formula = central = None
                if formula_open:
                    np.take(rdivT, off, out=vals, mode="clip")
                    np.take(self.cm[:, x], K, out=expected, mode="clip")   # [[z^-1, y], x]
                    formula = np.not_equal(vals, expected, out=formula_bad)
                if central_open:
                    central = np.take(noncentral, off, out=central_bad, mode="clip")
                return formula, central
            return tuple(first_violations(n, 2, slab))
        return self._get("assoc-scan", run)


# ---------------------------------------------------------------------------
# individual checks; each returns a CheckReport (without gating)

def _set_mismatch_witness(A: frozenset, B: frozenset) -> tuple:
    return (min(A.symmetric_difference(B)),)


def _check_gyro_axioms(ctx: SuiteContext) -> CheckReport:
    return is_gyrogroup(ctx.loop, source=ctx.G)


def _check_loop_valid(ctx):
    stmt = "the twisted table is a loop (two-sided identity, both divisions)"
    L = ctx.loop
    if L.is_loop:
        return passed("twisted-table-is-loop", stmt)
    bad_rows = [i for i in range(ctx.n)
                if len(set(L.table[i].tolist())) != ctx.n]
    return failed("twisted-table-is-loop", stmt, witness=(bad_rows[0],))


def _check_commutant_subloop(ctx):
    stmt = "the commutant of the twisted loop is a subloop"
    C = ctx.com
    if is_subloop(ctx.loop, C):
        return passed("commutant-subloop", stmt)
    return failed("commutant-subloop", stmt, witness=subloop_witness(ctx.loop, frozenset(C)))


def _check_commutant_normal(ctx):
    stmt = "the commutant of the twisted loop is a normal subloop"
    w = ctx.normal_subloop(ctx.com)
    if w is None:
        return passed("commutant-normal-subloop", stmt)
    return failed("commutant-normal-subloop", stmt, witness=w)


_CHAR_BUILDERS = {
    "left": (charset_left_nucleus, "[a,[x,y^-1]] = e for all x,y"),
    "middle": (charset_middle_nucleus, "[x,[a,y^-1]] = e for all x,y"),
    "right": (charset_right_nucleus, "[x,[y,a^-1]] = e for all x,y"),
}


def _check_char(kind):
    def run(ctx):
        fn, frag = _CHAR_BUILDERS[kind]
        stmt = (f"the {kind} nucleus computed from the loop table equals "
                f"{{a : {frag}}} computed from group commutators")
        brute = ctx.nuc(kind)
        char = fn(ctx.G)
        if brute == char:
            return passed(f"char-{kind}-nucleus", stmt,
                          details={"size": len(brute)})
        return failed(f"char-{kind}-nucleus", stmt,
                      witness=_set_mismatch_witness(brute, char))
    return run


def _check_char_commutant(ctx):
    stmt = ("the commutant computed from the loop table equals "
            "{a : (a x)^3 = a^3 x^3 for all x} computed in the group")
    brute = ctx.com
    char = charset_commutant(ctx.G)
    if brute == char:
        return passed("char-commutant", stmt, details={"size": len(brute)})
    return failed("char-commutant", stmt, witness=_set_mismatch_witness(brute, char))


def _check_each_nucleus(check_id, stmt, violation):
    """check_id passes when violation(ctx, N) is None for the left, middle,
    right and full nucleus N, in that order; the witness of the first that
    fails is its kind followed by the violation."""
    def run(ctx):
        for kind in ("left", "middle", "right", "full"):
            w = violation(ctx, ctx.nuc(kind))
            if w is not None:
                return failed(check_id, stmt, witness=(kind,) + w)
        return passed(check_id, stmt)
    return run


def _class_violation(ctx, N):
    c = ctx.subgroup_class(N)
    return None if c is not None and c <= 2 else (str(c),)


_check_nuclei_subgroups = _check_each_nucleus(
    "nuclei-subgroups-of-group",
    "each nucleus of the twisted loop is a subgroup of the source group",
    lambda ctx, N: None if is_subgroup(ctx.G, N) else _subgroup_witness(ctx.G, frozenset(N)))
_check_nuclei_normal_in_group = _check_each_nucleus(
    "nuclei-normal-in-group",
    "each nucleus of the twisted loop is normal in the source group",
    SuiteContext.group_normality)
_check_nuclei_class = _check_each_nucleus(
    "nuclei-class-at-most-2",
    "each nucleus, as a subgroup of the source, has nilpotency class <= 2",
    _class_violation)
_check_nuclei_induced_group = _check_each_nucleus(
    "nuclei-induced-op-associative",
    "the twisted product restricted to each nucleus is associative (a group)",
    SuiteContext.induced_associativity)
_check_nuclei_normal_subloops = _check_each_nucleus(
    "nuclei-normal-subloops", "each nucleus is a normal subloop of the twisted loop",
    SuiteContext.normal_subloop)


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
    bad = table_associativity_violation(local)
    if bad is None:
        return None
    return tuple(int(lst[i]) for i in bad)


def _check_mid_eq_right(ctx):
    stmt = "the middle and right nuclei coincide"
    if ctx.nuc("middle") == ctx.nuc("right"):
        return passed("middle-nucleus-equals-right", stmt)
    return failed("middle-nucleus-equals-right", stmt,
                  witness=_set_mismatch_witness(ctx.nuc("middle"), ctx.nuc("right")))


def _check_mid_in_left(ctx):
    stmt = "the middle nucleus is contained in the left nucleus"
    diff = ctx.nuc("middle") - ctx.nuc("left")
    if not diff:
        return passed("middle-nucleus-in-left", stmt)
    return failed("middle-nucleus-in-left", stmt, witness=(min(diff),))


def _check_commutator_expansion_left(ctx):
    """[xy, z] = [x,[y,z]] [y,z] [x,z] is a law of every group: it follows
    from associativity alone.  On a table that is a group it cannot fail, so
    what the scan tests is the associativity of the table it is given."""
    stmt = "[x y, z] = [x,[y,z]] [y,z] [x,z] for all triples"
    T, cm, n = ctx.G.table, ctx.cm, ctx.n
    Tf = T.ravel()
    cmi = index_table(cm, n)
    ar = np.arange(n)
    off = np.empty((n, n), dtype=np.intp)
    lhs = np.empty_like(T)
    rhs = np.empty_like(T)
    bad = np.empty((n, n), dtype=bool)

    def slab(x):
        # [x,[y,z]] [y,z] is f[c] = T[[x, c], c] at c = [y, z]; f is scaled
        # by n here, to be the row offset of each cell into T
        fn = Tf.take(cmi[x] * n + ar).astype(np.intp) * n
        np.take(fn, cmi, out=off, mode="clip")
        np.add(off, cmi[x], out=off)                  # + [x, z]
        np.take(Tf, off, out=rhs, mode="clip")
        np.take(cm, T[x], axis=0, out=lhs, mode="clip")   # [xy, z]
        return np.not_equal(lhs, rhs, out=bad)
    w = first_violation(n, slab)
    if w is None:
        return passed("commutator-expansion-left", stmt)
    return failed("commutator-expansion-left", stmt, witness=w)


def _check_commutator_expansion_right(ctx):
    """[x, yz] = [x,y] [y,[x,z]] [x,z] is a law of every group: it follows
    from associativity alone.  On a table that is a group it cannot fail, so
    what the scan tests is the associativity of the table it is given."""
    stmt = "[x, y z] = [x,y] [y,[x,z]] [x,z] for all triples"
    T, cm, n = ctx.G.table, ctx.cm, ctx.n
    Tf = T.ravel()
    Ti = index_table(T, n)
    # for fixed x the right side depends on z only through v = [x,z], which
    # takes m <= n values: g[y, j] = ([x,y] [y,v_j]) v_j is an n x m table,
    # and the slab takes its columns by the rank of [x,z].  The n x m
    # buffers are allocated once, for the largest m of any x
    present = np.zeros((n, n), dtype=bool)
    present[np.arange(n)[:, None], cm] = True
    m_max = int(present.sum(axis=1).max())
    off = np.empty(n * m_max, dtype=np.intp)
    val = np.empty(n * m_max, dtype=T.dtype)
    lhs = np.empty_like(T)
    rhs = np.empty_like(T)
    bad = np.empty((n, n), dtype=bool)

    def slab(x):
        vs, zi = np.unique(cm[x], return_inverse=True)   # [x, z] = vs[zi[z]]
        v = vs.astype(np.intp)
        m = len(v)
        o = off[:n * m].reshape(n, m)
        g = val[:n * m].reshape(n, m)
        np.take(cm, v, axis=1, out=g, mode="clip")        # [y, v_j]
        np.add(g, cm[x, :, None].astype(np.intp) * n, out=o)
        np.take(Tf, o, out=g, mode="clip")                # [x,y] [y,v_j]
        np.multiply(g, n, out=o, dtype=np.intp)
        np.add(o, v, out=o)
        np.take(Tf, o, out=g, mode="clip")                # ([x,y] [y,v_j]) v_j
        np.take(g, zi, axis=1, out=rhs, mode="clip")
        np.take(cm[x], Ti, out=lhs, mode="clip")          # [x, yz]
        return np.not_equal(lhs, rhs, out=bad)
    w = first_violation(n, slab)
    if w is None:
        return passed("commutator-expansion-right", stmt)
    return failed("commutator-expansion-right", stmt, witness=w)


def _check_commutant_identities(ctx):
    stmt = ("for a in the commutant and any x: [[a,x],x] = [[a,x],a] = e; "
            "[x^-1,a^-1] = [a,x^-1] = [x,a]; "
            "[x^2,a] = [x,a]^2 = [x,a^2] = [x,a^-1] = [x^-1,a]; "
            "[a,x^3] = [a,x]^3 = [a^3,x] = e")
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
                return failed("commutant-element-identities", stmt,
                              witness=(tag, a) + first_cell(~ok))
    return passed("commutant-element-identities", stmt)


def _check_commutant_cubes_central(ctx):
    stmt = "cubes of commutant elements lie in the group center"
    cube = ctx.G.power_array(3)
    for a in sorted(ctx.com):
        if int(cube[a]) not in ctx.zg:
            return failed("commutant-cubes-central", stmt, witness=(a, int(cube[a])))
    return passed("commutant-cubes-central", stmt)


def _check_center_intersection(ctx):
    stmt = ("the loop center equals the commutant intersected with each of "
            "the left, middle and right nuclei")
    Z = ctx.zl
    for kind in ("left", "middle", "right"):
        other = ctx.com & ctx.nuc(kind)
        if other != Z:
            return failed("loop-center-intersection", stmt,
                          witness=(kind,) + _set_mismatch_witness(Z, other))
    return passed("loop-center-intersection", stmt,
                  details={"center_size": len(Z)})


def _check_commutant_equals_group_center(ctx):
    stmt = ("with order coprime to 3, the commutant, the loop center and the "
            "group center coincide")
    C, ZL, ZG = ctx.com, ctx.zl, ctx.zg
    if C == ZG and ZL == ZG:
        return passed("commutant-equals-group-center", stmt)
    bad = _set_mismatch_witness(C, ZG) if C != ZG else _set_mismatch_witness(ZL, ZG)
    return failed("commutant-equals-group-center", stmt, witness=bad)


def _check_quotient_group(check_id, what, subset, abelian=False):
    """check_id: the loop modulo subset(ctx), its `what`, is a group, and
    an abelian one when asked."""
    stmt = f"the twisted loop modulo its {what} is {'an abelian' if abelian else 'a'} group"

    def run(ctx):
        S = subset(ctx)
        try:
            bad = ctx.quotient_associativity(S)
        except (NotASubloop, NotWellDefined) as exc:
            return failed(check_id, stmt, witness=exc.witness)
        if bad is None and abelian:
            Q = ctx.quotient(S)[0].table
            bad = first_cell(Q != Q.T)
        if bad is None:
            return passed(check_id, stmt)
        return failed(check_id, stmt, witness=bad)
    return run


_check_quotient_by_commutant_group = _check_quotient_group(
    "quotient-by-commutant-group", "commutant", lambda ctx: ctx.com)
_check_quotient_center_group = _check_quotient_group(
    "quotient-by-center-group", "center", lambda ctx: ctx.zl)
_check_quotient_nucleus_abelian = _check_quotient_group(
    "quotient-by-nucleus-abelian-group", "nucleus", lambda ctx: ctx.nuc("full"), abelian=True)


def _check_quotient_commutant_matches(ctx):
    stmt = ("the twisted loop modulo its commutant has the same table as the "
            "twisted loop built on the group modulo the commutant")
    C = ctx.com
    if not is_subgroup(ctx.G, C):
        return failed("quotient-by-commutant-matches-gyro-of-quotient", stmt,
                      witness=("commutant-not-a-subgroup",))
    w = ctx.group_normality(C)
    if w is not None:
        return failed("quotient-by-commutant-matches-gyro-of-quotient", stmt,
                      witness=("commutant-not-normal",) + w)
    QG, _ = quotient_group(ctx.G, C)
    circ_of_quotient = build_gyro(QG).loop
    quotient_of_circ, _ = ctx.quotient(C)
    w = first_cell(circ_of_quotient.table != quotient_of_circ.table)
    if w is None:
        return passed("quotient-by-commutant-matches-gyro-of-quotient", stmt)
    return failed("quotient-by-commutant-matches-gyro-of-quotient", stmt, witness=w)


def _check_class_equivalence(k):
    check_id = f"class{k}-equivalence"
    stmt = (f"with order coprime to 3, the group has class exactly {k} iff the "
            f"twisted loop has class exactly {k}")

    def run(ctx):
        if (ctx.cls == k) == (ctx.loop_class == k):
            return passed(check_id, stmt,
                          details={"group_class": ctx.cls, "loop_class": ctx.loop_class})
        return failed(check_id, stmt,
                      witness=("group-class", str(ctx.cls), "loop-class", str(ctx.loop_class)))
    return run


_check_class2_equivalence = _check_class_equivalence(2)
_check_class3_equivalence = _check_class_equivalence(3)


def _check_class2_criterion(ctx):
    stmt = ("for a class-3 group, all [x,y]^3 lie in the commutant iff the "
            "twisted loop has class <= 2")
    crit, w = _cube_criterion(ctx.G, ctx.com)
    small = ctx.loop_class is not None and ctx.loop_class <= 2
    if crit == small:
        return passed("class2-criterion", stmt,
                      details={"criterion": crit, "loop_class": ctx.loop_class})
    witness = w if w is not None else ("loop-class", str(ctx.loop_class))
    return failed("class2-criterion", stmt, witness=witness)


def _check_loop_class_at_most_2(check_id, source):
    stmt = f"{source} source gives a twisted loop of class <= 2"

    def run(ctx):
        if ctx.loop_class is not None and ctx.loop_class <= 2:
            return passed(check_id, stmt, details={"loop_class": ctx.loop_class})
        return failed(check_id, stmt, witness=("loop-class", str(ctx.loop_class)))
    return run


_check_two_engel = _check_loop_class_at_most_2("two-engel-implies-class2", "a 2-Engel")
_check_exponent3 = _check_loop_class_at_most_2("exponent3-implies-class2", "an exponent-3")


def _check_circ_commutator_formula(ctx):
    stmt = "the loop commutator equals [x,y]^3 [x,[x,y]]^2 [y,[x,y]]^2 for all pairs"
    G, cm, n = ctx.G, ctx.cm, ctx.n
    T = G.table
    sq = G.power_array(2)
    cube = G.power_array(3)
    ar = np.arange(n)
    cm2 = cm[np.broadcast_to(ar[:, None], (n, n)), cm]      # [x, [x, y]]
    cm3 = cm[np.broadcast_to(ar[None, :], (n, n)), cm]      # [y, [x, y]]
    expected = T[T[cube[cm], sq[cm2]], sq[cm3]]
    w = first_cell(ctx.bracket != expected)
    if w is None:
        return passed("circ-commutator-formula", stmt)
    return failed("circ-commutator-formula", stmt, witness=w)


def _check_associator_formula(ctx):
    stmt = "the loop associator equals [[z^-1, y], x] for all triples"
    formula_bad, _ = ctx.associator_scan()
    if formula_bad is None:
        return passed("associator-formula", stmt)
    return failed("associator-formula", stmt, witness=formula_bad)


def _check_associators_central(ctx):
    stmt = "every loop associator lies in the group center"
    _, central_bad = ctx.associator_scan()
    if central_bad is None:
        return passed("associators-central", stmt)
    return failed("associators-central", stmt, witness=central_bad)


def _check_bracket_iff_nine(ctx):
    stmt = ("the loop-commutator bracket is associative iff "
            "[[x,y],z]^9 == [x,[y,z]]^9 for all triples")
    bw = ctx.bracket_violation
    nine_ok, nw = nine_identity(ctx.G)
    if (bw is None) == nine_ok:
        return passed("bracket-assoc-iff-ninth-power", stmt,
                      details={"bracket_associative": bw is None})
    witness = bw if bw is not None else nw
    return failed("bracket-assoc-iff-ninth-power", stmt, witness=witness)


def _check_bracket_not_associative(ctx):
    stmt = ("for a class-3 group of order coprime to 3, the loop-commutator "
            "bracket is not associative")
    bw = ctx.bracket_violation
    if bw is not None:
        return passed("bracket-not-associative", stmt,
                      details={"witness_triple": list(bw)})
    return failed("bracket-not-associative", stmt, witness=("no-violating-triple",))


def _check_inner_not_abelian(ctx):
    stmt = ("for a class-3 group of order coprime to 3, the inner mapping "
            "group of the twisted loop is not abelian")
    ok, w = is_inner_abelian(ctx.loop)
    if not ok:
        return passed("inner-mapping-group-not-abelian", stmt,
                      details={"witness_pair": list(w)})
    return failed("inner-mapping-group-not-abelian", stmt,
                  witness=("all-generators-commute",))


def _check_cocycle_reconstruction(ctx):
    stmt = ("the twisted loop is reconstructed, up to the canonical pair "
            "bijection, from the center factor set of the group")
    G = ctx.G
    Z = group_center(G)
    T = make_transversal(G, Z, policy="least-index")
    fs = factor_set(G, T)
    q_circ = build_gyro(T.quotient).loop
    tf = gyro_factor_set(fs, q_circ)
    zgrp, _ = subgroup_as_group(G, Z)
    built = build_gyro_extension(zgrp, q_circ, tf)
    ok, w = verify_extension_isomorphism(built, ctx.loop, T)
    if ok:
        return passed("cocycle-reconstruction", stmt,
                      details={"center_size": len(Z), "quotient_order": T.quotient.order})
    return failed("cocycle-reconstruction", stmt, witness=w)


# ---------------------------------------------------------------------------
# registry and driver

def _gate_class(ctx):
    return None if (ctx.cls is not None and ctx.cls <= 3) else R_CLASS

def _gate_coprime(ctx):
    return _gate_class(ctx) or (None if ctx.coprime_to_3 else R_THREE)

def _gate_class3(ctx):
    return _gate_class(ctx) or (None if ctx.cls == 3 else R_CLASS3)

def _gate_class3_coprime(ctx):
    return _gate_class3(ctx) or (None if ctx.coprime_to_3 else R_THREE)

def _gate_engel(ctx):
    return _gate_class(ctx) or (None if ctx.two_engel else R_ENGEL)

def _gate_exp3(ctx):
    return _gate_class(ctx) or (None if ctx.exponent == 3 else R_EXP3)


CHECKS: list[tuple[str, str, object, object]] = [
    ("twisted-table-is-loop", "loop validity", _gate_class, _check_loop_valid),
    ("gyro-axioms", "gyrogroup axioms", _gate_class, _check_gyro_axioms),
    ("commutant-subloop", "commutant subloop", _gate_class, _check_commutant_subloop),
    ("commutant-normal-subloop", "commutant normal", _gate_class, _check_commutant_normal),
    ("char-left-nucleus", "left nucleus characterization", _gate_class, _check_char("left")),
    ("char-middle-nucleus", "middle nucleus characterization", _gate_class, _check_char("middle")),
    ("char-right-nucleus", "right nucleus characterization", _gate_class, _check_char("right")),
    ("char-commutant", "commutant characterization", _gate_class, _check_char_commutant),
    ("nuclei-subgroups-of-group", "nuclei are subgroups", _gate_class, _check_nuclei_subgroups),
    ("nuclei-normal-in-group", "nuclei normal in group", _gate_class, _check_nuclei_normal_in_group),
    ("nuclei-class-at-most-2", "nuclei class <= 2", _gate_class, _check_nuclei_class),
    ("nuclei-induced-op-associative", "nuclei induced groups", _gate_class, _check_nuclei_induced_group),
    ("nuclei-normal-subloops", "nuclei normal subloops", _gate_class, _check_nuclei_normal_subloops),
    ("middle-nucleus-equals-right", "middle = right nucleus", _gate_class, _check_mid_eq_right),
    ("middle-nucleus-in-left", "middle <= left nucleus", _gate_class, _check_mid_in_left),
    ("commutator-expansion-left", "product expansion of [xy,z]", _gate_class, _check_commutator_expansion_left),
    ("commutator-expansion-right", "product expansion of [x,yz]", _gate_class, _check_commutator_expansion_right),
    ("commutant-element-identities", "commutant element identities", _gate_class, _check_commutant_identities),
    ("commutant-cubes-central", "commutant cubes central", _gate_class, _check_commutant_cubes_central),
    ("loop-center-intersection", "center = commutant meet nucleus", _gate_class, _check_center_intersection),
    ("commutant-equals-group-center", "commutant = group center (3 coprime)", _gate_coprime, _check_commutant_equals_group_center),
    ("quotient-by-commutant-group", "loop/commutant is a group", _gate_class, _check_quotient_by_commutant_group),
    ("quotient-by-commutant-matches-gyro-of-quotient", "loop/commutant = twist of group/commutant", _gate_class, _check_quotient_commutant_matches),
    ("class2-equivalence", "class-2 equivalence (3 coprime)", _gate_coprime, _check_class2_equivalence),
    ("class3-equivalence", "class-3 equivalence (3 coprime)", _gate_coprime, _check_class3_equivalence),
    ("class2-criterion", "cube criterion for loop class <= 2", _gate_class3, _check_class2_criterion),
    ("two-engel-implies-class2", "2-Engel source gives class <= 2", _gate_engel, _check_two_engel),
    ("exponent3-implies-class2", "exponent-3 source gives class <= 2", _gate_exp3, _check_exponent3),
    ("circ-commutator-formula", "loop commutator product formula", _gate_class, _check_circ_commutator_formula),
    ("associator-formula", "loop associator formula", _gate_class, _check_associator_formula),
    ("associators-central", "associators central", _gate_class, _check_associators_central),
    ("quotient-by-nucleus-abelian-group", "loop/nucleus abelian group", _gate_class, _check_quotient_nucleus_abelian),
    ("quotient-by-center-group", "loop/center group", _gate_class, _check_quotient_center_group),
    ("bracket-assoc-iff-ninth-power", "bracket associativity iff ninth powers", _gate_class, _check_bracket_iff_nine),
    ("bracket-not-associative", "bracket non-associative (class 3, 3 coprime)", _gate_class3_coprime, _check_bracket_not_associative),
    ("inner-mapping-group-not-abelian", "inner mapping group non-abelian (class 3, 3 coprime)", _gate_class3_coprime, _check_inner_not_abelian),
    ("cocycle-reconstruction", "factor-set reconstruction", _gate_class, _check_cocycle_reconstruction),
]


def suite_check_ids() -> list[str]:
    return [cid for cid, _, _, _ in CHECKS]


def verify_suite(G: FiniteGroup, selection: list[str] | None = None) -> list[CheckReport]:
    """Run the full (or selected) check suite on one group.

    Unknown selection ids raise ValueError.  Reports come back in registry
    order with wall-clock timing attached (timing is not serialized).
    """
    known = set(suite_check_ids())
    if selection is not None:
        unknown = [s for s in selection if s not in known]
        if unknown:
            raise ValueError(f"unknown check ids: {', '.join(sorted(unknown))}")
        wanted = set(selection)
    else:
        wanted = known
    ctx = SuiteContext(G)
    reports: list[CheckReport] = []
    for cid, _, gate, run in CHECKS:
        if cid not in wanted:
            continue
        t0 = time.perf_counter()
        reason = gate(ctx)
        if reason is not None:
            rep = skipped(cid, _statement_for(cid, ctx), reason)
        else:
            rep = run(ctx)
            if rep.witness is not None and rep.witness_names is None:
                rep.witness_names = ctx.names_for(rep.witness)
        rep.timing = time.perf_counter() - t0
        reports.append(rep)
    return reports


def _statement_for(cid: str, ctx: SuiteContext) -> str:
    for c, short, _, _ in CHECKS:
        if c == cid:
            return short
    return cid
