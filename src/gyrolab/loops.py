"""Finite magmas / right loops / loops given by multiplication tables.

A right loop has a two-sided identity (index 0) and unique solutions x to
x*a = b (columns are permutations); a loop additionally solves a*y = b
(rows are permutations).  Division tables are precomputed:

  right_division[b, a] = x  with  x*a = b
  left_division[a, b]  = y  with  a*y = b
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import (
    InvariantViolated,
    NotALoop,
    NotASubloop,
    NotRightLoop,
    NotWellDefined,
)
from .groups import (
    _cached,
    _commuting,
    _coset_labels,
    _mark,
    _table_front_end,
    first_cell,
    first_violation,
    generated,
    verify_translations,
)


class FiniteLoop:
    """A magma table with identity at index 0 and cached division tables.

    is_right_loop / is_loop record which division structure actually holds;
    the corresponding division table is None when the property fails (only
    possible when constructed leniently).
    """

    __slots__ = ("order", "table", "names", "is_right_loop", "is_loop",
                 "right_division", "left_division", "name", "_name_index", "_cache")

    def __init__(self, table: np.ndarray, names: Sequence[str],
                 is_right_loop: bool, is_loop: bool,
                 right_division: np.ndarray | None,
                 left_division: np.ndarray | None, name: str = ""):
        self.order = int(table.shape[0])
        self.table = table
        self.names = tuple(names)
        self.is_right_loop = is_right_loop
        self.is_loop = is_loop
        self.right_division = right_division
        self.left_division = left_division
        self.name = name
        self._name_index = {nm: i for i, nm in enumerate(self.names)}
        self._cache: dict = {}
        table.setflags(write=False)
        for d in (right_division, left_division):
            if d is not None:
                d.setflags(write=False)

    def __repr__(self) -> str:
        kind = "loop" if self.is_loop else ("right loop" if self.is_right_loop else "magma")
        label = self.name or kind
        return f"<{label} of order {self.order}>"

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def index_of(self, name: str) -> int:
        return self._name_index[name]


def loop_from_table(table, names: Sequence[str] | None = None,
                    lenient: bool = False, name: str = "") -> FiniteLoop:
    """Validate a table as a (right) loop.

    The input checks and their errors are group_from_table's
    (groups._table_front_end), in both modes.  Strict mode then requires
    permutation columns and raises NotRightLoop otherwise.  Lenient mode
    tolerates defective rows/columns (flags come back false and the
    corresponding division table is None) so that broken tables remain
    inspectable.

    The table and both division tables are in elem_dtype(n).  The division
    tables decide Latin-ness: each is scattered into a table filled with n,
    an index no element has (it holds in any unsigned dtype, where a -1
    would not), and column a is a permutation exactly when every b has an x
    with x*a = b, that is when column a of right_division holds no n; the
    rows are read off left_division the same way.
    """
    arr, name_list, _ = _table_front_end(table, names)
    n = len(arr)
    ar = np.arange(n)
    rdiv = np.full_like(arr, n)
    rdiv[arr, ar] = ar[:, None]                 # rdiv[x*a, a] = x
    bad_col = first_cell(rdiv.max(axis=0) == n)
    if bad_col is not None and not lenient:
        raise NotRightLoop(bad_col[0])
    ldiv = np.full_like(arr, n)
    ldiv[ar[:, None], arr] = ar                 # ldiv[a, a*y] = y
    cols_ok = bad_col is None
    rows_ok = bool(ldiv.max() < n)
    return FiniteLoop(arr, name_list, cols_ok, cols_ok and rows_ok,
                      rdiv if cols_ok else None, ldiv if rows_ok else None, name=name)


def divide(L: FiniteLoop, mode: str, a: int, b: int) -> int:
    """Solve against divisor a: right mode returns x with x*a = b, left mode
    returns y with a*y = b."""
    if mode == "right":
        if L.right_division is None:
            raise NotRightLoop(-1)
        return int(L.right_division[b, a])
    if mode == "left":
        if L.left_division is None:
            raise NotALoop()
        return int(L.left_division[a, b])
    raise ValueError(f"mode must be 'right' or 'left', got {mode!r}")


# ---------------------------------------------------------------------------
# subloops, normality, quotients

def subloop_violation(L: FiniteLoop, subset: Iterable[int]) -> tuple | None:
    """None when a nonempty subset is closed under the product and both
    divisions, else the witness: ("not-a-subloop",) for the empty set, or
    (tag, a, b) for the least pair of members, and at that pair the first
    tag of product a*b, right division (x*a = b) and left division (a*y = b)
    that leaves the set."""
    if not L.is_loop:
        raise NotALoop("subloop tests need a full loop")
    member = _mark(L.order, subset)
    lst = np.flatnonzero(member)
    if not len(lst):
        return ("not-a-subloop",)
    ix = np.ix_(lst, lst)
    bad = [~member[t[ix]] for t in (L.table, L.right_division.T, L.left_division)]
    if not any(m.any() for m in bad):
        return None
    w = first_cell(np.stack(bad, axis=-1))                 # [i, j, tag]
    return ("product", "right-division", "left-division")[w[2]], int(lst[w[0]]), int(lst[w[1]])


def is_subloop(L: FiniteLoop, subset: Iterable[int]) -> bool:
    return subloop_violation(L, subset) is None


def subloop_generated(L: FiniteLoop, seed: Iterable[int]) -> frozenset[int]:
    """Smallest subloop containing the seed.  right_division is indexed
    [b, a], but closure over all pairs of a set is symmetric in the two
    index roles, so it serves as it is."""
    if not L.is_loop:
        raise NotALoop("subloop closure needs a full loop")
    return generated((L.table, L.right_division, L.left_division), [0, *seed], L.order)


def commutant(L: FiniteLoop) -> frozenset[int]:
    """Elements commuting with everything: a with a*x == x*a for all x,
    cached on L."""
    return _cached(L, "commutant", lambda: _commuting(L.table))


def central_translations(L: FiniteLoop) -> tuple[tuple[int, ...], np.ndarray]:
    """groups.verify_translations with (a) and (a') on the loop table and the
    commutant of L as candidates, cached on L: (cs, key), read from the
    table alone.  A map that passes (a) and (a') commutes with every
    translation, so it is x -> x*c with c in Z(L) (R. H. Bruck, Trans. AMS
    60, 1946): the classes are the cosets of Z(L).  Inn's L(x,y), the
    gyrations of a loop with no group source and the associator scan read it."""
    return _cached(L, "central", lambda: verify_translations(L.table, sorted(commutant(L))))


def _coset_congruence(T: np.ndarray, lst: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(reps, proj, qtable) of the quotient by the subloop N = lst when its
    cosets x*N, labeled by least element (groups._coset_labels), form a
    congruence of the table T, else NotWellDefined with the least x whose
    coset is not that of its least element r, ("coset-overlap", x, r), or
    else the cell (a, b) least in the order (coset of a, coset of b, a, b)
    whose product leaves the coset of the product of their least elements.
    """
    rep_values, proj = _coset_labels(T, lst)
    sets_sorted = np.sort(T[:, lst], axis=1)
    reps_of_elem = rep_values[proj]
    overlap = first_cell((sets_sorted != sets_sorted[reps_of_elem]).any(axis=1))
    if overlap is not None:
        x = overlap[0]
        raise NotWellDefined(("coset-overlap", x, int(reps_of_elem[x])))
    qtable = proj[T[np.ix_(rep_values, rep_values)]]
    bad = proj[T] != qtable[proj[:, None], proj]
    if bad.any():
        a, b = np.nonzero(bad)                          # row-major (a, b) order
        k = int(np.argmin(proj[a].astype(np.int64) * len(rep_values) + proj[b]))
        raise NotWellDefined((int(a[k]), int(b[k])))
    return rep_values, proj, qtable


def _congruence(L: FiniteLoop, lst: list[int]):
    """_coset_congruence(L.table, lst), or its NotWellDefined raised again,
    computed once per set of L."""
    return _cached(L, ("congruence", frozenset(lst)),
                   lambda: _coset_congruence(L.table, lst), keep=(NotWellDefined,))


def normal_subloop_violation(L: FiniteLoop, N: Iterable[int]):
    """First failure of x*N == N*x, x*(y*N) == (x*y)*N, (N*x)*y == N*(x*y).

    Returns None when N is normal, else a tagged witness tuple.  Cosets are
    compared as sets.  Rows and columns of a loop are permutations, so both
    sides of each identity have |N| distinct elements and equality is
    containment: one membership table in_N[u, v] (v in u*N) decides the
    cosets, and once u*N == N*u for every u, both product tests.

    N is normal exactly when its cosets x*N form a congruence (R. H. Bruck,
    Trans. AMS 60, 1946), which _congruence tests in O(n^2).  A refused N
    is scanned over every x for its least product-left, then product-right,
    witness; a refused N with neither breaks that theorem.
    """
    S = frozenset(int(x) for x in N)
    w = subloop_violation(L, S)
    if w is not None:
        raise NotASubloop(w)
    lst = sorted(S)
    n, T = L.order, L.table
    xN = T[:, lst]                                      # [x, i] -> x*n_i
    Nx = T[lst, :].T                                    # [x, i] -> n_i*x
    ar = np.arange(n)
    in_N = np.zeros((n, n), dtype=bool)                 # in_N[u, v]: v in u*N
    in_N[ar[:, None], xN] = True

    bad = first_cell(~in_N[ar[:, None], Nx].all(axis=1))
    if bad is not None:
        return ("left-right-coset",) + bad
    try:
        _congruence(L, lst)
        return None
    except NotWellDefined:
        pass

    # each slab is [y, i], reduced over i to the mask of the failing y
    def left(x):                                        # x*(y*N) != (x*y)*N
        return ~in_N[T[x, :, None], T[x][xN]].all(axis=1)

    def right(x):                                       # (N*x)*y != N*(x*y)
        return ~in_N[T[x, :, None], T[Nx[x]].T].all(axis=1)

    for tag, slab in (("product-left", left), ("product-right", right)):
        w = first_violation(n, slab)
        if w is not None:
            return (tag,) + w
    raise InvariantViolated(f"cosets of {lst} form no congruence, yet no product test fails")


def quotient_loop(L: FiniteLoop, N: Iterable[int],
                  name: str = "") -> tuple[FiniteLoop, np.ndarray]:
    """Quotient by a normal subloop; returns (Q, projection).

    Cosets x*N are labeled by least element index and verified cell by
    cell (_congruence): a non-normal N raises its NotWellDefined.
    """
    S = frozenset(int(x) for x in N)
    w = subloop_violation(L, S)
    if w is not None:
        raise NotASubloop(w)
    rep_values, proj, qtable = _congruence(L, sorted(S))
    qnames = [f"[{L.names[int(r)]}]" for r in rep_values]
    Q = loop_from_table(qtable, names=qnames, lenient=True,
                        name=name or f"{L.name}/N")
    return Q, proj
