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
    NoIdentity,
    NotALoop,
    NotASubloop,
    NotRightLoop,
    NotWellDefined,
)
from .groups import (
    FiniteGroup,
    _default_names,
    _find_identity,
    _relabel,
    associativity_violation,
    is_index_perm,
    offset_dtype,
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

    Strict mode requires a two-sided identity and permutation columns and
    raises NoIdentity / NotRightLoop otherwise.  Lenient mode tolerates
    defective rows/columns (flags come back false and the corresponding
    division table is None) so that broken tables remain inspectable; an
    identity is required in both modes.
    """
    arr = np.ascontiguousarray(np.asarray(table, dtype=np.int64))
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("multiplication table must be a square matrix")
    n = arr.shape[0]
    if n == 0 or arr.min() < 0 or arr.max() >= n:
        raise ValueError("table entries must be element indices")
    arr = arr.astype(np.int32)
    name_list = list(names) if names is not None else _default_names(n)

    e = _find_identity(arr)
    if e is None:
        raise NoIdentity()
    if e != 0:
        arr, name_list = _relabel(arr, name_list, e)

    ar = np.arange(n)
    cols_ok = bool((np.sort(arr, axis=0) == ar[:, None]).all())
    rows_ok = bool((np.sort(arr, axis=1) == ar).all())
    if not cols_ok and not lenient:
        bad = next(j for j in range(n) if not is_index_perm(arr[:, j]))
        raise NotRightLoop(bad)

    rdiv = ldiv = None
    if cols_ok:
        rdiv = np.empty((n, n), dtype=np.int32)
        for a in range(n):
            inv_col = np.empty(n, dtype=np.int32)
            inv_col[arr[:, a]] = ar
            rdiv[:, a] = inv_col
    if rows_ok:
        ldiv = np.empty((n, n), dtype=np.int32)
        for a in range(n):
            inv_row = np.empty(n, dtype=np.int32)
            inv_row[arr[a]] = ar
            ldiv[a] = inv_row
    return FiniteLoop(arr, name_list, cols_ok, cols_ok and rows_ok,
                      rdiv, ldiv, name=name)


def loop_from_group(G: FiniteGroup) -> FiniteLoop:
    """View a group table as a loop (trivially valid)."""
    return loop_from_table(np.array(G.table), names=G.names, name=G.name)


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


# The group-table scan needs only the table, so loop tables use it as is.
table_associativity_violation = associativity_violation


# ---------------------------------------------------------------------------
# subloops, normality, quotients

def is_subloop(L: FiniteLoop, subset: Iterable[int]) -> bool:
    """Closure of a subset under the product and both divisions."""
    if not L.is_loop:
        raise NotALoop("subloop tests need a full loop")
    S = frozenset(int(x) for x in subset)
    if not S:
        return False
    lst = sorted(S)
    # right_division is indexed [b, a], but closure over all pairs from S is
    # symmetric in the two index roles, so np.ix_ works for all three tables
    for tab in (L.table, L.right_division, L.left_division):
        if not all(int(v) in S for v in np.unique(tab[np.ix_(lst, lst)])):
            return False
    return True


def subloop_generated(L: FiniteLoop, seed: Iterable[int]) -> frozenset[int]:
    """Smallest subloop containing the seed."""
    if not L.is_loop:
        raise NotALoop("subloop closure needs a full loop")
    members = {0} | {int(x) for x in seed}
    while True:
        lst = sorted(members)
        new: set[int] = set()
        for tab in (L.table, L.right_division, L.left_division):
            for v in np.unique(tab[np.ix_(lst, lst)]).tolist():
                if v not in members:
                    new.add(int(v))
        if not new:
            return frozenset(members)
        members |= new


def subloop_witness(L: FiniteLoop, S: frozenset[int]) -> tuple:
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


def normal_subloop_violation(L: FiniteLoop, N: Iterable[int]):
    """First failure of x*N == N*x, x*(y*N) == (x*y)*N, (N*x)*y == N*(x*y).

    Returns None when N is normal, else a tagged witness tuple.  Cosets are
    compared as sets.  Rows and columns of a loop are permutations, so both
    sides of each product identity have |N| distinct elements and equality
    is containment.  Once u*N == N*u for every u, one membership table
    in_N[u, v] (v in u*N, which is N*u) serves both product tests.
    """
    S = frozenset(int(x) for x in N)
    if not is_subloop(L, S):
        raise NotASubloop(subloop_witness(L, S))
    lst = sorted(S)
    n = L.order
    T = L.table.astype(offset_dtype(n), copy=False)
    xN = T[:, lst]                                      # [x, i] -> x*n_i
    Nx = T[lst, :].T                                    # [x, i] -> n_i*x

    eq = (np.sort(xN, axis=1) == np.sort(Nx, axis=1)).all(axis=1)
    if not eq.all():
        return ("left-right-coset", int(np.argmax(~eq)))

    # flat: offset u*n + v; the slabs below are [i, y] with u = x*y
    in_N = np.zeros((n, n), dtype=bool)
    in_N[np.arange(n)[:, None], xN] = True
    in_N = in_N.ravel()

    yN = np.ascontiguousarray(xN.T)                     # [i, y] -> y*n_i
    for x in range(n):
        ok = in_N.take(T[x].take(yN) + T[x] * n).all(axis=0)
        if not ok.all():                                # x*(y*N) != (x*y)*N
            return ("product-left", x, int(np.argmax(~ok)))

    for x in range(n):
        ok = in_N.take(T.take(Nx[x], axis=0) + T[x] * n).all(axis=0)
        if not ok.all():                                # (N*x)*y != N*(x*y)
            return ("product-right", x, int(np.argmax(~ok)))
    return None


def is_normal_subloop(L: FiniteLoop, N: Iterable[int]) -> bool:
    return normal_subloop_violation(L, N) is None


def quotient_loop(L: FiniteLoop, N: Iterable[int],
                  name: str = "") -> tuple[FiniteLoop, np.ndarray]:
    """Quotient by a normal subloop; returns (Q, projection).

    Cosets x*N are labeled by least element index.  Well-definedness is
    verified cellwise: for each pair of cosets every representative product
    must land in the same coset, otherwise NotWellDefined carries the first
    offending cell (a non-normal N surfaces here).
    """
    S = frozenset(int(x) for x in N)
    if not is_subloop(L, S):
        raise NotASubloop(subloop_witness(L, S))
    lst = sorted(S)
    n = L.order
    T = L.table

    coset_rows = T[:, lst]                               # x*N as rows
    reps_of_elem = coset_rows.min(axis=1)
    # cosets of a normal subloop partition the set; verify to catch bad input
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
    qnames = [f"[{L.names[int(r)]}]" for r in rep_values]
    Q = loop_from_table(qtable, names=qnames, lenient=True,
                        name=name or f"{L.name}/N")
    return Q, proj


def loop_direct_product(A: FiniteLoop, B: FiniteLoop, name: str = "") -> FiniteLoop:
    """Componentwise product with index pairing (a, b) -> a*|B| + b."""
    nb = B.order
    n = A.order * nb
    table = (A.table[:, None, :, None].astype(np.int64) * nb
             + B.table[None, :, None, :]).reshape(n, n)
    names = [f"{na}|{nbm}" for na in A.names for nbm in B.names]
    names[0] = "e"
    return loop_from_table(table, names=names, lenient=True,
                           name=name or f"{A.name}x{B.name}")
