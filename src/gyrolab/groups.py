"""Finite groups as Cayley tables on element indices 0..n-1.

Conventions used across the package:
  * index 0 is always the identity (tables are relabeled on ingestion),
  * the group commutator is [x, y] = x y x^-1 y^-1,
  * tables are numpy arrays and treated as immutable once constructed.
"""

from __future__ import annotations

import logging
import math
import os
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    InvariantViolated,
    NoIdentity,
    NotABijection,
    NotAssociative,
    NotASubgroup,
    NotLatinSquare,
    NotNormal,
    OrderCapExceeded,
)
from .perms import RowIndex, _mulclose, composites

log = logging.getLogger(__name__)

DEFAULT_ORDER_CAP = 10_000
ORDER_CAP_ENV = "GYROLAB_ORDER_CAP"


def order_cap() -> int:
    """Element-count guard for closures and products; override via GYROLAB_ORDER_CAP."""
    raw = os.environ.get(ORDER_CAP_ENV, "").strip()
    return int(raw) if raw else DEFAULT_ORDER_CAP


def check_order_cap(size: int, what: str = "order") -> None:
    """Refuse a declared or constructed size past order_cap() before any
    n x n work; the message names the size, e.g. "order 729 exceeds cap 100"."""
    cap = order_cap()
    if size > cap:
        raise OrderCapExceeded(cap, size, f"{what} {size} exceeds cap {cap}")


class FiniteGroup:
    """A finite group given by its multiplication table.

    table[i, j] is the index of x_i * x_j.  inverse[i] is the two-sided
    inverse.  names are display labels; name lookup is exact-string.
    """

    __slots__ = ("order", "table", "names", "inverse", "name", "relabeled_from",
                 "_name_index", "_cache")

    def __init__(self, table: np.ndarray, names: Sequence[str],
                 inverse: np.ndarray, name: str = ""):
        self.order = int(table.shape[0])
        self.table = table
        self.names = tuple(names)
        self.inverse = inverse
        self.name = name
        self.relabeled_from: int | None = None
        self._name_index = {nm: i for i, nm in enumerate(self.names)}
        self._cache: dict = {}
        table.setflags(write=False)
        inverse.setflags(write=False)

    def __repr__(self) -> str:
        label = self.name or "FiniteGroup"
        return f"<{label} of order {self.order}>"

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv(a), -k
        acc = 0
        for _ in range(k):
            acc = int(self.table[acc, a])
        return acc

    def element_order(self, a: int) -> int:
        x, k = a, 1
        while x != 0:
            x = int(self.table[x, a])
            k += 1
        return k

    def index_of(self, name: str) -> int:
        return self._name_index[name]

    def power_array(self, k: int) -> np.ndarray:
        """Vectorized k-th power of every element (k >= 0)."""
        key = ("pow", k)
        if key not in self._cache:
            ar = np.arange(self.order)
            acc = np.zeros(self.order, dtype=self.table.dtype)
            for _ in range(k):
                acc = self.table[acc, ar]
            self._cache[key] = acc
        return self._cache[key]

    def commutator_table(self) -> np.ndarray:
        """CM[a, b] = a b a^-1 b^-1 for all pairs, as an n x n array."""
        if "cm" not in self._cache:
            n = self.order
            inv_rows = np.broadcast_to(self.inverse[:, None], (n, n))
            inv_cols = np.broadcast_to(self.inverse[None, :], (n, n))
            ab = self.table
            ab_ainv = self.table[ab, inv_rows]
            self._cache["cm"] = self.table[ab_ainv, inv_cols]
        return self._cache["cm"]

    @property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))


def group_commutator(G: FiniteGroup, x: int, y: int) -> int:
    """[x, y] = x y x^-1 y^-1."""
    return G.mul(G.mul(G.mul(x, y), G.inv(x)), G.inv(y))


# ---------------------------------------------------------------------------
# construction and validation

def _first_nonperm_cell(line: np.ndarray) -> tuple[int, int]:
    """Position and value of the first repeated entry in a 1-d line."""
    seen: set[int] = set()
    for pos, v in enumerate(line.tolist()):
        if v in seen:
            return pos, v
        seen.add(v)
    raise AssertionError("line was a permutation after all")


def _check_latin(table: np.ndarray) -> None:
    n = table.shape[0]
    ar = np.arange(n)
    if not (np.sort(table, axis=1) == ar).all():
        for i in range(n):
            if not is_index_perm(table[i]):
                pos, v = _first_nonperm_cell(table[i])
                raise NotLatinSquare("row", i, (i, pos), v)
    if not (np.sort(table, axis=0) == ar[:, None]).all():
        for j in range(n):
            if not is_index_perm(table[:, j]):
                pos, v = _first_nonperm_cell(table[:, j])
                raise NotLatinSquare("column", j, (pos, j), v)


def is_index_perm(line: np.ndarray) -> bool:
    n = len(line)
    return bool((np.bincount(line, minlength=n) == 1).all())


def offset_dtype(n: int):
    """Integer dtype for flat offsets i*n + j into an n x n table: int32
    whenever n*n fits, which halves the bytes a slab moves."""
    return np.int32 if n * n <= np.iinfo(np.int32).max else np.intp


def elem_dtype(n: int):
    """Compact dtype for element indices 0..n-1: uint16 while n <= 65535,
    otherwise int32.  Under NEP 50 a uint16 array times n stays uint16 and
    wraps, so cast to offset_dtype(n) before forming any offset i*n + j.

    These dtypes are for values.  An array passed as the indices of
    np.take is intp (see index_table): numpy copies any other index array
    into a fresh intp array on every call.
    """
    return np.uint16 if n <= np.iinfo(np.uint16).max else np.int32


def index_table(table, n: int) -> np.ndarray:
    """An intp copy of a table of indices into 0..n-1, built once per scan.

    The scans take with mode="clip" and out=, the one mode in which numpy
    writes straight into out ("raise" gathers into a fresh buffer first),
    so the range that "raise" would check is checked here, once.
    """
    idx = np.array(table, dtype=np.intp, order="C")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"index table has entries outside 0..{n - 1}")
    return idx


def first_violation(n: int, slab) -> tuple[int, int, int] | None:
    """Least (x, y, z) in lexicographic order with slab(x)[y, z] True, else None.

    slab(x) returns the n x n boolean failure mask of one x; the scan stops
    at the first x whose mask has a True cell.  slab may return the same
    buffer on every call: each mask is read before slab is called again.
    The one-witness cubic scans (associativity, the ninth-power identity,
    the commutator expansions) all go through here; the associator scan,
    with two witnesses, reads each mask with _slab_witness.
    """
    for x in range(n):
        w = _slab_witness(x, slab(x))
        if w is not None:
            return w
    return None


def _slab_witness(x: int, bad: np.ndarray) -> tuple[int, int, int] | None:
    """(x, y, z) for the first True cell [y, z] of a square mask, else None.

    The mask may be a transposed view: any() reads it in memory order, and
    only a failing mask is copied, by argmax, to find its first cell."""
    if not bad.any():
        return None
    flat = int(np.argmax(bad))
    n = bad.shape[1]
    return (x, flat // n, flat % n)


def associativity_slabs(table: np.ndarray):
    """slab(x) for first_violation: the [y, z] mask of (x y) z != x (y z).

    (x y) z reads the rows of T taken by row x, and x (y z) row x taken by
    all of T; both read whole contiguous rows.  Every call writes into the
    same three n x n buffers, allocated here once, with one intp copy of T
    as the indices.
    """
    T = np.ascontiguousarray(table)
    n = T.shape[0]
    Ti = index_table(T, n)
    lhs = np.empty_like(T)
    rhs = np.empty_like(T)
    bad = np.empty((n, n), dtype=bool)

    def slab(x):
        np.take(T, Ti[x], axis=0, out=lhs, mode="clip")
        np.take(T[x], Ti, out=rhs, mode="clip")
        return np.not_equal(lhs, rhs, out=bad)
    return slab


def associativity_violation(table: np.ndarray) -> tuple[int, int, int] | None:
    """First (a, b, c) with (ab)c != a(bc) in lexicographic order, else None."""
    return first_violation(len(table), associativity_slabs(table))


def _right_generators(table: np.ndarray) -> list[int]:
    """Greedy set S, in index order, whose left-normed products
    ((s1 s2) s3)... starting from the identity 0 reach every element.

    Reachability grows by right multiplication with S through table lookups
    alone, so nothing here assumes the table is associative.
    """
    n = table.shape[0]
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    gens: list[int] = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        frontier = np.flatnonzero(reached)
        while len(frontier):
            prods = np.unique(table[np.ix_(frontier, gens)])
            frontier = prods[~reached[prods]]
            reached[frontier] = True
    return gens


def _light_associative(table: np.ndarray) -> bool:
    """Light's test (Clifford-Preston 1961, section 1.2) on a Latin table
    with identity 0.

    The set N of a with (xa)y = x(ay) for all x, y holds the identity and is
    closed under the product, so the table is associative exactly when N
    contains a set whose left-normed products reach every element.  Checks
    each a of _right_generators(table): O(n^2) work per generator.
    """
    for a in _right_generators(table):
        if not np.array_equal(table[table[:, a], :], table[:, table[a]]):
            return False
    return True


def _find_identity(table: np.ndarray) -> int | None:
    """The least e whose row and column are both the identity map, else None.

    Only rows with e*0 = 0 can qualify: one in a Latin table."""
    ar = np.arange(table.shape[0])
    cand = np.flatnonzero(table[:, 0] == 0)
    both = (table[cand] == ar).all(axis=1) & (table[:, cand] == ar[:, None]).all(axis=0)
    return int(cand[np.argmax(both)]) if both.any() else None


def _relabel(table: np.ndarray, names: list[str], e: int):
    """Move element e to index 0, keeping the other elements in order."""
    n = table.shape[0]
    old_of_new = np.array([e] + [i for i in range(n) if i != e])
    new_of_old = np.empty(n, dtype=np.int64)
    new_of_old[old_of_new] = np.arange(n)
    new_table = new_of_old[table[np.ix_(old_of_new, old_of_new)]]
    new_names = [names[i] for i in old_of_new]
    return np.ascontiguousarray(new_table.astype(np.int32)), new_names


def _inverse_array(table: np.ndarray) -> np.ndarray:
    # exactly one zero per row once the table is a validated Latin square
    inv = np.argmax(table == 0, axis=1).astype(np.int32)
    if not (table[inv, np.arange(table.shape[0])] == 0).all():
        raise InvariantViolated("a right inverse is not a left inverse")
    return inv


def _default_names(n: int) -> list[str]:
    return ["e"] + [f"x{i}" for i in range(1, n)]


def group_from_table(table, names: Sequence[str] | None = None,
                     name: str = "") -> FiniteGroup:
    """Validate a full multiplication table and wrap it as a FiniteGroup.

    Checks: square shape, entries in range, a two-sided identity (relocated to
    index 0 if found elsewhere), Latin-square rows/columns, and associativity
    by Light's test on a generating set (see _light_associative), which is
    exact.  Only a table that fails it is scanned over all triples, by
    associativity_violation, so NotAssociative carries the lexicographically
    least failing triple.  Use this for untrusted tables; catalog
    constructions go through the cheaper structural path since their tables
    are groups by construction.
    """
    arr = np.ascontiguousarray(np.asarray(table, dtype=np.int64))
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("multiplication table must be a square matrix")
    n = arr.shape[0]
    if n == 0:
        raise NoIdentity()
    if arr.min() < 0 or arr.max() >= n:
        flat = int(np.argmax((arr < 0) | (arr >= n)))
        cell = (flat // n, flat % n)
        raise NotLatinSquare("row", cell[0], cell, int(arr[cell]))
    arr = arr.astype(np.int32)
    name_list = list(names) if names is not None else _default_names(n)
    if len(name_list) != n:
        raise ValueError(f"expected {n} names, got {len(name_list)}")

    e = _find_identity(arr)
    if e is None:
        raise NoIdentity()
    relabeled_from = None
    if e != 0:
        arr, name_list = _relabel(arr, name_list, e)
        relabeled_from = e
        log.info("identity relocated from index %d to 0", e)

    _check_latin(arr)
    if not _light_associative(arr):
        raise NotAssociative(associativity_violation(arr))

    G = FiniteGroup(arr, name_list, _inverse_array(arr), name=name)
    G.relabeled_from = relabeled_from
    return G


def _group_unchecked(table: np.ndarray, names: Sequence[str], name: str = "") -> FiniteGroup:
    """Wrap a table that is a group by construction (catalog, closures, quotients).

    Still performs the cheap structural checks (identity at 0, Latin square);
    skips the O(n^3) associativity scan.
    """
    arr = np.ascontiguousarray(np.asarray(table, dtype=np.int32))
    n = arr.shape[0]
    ar = np.arange(n)
    if not (np.array_equal(arr[0], ar) and np.array_equal(arr[:, 0], ar)):
        raise InvariantViolated("index 0 is not the identity of a constructed table")
    _check_latin(arr)
    return FiniteGroup(arr, names, _inverse_array(arr), name=name)


def group_from_permutations(degree: int, generators: Sequence[Sequence[int]],
                            name: str = "", cap: int | None = None) -> FiniteGroup:
    """Close a generating set of permutations under composition.

    Permutations are image lists acting on the left.  Enumeration is
    breadth-first starting from the identity, which makes element indices
    deterministic.  Raises OrderCapExceeded past the cap (default order_cap()).
    """
    cap = cap if cap is not None else order_cap()
    rows: list[tuple[int, ...]] = []
    for gi, g in enumerate(generators):
        t = tuple(int(v) for v in g)
        if len(t) != degree or sorted(t) != list(range(degree)):
            raise NotABijection("generator", gi)
        rows.append(t)
    gens = RowIndex(degree, np.int32)
    gens.add(np.array(rows, dtype=np.int32).reshape(-1, degree))

    index = _mulclose(gens.rows, degree, cap)
    E = index.rows
    n = len(E)
    table = np.empty((n, n), dtype=np.int32)
    flat = table.reshape(-1)
    lo = 0
    for slab in composites(E, E):                 # E[i] o E[j], j outer: table[j, i]
        flat[lo:lo + len(slab)] = index.add(slab)
        lo += len(slab)
    names = _default_names(n)
    return _group_unchecked(table.T, names, name=name or f"perm-closure-{degree}")


def _product_table(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The componentwise product of two tables, pair (a, b) at index a*|B| + b;
    the order cap is checked before the table is allocated."""
    na, nb = len(A), len(B)
    check_order_cap(na * nb)
    table = A[:, None, :, None].astype(np.int32) * nb + B[None, :, None, :]
    return table.reshape(na * nb, na * nb)


def direct_product(A: FiniteGroup, B: FiniteGroup, name: str = "") -> FiniteGroup:
    """Componentwise product; pair (a, b) gets index a*|B| + b."""
    table = _product_table(A.table, B.table)
    names = [f"{na}|{nbm}" for na in A.names for nbm in B.names]
    names[0] = "e"
    return _group_unchecked(table, names, name=name or f"{A.name}x{B.name}")


# ---------------------------------------------------------------------------
# subgroups, series, centres

def is_subgroup(G: FiniteGroup, subset: Iterable[int]) -> bool:
    S = frozenset(int(s) for s in subset)
    if 0 not in S:
        return False
    lst = sorted(S)
    prods = G.table[np.ix_(lst, lst)]
    if not all(int(v) in S for v in np.unique(prods)):
        return False
    return all(G.inv(a) in S for a in lst)


def subgroup_generated(G: FiniteGroup, seed: Iterable[int]) -> frozenset[int]:
    """Smallest subgroup containing the seed (breadth-first closure)."""
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


def group_center(G: FiniteGroup) -> frozenset[int]:
    mask = (G.table == G.table.T).all(axis=1)
    return frozenset(int(i) for i in np.flatnonzero(mask))


def derived_subgroup(G: FiniteGroup) -> frozenset[int]:
    values = np.unique(G.commutator_table())
    return subgroup_generated(G, (int(v) for v in values))


def lower_central_series(G: FiniteGroup) -> list[frozenset[int]]:
    """gamma_1 = G, gamma_{i+1} = <[gamma_i, G]>; stops when stable.

    Computed once per group and cached; each call returns a new list.
    """
    if "lcs" not in G._cache:
        G._cache["lcs"] = _lower_central_series(G)
    return list(G._cache["lcs"])


def _lower_central_series(G: FiniteGroup) -> tuple[frozenset[int], ...]:
    series = [frozenset(range(G.order))]
    cm = G.commutator_table()
    while True:
        values = np.unique(cm[sorted(series[-1]), :])
        nxt = subgroup_generated(G, (int(v) for v in values))
        if nxt == series[-1]:
            break
        series.append(nxt)
        if nxt == frozenset({0}):
            break
    return tuple(series)


def nilpotency_class(G: FiniteGroup) -> int | None:
    """Nilpotency class via the lower central series; None if not nilpotent."""
    series = lower_central_series(G)
    if series[-1] == frozenset({0}):
        return len(series) - 1
    return None


def subset_exponent(G: FiniteGroup, subset: Iterable[int]) -> int:
    """lcm of the element orders of a subgroup."""
    S = sorted(frozenset(int(s) for s in subset))
    if not is_subgroup(G, S):
        witness = _subgroup_witness(G, frozenset(S))
        raise NotASubgroup(witness)
    exp = 1
    for a in S:
        exp = math.lcm(exp, G.element_order(a))
    return exp


def _subgroup_witness(G: FiniteGroup, S: frozenset[int]) -> tuple:
    if 0 not in S:
        return ("identity-missing",)
    for a in sorted(S):
        if G.inv(a) not in S:
            return ("inverse", a)
        for b in sorted(S):
            if G.mul(a, b) not in S:
                return ("product", a, b)
    return ("not-a-subgroup",)


def is_two_engel(G: FiniteGroup) -> tuple[bool, tuple[int, int] | None]:
    """Whether [[x, y], y] = e for all x, y; witness is the first failing pair."""
    cm = G.commutator_table()
    n = G.order
    cols = np.broadcast_to(np.arange(n)[None, :], (n, n))
    vals = cm[cm, cols]
    if (vals == 0).all():
        return True, None
    flat = int(np.argmax(vals != 0))
    return False, (flat // n, flat % n)


def group_exponent(G: FiniteGroup) -> int:
    exp = 1
    for a in range(G.order):
        exp = math.lcm(exp, G.element_order(a))
    return exp


# ---------------------------------------------------------------------------
# quotients and subgroup reindexing

def normality_violation(G: FiniteGroup, S: Sequence[int]) -> tuple[int, int] | None:
    """First (g, s) with g s g^-1 outside S, scanning g then s ascending."""
    lst = sorted(int(s) for s in S)
    n = G.order
    member = np.zeros(n, dtype=bool)
    member[lst] = True
    gs = G.table[:, lst]                                  # [g, k] -> g * s_k
    conj = G.table[gs, G.inverse[:, None]]                # [g, k] -> g s_k g^-1
    bad = ~member[conj]
    if not bad.any():
        return None
    flat = int(np.argmax(bad))
    return (flat // len(lst), lst[flat % len(lst)])


def _coset_labels(table: np.ndarray, members: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(reps, proj) for the cosets x*N of N = members: reps holds the least
    element of each coset, ascending, and proj[x] is the position in reps of
    the least element of x*N, so the coset of the identity is label 0."""
    reps, proj = np.unique(table[:, members].min(axis=1), return_inverse=True)
    return reps, proj.astype(np.int32)


def quotient_group(G: FiniteGroup, N: Iterable[int],
                   name: str = "") -> tuple[FiniteGroup, np.ndarray]:
    """Quotient by a normal subgroup; returns (Q, projection).

    Cosets are labeled by their least element index, sorted ascending, so the
    coset of the identity is index 0 and labeling is deterministic.
    """
    S = frozenset(int(x) for x in N)
    if not is_subgroup(G, S):
        raise NotASubgroup(_subgroup_witness(G, S))
    bad = normality_violation(G, sorted(S))
    if bad is not None:
        raise NotNormal(bad)

    rep_values, proj = _coset_labels(G.table, sorted(S))
    qtable = proj[G.table[np.ix_(rep_values, rep_values)]]
    qnames = [f"[{G.names[int(r)]}]" for r in rep_values]
    Q = _group_unchecked(qtable, qnames, name=name or f"{G.name}/N")
    return Q, proj


def subgroup_as_group(G: FiniteGroup, S: Iterable[int],
                      name: str = "") -> tuple[FiniteGroup, list[int]]:
    """Reindex a subgroup as a standalone group; returns (H, member_list).

    member_list[i] is the G-index of H's element i; members are sorted, so the
    identity keeps index 0.
    """
    Sf = frozenset(int(x) for x in S)
    if not is_subgroup(G, Sf):
        raise NotASubgroup(_subgroup_witness(G, Sf))
    lst = sorted(Sf)
    local = np.empty(G.order, dtype=np.int32)
    local[lst] = np.arange(len(lst))
    table = local[G.table[np.ix_(lst, lst)]]
    names = [G.names[g] for g in lst]
    H = _group_unchecked(table, names, name=name or f"{G.name}-sub{len(lst)}")
    return H, lst
