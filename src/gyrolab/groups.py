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
from .perms import RowIndex, _mulclose, base_table

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


def first_cell(mask: np.ndarray) -> tuple[int, ...] | None:
    """The least True cell of a mask of any rank, in row-major order, else None.

    This is the one witness rule of the package.  The mask may be a
    transposed view: any() reads it in memory order, and only a failing
    mask is copied, by argmax, to find its first cell."""
    if not mask.any():
        return None
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(mask)), mask.shape))


def first_violations(n: int, count: int, slab) -> list[tuple[int, ...] | None]:
    """The least witness (x, ...) of each of count masks, else None.

    slab(x, open) returns a tuple of count failure masks for one x, where
    open[k] says whether mask k still lacks a witness; a mask that is not
    open is never read, so slab may skip computing it (and return None in
    its place).  The witness of mask k is x followed by first_cell of the
    k-th mask at the least x where it has a True cell.  The scan stops once
    every mask has a witness.  slab may return the same buffers on every
    call: each mask is read before slab is called again.  Every cubic scan
    that looks for a witness goes through here.
    """
    found: list = [None] * count
    for x in range(n):
        open_ = tuple(w is None for w in found)
        for k, mask in enumerate(slab(x, open_)):
            if open_[k] and (cell := first_cell(mask)) is not None:
                found[k] = (x,) + cell
        if None not in found:
            break
    return found


def first_violation(n: int, slab) -> tuple[int, ...] | None:
    """Least (x, ...) with a True cell in the one mask slab(x), else None."""
    return first_violations(n, 1, lambda x, _open: (slab(x),))[0]


def pair_slabs(values: np.ndarray, index: np.ndarray):
    """slab(x) for first_violation: the [y, z] mask of
    values[index[x, y], z] != values[x, index[y, z]].

    With values = index = T it is (x y) z != x (y z).  The left side reads
    the rows of values taken by row x of index, the right side row x of
    values taken by all of index; both read whole contiguous rows.  Every
    call writes into the same three n x n buffers, allocated here once, with
    one intp copy of index as the take indices.
    """
    V = np.ascontiguousarray(values)
    n = V.shape[0]
    idx = index_table(index, n)
    lhs = np.empty_like(V)
    rhs = np.empty_like(V)
    bad = np.empty((n, n), dtype=bool)

    def slab(x):
        np.take(V, idx[x], axis=0, out=lhs, mode="clip")
        np.take(V[x], idx, out=rhs, mode="clip")
        return np.not_equal(lhs, rhs, out=bad)
    return slab


def associativity_violation(table: np.ndarray) -> tuple[int, int, int] | None:
    """First (a, b, c) with (ab)c != a(bc) in lexicographic order, else None."""
    return first_violation(len(table), pair_slabs(table, table))


def _mark(n: int, values) -> np.ndarray:
    """The length-n mask of values: an index array read from a table, or an
    iterable of ints, which must lie in 0..n-1 (a negative index would wrap)."""
    if not isinstance(values, np.ndarray):
        values = [int(v) for v in values]
        if not all(0 <= v < n for v in values):
            raise IndexError(f"element indices must lie in 0..{n - 1}")
    mask = np.zeros(n, dtype=bool)
    mask[values] = True
    return mask


def generated(tables: Sequence[np.ndarray], seed, n: int) -> frozenset[int]:
    """The least subset of 0..n-1 that holds seed and every t[a, b] with a, b
    in it, for each n x n table t.

    Semi-naive: each round takes only the pairs with at least one element
    that the round before added, and marks the products in a mask.  seed is
    an index array or an iterable of ints; repeats cost nothing.
    """
    member = _mark(n, seed)
    new = np.flatnonzero(member)
    while len(new):
        cur = np.flatnonzero(member)
        hit = np.zeros(n, dtype=bool)
        for t in tables:
            hit[t[np.ix_(new, cur)]] = True
            hit[t[np.ix_(cur, new)]] = True
        hit &= ~member
        member |= hit
        new = np.flatnonzero(hit)
    return frozenset(np.flatnonzero(member).tolist())


def closed_under(tables: Sequence[np.ndarray], members, n: int) -> bool:
    """Whether t[a, b] lies in members for all a, b in members and every table t."""
    member = _mark(n, members)
    lst = np.flatnonzero(member)
    return all(member[t[np.ix_(lst, lst)]].all() for t in tables)


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
            hit = _mark(n, table[np.ix_(frontier, gens)])
            frontier = np.flatnonzero(hit & ~reached)
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
        cell = first_cell((arr < 0) | (arr >= n))
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
                            name: str = "") -> FiniteGroup:
    """Close a generating set of permutations under composition.

    Permutations are image lists acting on the left.  Enumeration is
    breadth-first starting from the identity, which makes element indices
    deterministic; the table is read from the elements' base images
    (perms.base_table).  Raises OrderCapExceeded past order_cap().
    """
    rows: list[tuple[int, ...]] = []
    for gi, g in enumerate(generators):
        t = tuple(int(v) for v in g)
        if len(t) != degree or sorted(t) != list(range(degree)):
            raise NotABijection("generator", gi)
        rows.append(t)
    gens = RowIndex(degree, np.int32)
    gens.add(np.array(rows, dtype=np.int32).reshape(-1, degree))

    E = _mulclose(gens.rows, degree, order_cap()).rows
    table = base_table(gens.rows, E)
    return _group_unchecked(table, _default_names(len(E)),
                            name=name or f"perm-closure-{degree}")


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
    """Whether subset holds the identity and is closed under the product;
    a finite such set holds every inverse too."""
    S = frozenset(int(s) for s in subset)
    return 0 in S and closed_under([G.table], S, G.order)


def subgroup_generated(G: FiniteGroup, seed: Iterable[int]) -> frozenset[int]:
    """Smallest subgroup containing the seed: its closure under the product,
    with the identity (a finite closed set holds every inverse)."""
    return generated([G.table], [0, *seed], G.order)


def group_center(G: FiniteGroup) -> frozenset[int]:
    mask = (G.table == G.table.T).all(axis=1)
    return frozenset(int(i) for i in np.flatnonzero(mask))


def derived_subgroup(G: FiniteGroup) -> frozenset[int]:
    return generated([G.table], G.commutator_table().ravel(), G.order)


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
        nxt = generated([G.table], cm[sorted(series[-1]), :].ravel(), G.order)
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
    w = first_cell(cm[cm, np.arange(G.order)] != 0)
    return w is None, w


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
    conj = G.table[G.table[:, lst], G.inverse[:, None]]  # [g, k] -> g s_k g^-1
    w = first_cell(~_mark(G.order, lst)[conj])
    return None if w is None else (w[0], lst[w[1]])


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
