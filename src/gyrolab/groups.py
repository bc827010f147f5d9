"""Finite groups as Cayley tables on element indices 0..n-1.

Conventions used across the package:
  * index 0 is always the identity (tables are relabeled on ingestion),
  * the group commutator is [x, y] = x y x^-1 y^-1,
  * tables are numpy arrays of elem_dtype(n), treated as immutable once
    constructed,
  * a value computed from one group or loop and kept for later calls goes
    through _cached, the one memo of the package, into the object's _cache;
    every caller shares it, so its arrays are read-only.
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
from .perms import RowIndex, _mulclose, base_table, elem_dtype

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


def _cached(obj, key, fn, keep=()):
    """fn(), computed once per key in obj._cache and shared by every later
    call.  An ndarray in the value, itself or an item of a tuple, is made
    read-only.  An exception of a type in keep is stored and raised again,
    with no traceback: it holds no frame of fn and grows none per hit."""
    cache = obj._cache
    if key not in cache:
        try:
            value = fn()
        except keep as exc:
            value = exc.with_traceback(None)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                item.setflags(write=False)
        cache[key] = value
    value = cache[key]
    if isinstance(value, keep):
        raise value.with_traceback(None)
    return value


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
        """Vectorized k-th power of every element (k >= 0), cached."""
        def powers():
            ar = np.arange(self.order)
            acc = np.zeros(self.order, dtype=self.table.dtype)
            for _ in range(k):
                acc = self.table[acc, ar]
            return acc
        return _cached(self, ("pow", k), powers)

    def commutator_table(self) -> np.ndarray:
        """CM[a, b] = a b a^-1 b^-1 for all pairs, as an n x n array, cached."""
        def commutators():
            n = self.order
            inv_rows = np.broadcast_to(self.inverse[:, None], (n, n))
            inv_cols = np.broadcast_to(self.inverse[None, :], (n, n))
            ab_ainv = self.table[self.table, inv_rows]
            return self.table[ab_ainv, inv_cols]
        return _cached(self, "cm", commutators)

    @property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))


# ---------------------------------------------------------------------------
# construction and validation

def latin_violation(table: np.ndarray) -> tuple[str, int, tuple[int, int], int] | None:
    """None when every row and column of an n x n table is a permutation of
    0..n-1, else (axis, index, cell, value) of the first row that is not, or
    of the first column when every row is: the cell and value of the first
    entry of that line that repeats an earlier one.  The failing line is
    read off the sorted masks; a stable argsort of that one line puts each
    repeat after the first of its value."""
    n = table.shape[0]
    ar = np.arange(n)
    for axis, k, sorted_line in (("row", 1, ar), ("column", 0, ar[:, None])):
        bad = first_cell((np.sort(table, axis=k) != sorted_line).any(axis=k))
        if bad is None:
            continue
        i = bad[0]
        line = table[i] if k else table[:, i]
        order = np.argsort(line, kind="stable")
        later = order[1:][line[order[1:]] == line[order[:-1]]]
        if not len(later):
            raise InvariantViolated(f"{axis} {i} has an entry outside 0..{n - 1}")
        pos = int(later.min())
        return axis, i, ((i, pos) if k else (pos, i)), int(line[pos])
    return None


def _check_latin(table: np.ndarray) -> None:
    w = latin_violation(table)
    if w is not None:
        raise NotLatinSquare(*w)


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


def first_violation(n: int, slab) -> tuple[int, ...] | None:
    """The least witness (s,) + first_cell(slab(s)) over s = 0..n-1, else
    None: the one witness loop of the package.  It stops at the first s
    whose mask has a True cell; slab may return the same buffer on every
    call."""
    for s in range(n):
        if (cell := first_cell(slab(s))) is not None:
            return (s,) + cell
    return None


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
    """First (a, b, c) with (ab)c != a(bc) in lexicographic order, else None:
    the one associativity test.  A table whose row 0 and column 0 are the
    identity map is decided by Light's test; only a table that it refuses,
    or one without that identity, is scanned, over every a."""
    T = np.ascontiguousarray(table)
    ar = np.arange(len(T))
    if np.array_equal(T[0], ar) and np.array_equal(T[:, 0], ar) and _light_associative(T):
        return None
    return first_violation(len(T), pair_slabs(T, T))


def _mark(n: int, values) -> np.ndarray:
    """The length-n mask of values: an index array read from a table, or an
    iterable of ints, which must lie in 0..n-1 (a negative index would wrap)."""
    if isinstance(values, np.ndarray):
        out_of_range = values.size and (values.min() < 0 or values.max() >= n)
    else:
        values = [int(v) for v in values]
        out_of_range = not all(0 <= v < n for v in values)
    if out_of_range:
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


def _least_reached(maps, n: int) -> np.ndarray:
    """key[x], the least element that compositions of maps reach from x, x
    included.  A pass lowers key[x] to key[rho^j x], j < 2^k, by squaring
    each rho k times; once a pass changes nothing, key[x] <= key[rho x]."""
    key = np.arange(n, dtype=elem_dtype(n))
    steps = max(n - 1, 1).bit_length()
    while True:
        before = key.copy()
        for rho in maps:
            for _ in range(steps):
                np.minimum(key, key[rho], out=key)
                rho = rho[rho]
        if np.array_equal(key, before):
            return key


def verify_translations(table: np.ndarray, candidates, cm: np.ndarray | None = None):
    """(cs, key): the candidates c, ascending, whose rho = table[:, c] is kept
    because it passes on every cell
      (a)  T[rho p, z] == rho T[p, z],      (a') T[p, rho z] == rho T[p, z],
    and, given a commutator table, leaves its rows and columns unchanged,
      (r)  cm[rho x, w] == cm[x, w],        (c)  cm[w, rho x] == cm[w, x];
    key[x] (elem_dtype(n)) is the least element that compositions of kept
    maps, which pass each condition too, reach from x.  A c already
    in the class of 0 is skipped, as by (a') a composition phi is x ->
    T[x, phi(0)]: only generators are verified (3 of the 35 c != e of the
    loop commutant of wreath33 x C4, 1 of 728 on cyclic:729).  A failing
    candidate makes the key finer, never wrong.  The tests write into
    n x n buffers allocated once, when the first candidate needs a test."""
    n = len(table)
    cs, key, tests = [], np.arange(n, dtype=elem_dtype(n)), None
    for c in candidates:
        if key[c] == 0:
            continue
        if tests is None:
            Ti, moved, vals = index_table(table, n), np.empty_like(table), np.empty_like(table)
            eq = np.empty((n, n), dtype=bool)
            tests = [(table, 0, moved), (table, 1, moved)]      # (a), (a')
            if cm is not None:
                tests += [(cm, 0, cm), (cm, 1, cm)]               # (r), (c)
        rho = Ti[:, c]
        np.take(table[:, c], Ti, out=moved, mode="clip")        # rho T[p, z]
        if all(np.equal(np.take(t, rho, axis=axis, out=vals, mode="clip"), want, out=eq).all()
               for t, axis, want in tests):
            cs.append(int(c))
            key = _least_reached([Ti[:, k] for k in cs], n)
    return tuple(cs), key


def group_translations(G: FiniteGroup):
    """verify_translations on G's table with the candidates Z(G) and G's
    commutator table, cached on G: the key of the group-side scans."""
    return _cached(G, "central", lambda: verify_translations(
        G.table, sorted(group_center(G)), G.commutator_table()))


def _light_associative(table: np.ndarray) -> bool:
    """Light's test (Clifford-Preston 1961, section 1.2) on a table whose
    row 0 and column 0 are the identity map.  N = {a : (xa)y = x(ay) for all
    x, y} holds 0, and for a, b in N, (x(ab))y = ((xa)b)y = (xa)(by) =
    x(a(by)) = x((ab)y): N is closed under the product in any magma with an
    identity, Latin or not.  So the table is associative exactly when N holds
    a set whose left-normed products from 0 reach every element.  Checks
    each a of _right_generators(table): O(n^2) work per generator."""
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
    new_of_old = np.empty(n, dtype=elem_dtype(n))
    new_of_old[old_of_new] = np.arange(n)
    new_table = new_of_old[table[np.ix_(old_of_new, old_of_new)]]
    new_names = [names[i] for i in old_of_new]
    return new_table, new_names


def _inverse_array(table: np.ndarray) -> np.ndarray:
    # exactly one zero per row once the table is a validated Latin square
    inv = np.argmax(table == 0, axis=1).astype(elem_dtype(len(table)))
    if not (table[inv, np.arange(table.shape[0])] == 0).all():
        raise InvariantViolated("a right inverse is not a left inverse")
    return inv


def _default_names(n: int) -> list[str]:
    return ["e"] + [f"x{i}" for i in range(1, n)]


def _first_repeat(values: Sequence) -> int | None:
    """The least j with values[j] in values[:j], else None."""
    seen = set()
    for j, v in enumerate(values):
        if v in seen:
            return j
        seen.add(v)
    return None


def _table_front_end(table, names: Sequence[str] | None):
    """The checks group_from_table and loop_from_table share: a square,
    nonempty table of an integer dtype (a cast would truncate floats), its
    entries in 0..n-1 (checked before the one copy into elem_dtype(n)), n
    distinct names and a two-sided identity, moved to index 0.  Returns
    (table, names, the identity's old index or None when it was 0)."""
    arr = np.asarray(table)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("multiplication table must be a square matrix")
    n = arr.shape[0]
    if n == 0:
        raise NoIdentity()
    if arr.dtype.kind not in "iu":
        raise ValueError(f"table entries must be integers, got dtype {arr.dtype}")
    if arr.min() < 0 or arr.max() >= n:
        cell = first_cell((arr < 0) | (arr >= n))
        raise NotLatinSquare("row", cell[0], cell, int(arr[cell]))
    arr = np.array(arr, dtype=elem_dtype(n), order="C")
    name_list = list(names) if names is not None else _default_names(n)
    if len(name_list) != n:
        raise ValueError(f"expected {n} names, got {len(name_list)}")
    j = _first_repeat(name_list)
    if j is not None:
        raise ValueError(f"names[{j}] = {name_list[j]!r} repeats an earlier name")

    e = _find_identity(arr)
    if e is None:
        raise NoIdentity()
    if e == 0:
        return arr, name_list, None
    arr, name_list = _relabel(arr, name_list, e)
    log.info("identity relocated from index %d to 0", e)
    return arr, name_list, e


def group_from_table(table, names: Sequence[str] | None = None,
                     name: str = "") -> FiniteGroup:
    """Validate a full multiplication table and wrap it as a FiniteGroup.

    After _table_front_end come Latin-square rows/columns, and associativity
    by associativity_violation, so NotAssociative carries the
    lexicographically least failing triple.  Use this for untrusted tables;
    catalog constructions go through the cheaper structural path since their
    tables are groups by construction.
    """
    arr, name_list, relabeled_from = _table_front_end(table, names)
    _check_latin(arr)
    if (bad := associativity_violation(arr)) is not None:
        raise NotAssociative(bad)

    G = FiniteGroup(arr, name_list, _inverse_array(arr), name=name)
    G.relabeled_from = relabeled_from
    return G


def _group_unchecked(table: np.ndarray, names: Sequence[str], name: str = "") -> FiniteGroup:
    """Wrap a table that is a group by construction (catalog, closures, quotients).

    Still performs the cheap structural checks (identity at 0, Latin square);
    skips the O(n^3) associativity scan.  A table already in elem_dtype(n)
    is kept as it is; any other is cast once.
    """
    n = len(table)
    arr = np.ascontiguousarray(table, dtype=elem_dtype(n))
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
    gens = RowIndex(degree, elem_dtype(degree))
    gens.add(np.array(rows, dtype=elem_dtype(degree)).reshape(-1, degree))

    E = _mulclose(gens.rows, degree, order_cap()).rows
    table = base_table(gens.rows, E)
    return _group_unchecked(table, _default_names(len(E)),
                            name=name or f"perm-closure-{degree}")


def _product_table(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The componentwise product of two tables, pair (a, b) at index a*|B| + b,
    formed in elem_dtype(|A| |B|); the order cap is checked before the table
    is allocated."""
    na, nb = len(A), len(B)
    check_order_cap(na * nb)
    table = A[:, None, :, None].astype(elem_dtype(na * nb)) * nb + B[None, :, None, :]
    return table.reshape(na * nb, na * nb)


def direct_product(A: FiniteGroup, B: FiniteGroup, name: str = "") -> FiniteGroup:
    """Componentwise product; pair (a, b) gets index a*|B| + b."""
    table = _product_table(A.table, B.table)
    names = [f"{na}|{nbm}" for na in A.names for nbm in B.names]
    names[0] = "e"
    return _group_unchecked(table, names, name=name or f"{A.name}x{B.name}")


# ---------------------------------------------------------------------------
# subgroups, series, centres

def subgroup_violation(G: FiniteGroup, subset: Iterable[int]) -> tuple | None:
    """None when subset holds the identity and is closed under the product
    (a finite such set holds every inverse too), else ("identity-missing",)
    or, over the sorted members a and then b, the first ("inverse", a) or
    ("product", a, b) that leaves the set.  The inverse orders the witness
    but never decides the verdict."""
    member = _mark(G.order, subset)
    if not member[0]:
        return ("identity-missing",)
    lst = np.flatnonzero(member)
    bad = ~member[G.table[np.ix_(lst, lst)]]           # [i, j]: a_i a_j outside
    row_bad = bad.any(axis=1)
    if not row_bad.any():
        return None
    inv_bad = ~member[G.inverse[lst]]
    i = int(np.argmax(row_bad | inv_bad))
    if inv_bad[i]:
        return ("inverse", int(lst[i]))
    return ("product", int(lst[i]), int(lst[np.argmax(bad[i])]))


def is_subgroup(G: FiniteGroup, subset: Iterable[int]) -> bool:
    return subgroup_violation(G, subset) is None


def subgroup_generated(G: FiniteGroup, seed: Iterable[int]) -> frozenset[int]:
    """Smallest subgroup containing the seed: its closure under the product,
    with the identity (a finite closed set holds every inverse)."""
    return generated([G.table], [0, *seed], G.order)


def _commuting(table: np.ndarray) -> frozenset[int]:
    """The elements a with a*x == x*a for every x of the table."""
    return frozenset(np.flatnonzero((table == table.T).all(axis=1)).tolist())


def group_center(G: FiniteGroup) -> frozenset[int]:
    """Z(G), cached on G."""
    return _cached(G, "center", lambda: _commuting(G.table))


def derived_subgroup(G: FiniteGroup) -> frozenset[int]:
    return generated([G.table], G.commutator_table().ravel(), G.order)


def lower_central_series(G: FiniteGroup) -> list[frozenset[int]]:
    """gamma_1 = G, gamma_{i+1} = <[gamma_i, G]>; stops when stable.

    Computed once per group and cached; each call returns a new list.
    """
    return list(_cached(G, "lcs", lambda: _lower_central_series(G)))


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
    w = subgroup_violation(G, S)
    if w is not None:
        raise NotASubgroup(w)
    exp = 1
    for a in S:
        exp = math.lcm(exp, G.element_order(a))
    return exp


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
    return reps, proj.astype(elem_dtype(len(reps)))


def quotient_group(G: FiniteGroup, N: Iterable[int],
                   name: str = "") -> tuple[FiniteGroup, np.ndarray]:
    """Quotient by a normal subgroup; returns (Q, projection).

    Cosets are labeled by their least element index, sorted ascending, so the
    coset of the identity is index 0 and labeling is deterministic.
    """
    S = frozenset(int(x) for x in N)
    w = subgroup_violation(G, S)
    if w is not None:
        raise NotASubgroup(w)
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
    w = subgroup_violation(G, Sf)
    if w is not None:
        raise NotASubgroup(w)
    lst = sorted(Sf)
    local = np.empty(G.order, dtype=elem_dtype(len(lst)))
    local[lst] = np.arange(len(lst))
    table = local[G.table[np.ix_(lst, lst)]]
    names = [G.names[g] for g in lst]
    H = _group_unchecked(table, names, name=name or f"{G.name}-sub{len(lst)}")
    return H, lst
