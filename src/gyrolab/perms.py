"""Permutations of {0..n-1} as integer image rows, and their closure.

A permutation is the row of its images, and maps act on the left: the
composite g o h is the row g[h].  A set of permutations is a 2-D array with
one image row per permutation.  RowIndex numbers distinct rows exactly (keyed
on their bytes) in first-occurrence order; _mulclose enumerates the group a
set of rows generates, breadth first.  Composites are formed in slabs of at
most CHUNK_CELLS cells, so no step holds every candidate of a closure level.
base_table reads the Cayley table of an enumerated group from the images of
a base, in row blocks of about CHUNK_CELLS cells.  chain_order counts such a
group from a stabilizer chain, listing no elements.  elem_dtype is the one
dtype every element table of the package is built in.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantViolated, OrderCapExceeded

CHUNK_CELLS = 1 << 18


def elem_dtype(n: int):
    """The dtype of every element table of an order-n group or loop: uint16
    while n <= 65535, otherwise int32.  The Cayley, division, commutator,
    bracket and power tables, the inverses and the coset labels are built in
    it, each cast once where it is made; a gather from a uint16 table moves
    half the bytes of one from an int32 table.

    It is a dtype for values.  Under NEP 50 a uint16 array times n stays
    uint16 and wraps (700 * 729 gives 51548), so every offset i*n + j is
    formed in intp.  An array passed as the
    indices of np.take is intp (groups.index_table): numpy copies any other
    index array into a fresh intp array on every call.
    """
    return np.uint16 if n <= np.iinfo(np.uint16).max else np.int32


class RowIndex:
    """Exact index of image rows: each distinct row gets the next id."""

    def __init__(self, degree: int, dtype) -> None:
        self._ids: dict[bytes, int] = {}
        self._buf = np.empty((16, degree), dtype=dtype)

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def rows(self) -> np.ndarray:
        """The distinct rows seen so far, row i having id i."""
        return self._buf[:len(self._ids)]

    def add(self, slab: np.ndarray) -> np.ndarray:
        """Ids of the rows of a 2-D slab; unseen rows are copied in, in order."""
        slab = np.ascontiguousarray(slab, dtype=self._buf.dtype)
        start = len(self._ids)
        seen = self._ids
        keys = slab.view(np.dtype((np.void, slab.shape[1] * slab.itemsize)))
        # setdefault's default is evaluated first, so an unseen key gets the next id
        ids = np.array([seen.setdefault(k, len(seen)) for k in keys.ravel().tolist()],
                       dtype=np.int64)
        end = len(seen)
        if end > start:
            if end > len(self._buf):
                grown = np.empty((max(end, 2 * len(self._buf)), self._buf.shape[1]),
                                 dtype=self._buf.dtype)
                grown[:start] = self._buf[:start]
                self._buf = grown
            new = ids >= start
            self._buf[ids[new]] = slab[new]
        return ids


def composites(left: np.ndarray, right: np.ndarray):
    """Yield the rows left[g] o right[h] over all pairs, h outer and g inner,
    as consecutive slabs of at most CHUNK_CELLS cells."""
    k, degree = left.shape
    total = len(right) * k
    step = max(1, CHUNK_CELLS // degree)
    for lo in range(0, total, step):
        pair = np.arange(lo, min(lo + step, total))
        yield left[(pair % k)[:, None], right[pair // k]]


def _mulclose(generators: np.ndarray, degree: int, cap: int) -> RowIndex:
    """Breadth-first closure of the generator rows under composition.

    Element 0 is the identity; each level lists the new products g o h with
    the previous level's element h outer and generator g inner.  Raises
    OrderCapExceeded as soon as the count passes cap.
    """
    gens = np.asarray(generators).reshape(-1, degree)
    index = RowIndex(degree, gens.dtype)
    index.add(np.arange(degree, dtype=gens.dtype)[None, :])
    lo = 0
    while lo < len(index):
        hi = len(index)
        for slab in composites(gens, index.rows[lo:hi]):
            index.add(slab)
            if len(index) > cap:
                raise OrderCapExceeded(cap, cap + 1)
        lo = hi
    return index


def base_table(generators: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """table[i, j], the row of elements[i] o elements[j] among the elements:
    the Cayley table, in elem_dtype(n), of the group the generator rows
    generate, whose distinct elements are the rows of elements (as _mulclose
    lists them).

    An element is fixed by its images of a base (Sims 1970; Seress 2003,
    ch. 4).  The base is taken from the points some generator moves, in
    increasing order: a point b is kept when it splits a class of the ranks
    so far, the new ranks being the dense ranks of rank * degree + E[:, b];
    it is complete once all n ranks differ, which is checked on the elements
    themselves.  The composite E[i] o E[j] is an element, so its ranks are
    read the same way from its base images E[i, E[j, b]], by searchsorted
    against each kept point's sorted keys.  That is n^2 |B| cells and no
    hashing; every key is below n * degree, so none overflows int64.
    """
    E = np.ascontiguousarray(elements)
    n, degree = E.shape
    gens = np.asarray(generators).reshape(-1, degree)
    moved = np.flatnonzero((gens != np.arange(degree)).any(axis=0))
    rank = np.zeros(n, dtype=np.intp)
    levels: list[tuple[np.ndarray, np.ndarray]] = []   # (E[:, b], keys) per base point b
    classes = 1
    for b in moved.tolist():
        if classes == n:
            break
        images = E[:, b].copy()                   # read once per row block below
        keys, split = np.unique(rank * degree + images, return_inverse=True)
        if len(keys) > classes:
            levels.append((images, keys))
            rank, classes = split, len(keys)
    if classes < n:
        raise InvariantViolated("two elements agree on every point the generators move")
    elem = np.empty(n, dtype=elem_dtype(n))
    elem[rank] = np.arange(n)
    flat = E.ravel()
    table = np.empty((n, n), dtype=elem.dtype)
    step = max(1, CHUNK_CELLS // n)
    for lo in range(0, n, step):
        rows = np.arange(lo, min(lo + step, n), dtype=np.intp)[:, None] * degree
        crank = 0
        for images, keys in levels:               # images[j] = E[j, b]
            crank = np.searchsorted(keys, crank * degree + flat.take(rows + images))
        table[lo:lo + step] = elem.take(crank)
    return table


def chain_order(generators: np.ndarray, degree: int) -> int:
    """Order of the group the rows generate, by Knuth's deterministic
    Schreier-Sims (Knuth 1991, "Efficient representation of perm groups").

    Level k keeps the strong generators that fix 0..k-1 and, once they move k,
    the orbit of k with a (representative, inverse) pair per point, so the
    base points are the least points moved.  add is Knuth's step A: an h that
    does not sift joins level k unsifted, and every level before the next base
    point or the least point h moves.  A work item is a level and its pending
    images tau (step B; recursion would go as deep as an orbit is long): a new
    orbit point takes tau as its representative and queues tau's images under
    the level's generators, and otherwise tau's Schreier generator is added to
    level k + 1 unless it sifts.  The order is the product of the orbit lengths.
    """
    gens = np.asarray(generators).reshape(-1, degree)
    ident = np.arange(degree, dtype=gens.dtype)
    strong: list[list[np.ndarray]] = [[] for _ in range(degree)]
    orbits: dict[int, dict[int, tuple[np.ndarray, np.ndarray]]] = {}
    work: list[tuple[int, list[np.ndarray]]] = []

    def sifts(h: np.ndarray, k: int) -> bool:
        for b in sorted(p for p in orbits if p >= k):
            rep = orbits[b].get(int(h[b]))
            if rep is None:
                return False
            h = rep[1][h]
        return bool((h == ident).all())

    def add(k: int, h: np.ndarray) -> None:
        stop = min([b for b in orbits if b >= k] + [int(np.argmax(h != ident))])
        for t in range(k, stop + 1):
            strong[t].append(h)
        orbits.setdefault(stop, {stop: (ident, ident)})
        work.append((stop, [h[rep] for rep, _ in orbits[stop].values()]))

    for g in gens:
        if not sifts(g, 0):
            add(0, g)
        while work:
            k, pending = work[-1]
            if not pending:
                work.pop()
                continue
            tau = pending.pop()
            rep = orbits[k].get(int(tau[k]))
            if rep is None:
                inverse = np.empty_like(tau)
                inverse[tau] = ident
                orbits[k][int(tau[k])] = (tau, inverse)
                work.append((k, [s[tau] for s in strong[k]]))
            else:
                h = rep[1][tau]
                if not sifts(h, k + 1):
                    add(k + 1, h)
    order = 1                                 # a Python int: |Sym(n)| passes int64
    for orbit in orbits.values():
        order *= len(orbit)
    return order
