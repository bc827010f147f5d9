"""Permutations of {0..n-1} as integer image rows, and their closure.

A permutation is the row of its images, and maps act on the left: the
composite g o h is the row g[h].  A set of permutations is a 2-D array with
one image row per permutation.  RowIndex numbers distinct rows exactly (keyed
on their bytes) in first-occurrence order; _mulclose enumerates the group a
set of rows generates, breadth first.  Composites are formed in slabs of at
most CHUNK_CELLS cells, so no step holds every candidate of a closure level.
chain_order counts such a group from a stabilizer chain, listing no elements.
"""

from __future__ import annotations

import numpy as np

from .errors import OrderCapExceeded

CHUNK_CELLS = 1 << 18


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
