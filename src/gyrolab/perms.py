"""Permutations of {0..n-1} as integer image rows, and their closure.

A permutation is the row of its images, and maps act on the left: the
composite g o h is the row g[h].  A set of permutations is a 2-D array with
one image row per permutation.  RowIndex numbers distinct rows exactly (keyed
on their bytes) in first-occurrence order; _mulclose enumerates the group a
set of rows generates, breadth first.  Composites are formed in slabs of at
most CHUNK_CELLS cells, so no step holds every candidate of a closure level.
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
