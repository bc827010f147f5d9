"""Nuclei, commutant, center, commutators/associators and nilpotency class of loops.

All sets are returned as frozensets of element indices.  Scans follow the
definitions directly (no structure theory is assumed), so these functions
serve as the brute-force side of every characterization cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotALoop
from .groups import pair_slabs
from .loops import FiniteLoop, quotient_loop

NUCLEUS_KINDS = ("left", "middle", "right")


def _nucleus_member(L: FiniteLoop, a: int, kind: str) -> bool:
    """Test one element against the associativity pattern of a nucleus kind."""
    T = L.table
    if kind == "left":
        row = T[a]
        return np.array_equal(T[row, :], row[T])
    if kind == "middle":
        col, row = T[:, a], T[a]
        return np.array_equal(T[col, :], T[:, row])
    if kind == "right":
        col = T[:, a]
        return np.array_equal(col[T], T[:, col])
    raise ValueError(f"unknown nucleus kind {kind!r}")


def nuclei(L: FiniteLoop) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """The left, middle and right nuclei by definition, in one pass over x.

    For each x the [y, z] slab of (x y) z != x (y z) holds all three
    definitions: x is in the left nucleus when no cell of the slab fails,
    y is in the middle nucleus when its row holds for every x, and z is in
    the right nucleus when its column holds for every x.  The slabs are
    those of associativity_violation, written into buffers reused for
    every x; it is a reduction over all x, so it does not stop early.
    """
    n = L.order
    slab = pair_slabs(L.table, L.table)
    left = np.zeros(n, dtype=bool)
    middle = np.ones(n, dtype=bool)
    right = np.ones(n, dtype=bool)
    for x in range(n):
        bad = slab(x)                                 # [y, z]: (xy)z != x(yz)
        left[x] = not bad.any()
        middle &= ~bad.any(axis=1)
        right &= ~bad.any(axis=0)
    return tuple(frozenset(int(i) for i in np.flatnonzero(m))
                 for m in (left, middle, right))


def nucleus(L: FiniteLoop, kind: str = "full") -> frozenset[int]:
    """Nucleus by definition: elements that associate in the given slot.

    kind "left" fixes a in (a x) y == a (x y), "middle" in (x a) y == x (a y),
    "right" in (x y) a == x (y a); "full" is the intersection of the three.
    All kinds come from the one pass of nuclei(L).
    """
    if kind != "full" and kind not in NUCLEUS_KINDS:
        raise ValueError(f"unknown nucleus kind {kind!r}")
    sets = nuclei(L)
    if kind == "full":
        return sets[0] & sets[1] & sets[2]
    return sets[NUCLEUS_KINDS.index(kind)]


def commutant(L: FiniteLoop) -> frozenset[int]:
    """Elements commuting with everything: a with a*x == x*a for all x."""
    mask = (L.table == L.table.T).all(axis=1)
    return frozenset(int(i) for i in np.flatnonzero(mask))


def loop_center(L: FiniteLoop) -> frozenset[int]:
    """Center = commutant intersected with the (full) nucleus.

    Nucleus membership is only tested on commutant elements, which is the
    same set as commutant & nucleus but much cheaper on large loops.
    """
    return frozenset(
        a for a in sorted(commutant(L))
        if all(_nucleus_member(L, a, k) for k in NUCLEUS_KINDS))


def loop_commutator(L: FiniteLoop, x: int, y: int) -> int:
    """The w with x*y = w*(y*x) (right division)."""
    return int(L.right_division[L.table[x, y], L.table[y, x]])


def commutator_bracket_table(L: FiniteLoop) -> np.ndarray:
    """All loop commutators as a table B[x, y]."""
    if L.right_division is None:
        raise NotALoop("commutators need right division")
    return L.right_division[L.table, L.table.T]


def loop_associator(L: FiniteLoop, x: int, y: int, z: int) -> int:
    """The w with (x*y)*z = w*(x*(y*z)) (right division)."""
    T = L.table
    return int(L.right_division[T[T[x, y], z], T[x, T[y, z]]])


def loop_upper_central_series(L: FiniteLoop) -> list[frozenset[int]]:
    """Z_0 = {0}, Z_{i+1} = preimage of the center of L/Z_i; stops when stable."""
    return _upper_central_series(L, None)


def _upper_central_series(L: FiniteLoop, center) -> list[frozenset[int]]:
    """The series of loop_upper_central_series, started from the center of
    L when the caller has it already (None: loop_center(L) is taken here)."""
    if not L.is_loop:
        raise NotALoop("central series needs a full loop")
    n = L.order
    chain: list[frozenset[int]] = [frozenset({0})]
    current = L
    proj = np.arange(n)
    zc = center
    while len(chain[-1]) < n:
        if zc is None:
            zc = loop_center(current)
        z_orig = frozenset(i for i in range(n) if int(proj[i]) in zc)
        if z_orig == chain[-1]:
            break                        # stalled: not nilpotent
        chain.append(z_orig)
        if len(z_orig) == n:
            break
        current, qproj = quotient_loop(current, zc)
        proj = qproj[proj]
        zc = None
    return chain


def loop_nilpotency_class(L: FiniteLoop) -> int | None:
    """Length of the upper central series if it reaches L, else None."""
    return _loop_class(L, None)


def _loop_class(L: FiniteLoop, center) -> int | None:
    """loop_nilpotency_class(L), with the series started from the given
    center of L (None: computed)."""
    chain = _upper_central_series(L, center)
    if len(chain[-1]) == L.order:
        return len(chain) - 1
    return None


@dataclass(frozen=True)
class InvariantBundle:
    left_nucleus: frozenset[int]
    middle_nucleus: frozenset[int]
    right_nucleus: frozenset[int]
    nucleus: frozenset[int]
    commutant: frozenset[int]
    center: frozenset[int]

    def to_dict(self) -> dict:
        return {
            "left_nucleus": sorted(self.left_nucleus),
            "middle_nucleus": sorted(self.middle_nucleus),
            "right_nucleus": sorted(self.right_nucleus),
            "nucleus": sorted(self.nucleus),
            "commutant": sorted(self.commutant),
            "center": sorted(self.center),
        }


def invariant_bundle(L: FiniteLoop) -> InvariantBundle:
    left, middle, right = nuclei(L)
    nuc = left & middle & right
    com = commutant(L)
    return InvariantBundle(left, middle, right, nuc, com, com & nuc)
