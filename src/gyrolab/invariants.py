"""Nuclei, commutant, center, the commutator table and nilpotency class of loops.

All sets are returned as frozensets of element indices.  The nuclei, the
loop center and the upper central series read the gyration table
(_gyration_nuclei).  The brute-force side of the verify suite's nucleus
cross-checks is not here: it is reduced from the associators of
checks.SuiteContext.associator_scan, which assumes only the translations
it has checked cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotALoop
from .groups import _cached
from .gyro import gyration_table
from .loops import FiniteLoop, commutant, quotient_loop

NUCLEUS_KINDS = ("left", "middle", "right")


def _gyration_nuclei(L: FiniteLoop) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """The left, middle and right nuclei read off gyration_table(L).

    By the definition gyr(y,z)(x) = ((x*y)*z) / (y*z),

      (x*y)*z = gyr(y,z)(x) * (y*z),

    and right division is unique, so x*(y*z) = (x*y)*z exactly when
    gyr(y,z) fixes x.  Hence a is in the left nucleus iff every gyration
    fixes a; in the middle nucleus iff gyr(a,z) is the identity map for all
    z; in the right nucleus iff gyr(y,a) is the identity map for all y.
    gyr(0,z) is the identity map, as (x*0)*z = x*z = x*(0*z), and ids
    numbers the distinct gyrations in row-major first-occurrence order, so
    the identity map is id 0: the middle nucleus is the rows of ids that
    hold only 0, the right nucleus the columns.  Cached on L; raises
    NotRightLoop when L has no right division.
    """
    def read():
        gt = gyration_table(L)
        fixed = (gt.perms == np.arange(L.order)).all(axis=0)
        trivial = gt.ids == 0
        return tuple(frozenset(np.flatnonzero(m).tolist())
                     for m in (fixed, trivial.all(axis=1), trivial.all(axis=0)))
    return _cached(L, "nuclei", read)


def nucleus(L: FiniteLoop, kind: str = "full") -> frozenset[int]:
    """Nucleus: elements that associate in the given slot.

    kind "left" fixes a in (a x) y == a (x y), "middle" in (x a) y == x (a y),
    "right" in (x y) a == x (y a); "full" is the intersection of the three.
    All kinds are read off the gyration table (_gyration_nuclei).
    """
    if kind != "full" and kind not in NUCLEUS_KINDS:
        raise ValueError(f"unknown nucleus kind {kind!r}")
    sets = _gyration_nuclei(L)
    if kind == "full":
        return sets[0] & sets[1] & sets[2]
    return sets[NUCLEUS_KINDS.index(kind)]


def loop_center(L: FiniteLoop) -> frozenset[int]:
    """Center = commutant intersected with the left, middle and right nuclei."""
    left, middle, right = _gyration_nuclei(L)
    return commutant(L) & left & middle & right


def commutator_bracket_table(L: FiniteLoop) -> np.ndarray:
    """All loop commutators as a table B[x, y]."""
    if L.right_division is None:
        raise NotALoop("commutators need right division")
    return L.right_division[L.table, L.table.T]


def loop_upper_central_series(L: FiniteLoop) -> list[frozenset[int]]:
    """Z_0 = {0}, Z_{i+1} = preimage of the center of L/Z_i; stops when stable."""
    if not L.is_loop:
        raise NotALoop("central series needs a full loop")
    n = L.order
    chain: list[frozenset[int]] = [frozenset({0})]
    current = L
    proj = np.arange(n)
    while len(chain[-1]) < n:
        zc = loop_center(current)
        z_orig = frozenset(i for i in range(n) if int(proj[i]) in zc)
        if z_orig == chain[-1]:
            break                        # stalled: not nilpotent
        chain.append(z_orig)
        if len(z_orig) == n:
            break
        current, qproj = quotient_loop(current, zc)
        proj = qproj[proj]
    return chain


def loop_nilpotency_class(L: FiniteLoop) -> int | None:
    """Length of the upper central series if it reaches L, else None."""
    chain = loop_upper_central_series(L)
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
    left, middle, right = _gyration_nuclei(L)
    nuc = left & middle & right
    com = commutant(L)
    return InvariantBundle(left, middle, right, nuc, com, com & nuc)
