"""Translation maps, multiplication groups and inner mapping groups of loops.

Maps act on the left and compose as (f o g)(t) = f(g(t)).  The standard
stabilizer generators of the inner mapping group are, written pointwise:

  R(x,y): t -> ((t*x)*y) / (x*y)      (right division)
  L(x,y): t -> (y*x) \\ (y*(x*t))      (left division)
  T(x):   t -> x \\ (t*x)

Each fixes the identity; Inn(L) is the stabilizer of 0 inside Mlt(L), which
the orbit-stabilizer count |Mlt| = |L| * |Inn| cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolated, NotALoop
from .groups import elem_dtype
from .gyro import _map_family, gyration_table
from .loops import FiniteLoop, central_translations
from .perms import RowIndex, chain_order
from .perms import _mulclose  # noqa: F401  perfbench/tracer.py wraps it by this name


def translations(L: FiniteLoop, x: int) -> tuple[np.ndarray, np.ndarray]:
    """(left, right) translation image arrays: t -> x*t and t -> t*x."""
    if not L.is_loop:
        raise NotALoop("translations of a non-loop are not permutations")
    return np.array(L.table[x]), np.array(L.table[:, x])


@dataclass
class PermGroup:
    """A permutation group given by distinct generator rows; order() uses a stabilizer chain."""

    degree: int
    generators: np.ndarray
    labels: tuple[str, ...]

    def order(self) -> int:
        return chain_order(self.generators, self.degree)

    def generator_commuting_violation(self) -> tuple[str, str] | None:
        """First pair of generators (by label) that fail to commute."""
        gens = self.generators
        for i in range(len(gens)):
            later = gens[i + 1:]
            bad = np.flatnonzero((gens[i][later] != later[:, gens[i]]).any(axis=1))
            if len(bad):
                return (self.labels[i], self.labels[i + 1 + int(bad[0])])
        return None


def _new_labels(ids: np.ndarray, start: int, label) -> list[str]:
    """label(i) for each id from start on, i its first occurrence in ids (flattened).

    RowIndex numbers unseen rows densely in first-occurrence order, so each
    id from start on first occurs where the running maximum of ids first
    reaches it (ids below start, rows seen before, may occur anywhere): one
    pass and a binary search per new id, no sort."""
    top = np.maximum.accumulate(ids.ravel())
    first = np.searchsorted(top, np.arange(start, top[-1] + 1))
    return [label(i) for i in first.tolist()]


def multiplication_group(L: FiniteLoop) -> PermGroup:
    """Mlt(L) = group generated by all left and right translations."""
    if not L.is_loop:
        raise NotALoop("multiplication group needs a full loop")
    T = L.table
    index = RowIndex(L.order, T.dtype)
    labels = _new_labels(index.add(T), 0, lambda x: f"L[{x}]")
    start = len(index)
    labels += _new_labels(index.add(T.T), start, lambda x: f"R[{x}]")
    return PermGroup(L.order, index.rows, tuple(labels))


def inner_generators(L: FiniteLoop) -> tuple[np.ndarray, tuple[str, ...]]:
    """The distinct R(x,y), L(x,y), T(x) image rows, each labelled at its first
    occurrence in that order.

    R(x,y) is the gyration of (x, y), so the R part is gyration_table's.  The
    L part comes from gyro._map_family on the classes of
    loops.central_translations, the cosets of Z(L): 27 at n = 729 and
    n = 2187 (L(rho x,y) = L(x,rho y) = L(x,y) for its kept maps rho).
    """
    if not L.is_loop:
        raise NotALoop("inner mappings need a full loop")
    T, ldiv = L.table, L.left_division
    n = L.order
    gt = gyration_table(L)
    index = RowIndex(n, elem_dtype(n))
    index.add(gt.perms)
    labels = _new_labels(gt.ids, 0, lambda i: f"R({i // n},{i % n})")
    # L(x,y) = L_{y*x}^-1 o L_y o L_x: row a of T is L_a, row a of ldiv is L_a^-1
    start = len(index)
    ids = _map_family(T, ldiv, T.T, index, central_translations(L)[1])
    labels += _new_labels(ids, start, lambda i: f"L({i // n},{i % n})")
    start = len(index)
    slab = ldiv[np.arange(n)[:, None], T.T]                 # [x, t] -> x\(t*x)
    labels += _new_labels(index.add(slab), start, lambda x: f"T({x})")
    return index.rows.astype(T.dtype), tuple(labels)


def inner_mapping_group(L: FiniteLoop) -> PermGroup:
    gens, labels = inner_generators(L)
    moved = np.flatnonzero(gens[:, 0] != 0)
    if len(moved):
        raise InvariantViolated(f"inner generator {labels[moved[0]]} moves the identity")
    return PermGroup(L.order, gens, labels)


def is_inner_abelian(L: FiniteLoop) -> tuple[bool, tuple[str, str] | None]:
    """Whether Inn(L) is abelian; witness is the first non-commuting generator pair.

    Generators of a group commute pairwise iff the group is abelian, so no
    closure enumeration is needed.
    """
    w = inner_mapping_group(L).generator_commuting_violation()
    return (w is None), w
