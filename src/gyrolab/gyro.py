"""The twisted product x*y = y^-1 x y^2 on a group, and its gyration maps.

For a nilpotent group of class <= 3 the twisted table is a loop; it is a
group exactly when the class is <= 2.  The gyration of a pair (y, z) is the
map x -> ((x*y)*z) / (y*z) (right division), which measures the deviation
from associativity; the axioms checked by is_gyrogroup are that every
gyration is an automorphism of the loop and that gyr(a, b) equals the
inverse of gyr(a*b, a).

On the twisted table of any group G the gyrations are conjugations in G:
gyr(y, z) is x -> c^-1 x c with c = y z^-1 y^-1 z.  With w = y*z = z^-1 y z^2,

  (x*y)*z       = (yz)^-1 x (yz) w,
  (c^-1 x c)*w  = (cw)^-1 x (cw) w,
  cw            = y z^-1 y^-1 z z^-1 y z^2 = yz,

and right division in the twisted table is unique (its columns are
permutations), so ((x*y)*z) / w = c^-1 x c.  Two pairs share a gyration
exactly when their c lie in the same coset of Z(G).  On a recorded source
that passes the group verdict (is_group_table), gyration_table reads them
off c in O(n^2) (_conjugation_family); every other loop's gyrations, and
Inn's L(x,y), come from _map_family on the classes of
loops.central_translations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NotRightLoop
from .groups import (
    BLOCK_CELLS,
    FiniteGroup,
    _cached,
    elem_dtype,
    first_cell,
    group_center,
    is_group_table,
    nilpotency_class,
)
from .loops import FiniteLoop, central_translations, loop_from_table
from .perms import RowIndex
from .report import CheckReport, failed, passed

GYRO_AXIOMS_STATEMENT = ("every gyration is an automorphism of the loop and "
                         "gyr(a,b) is the inverse of gyr(a*b,a)")


@dataclass(frozen=True)
class GyroConstruction:
    source: FiniteGroup
    loop: FiniteLoop
    source_class: int | None


def build_gyro(G: FiniteGroup) -> GyroConstruction:
    """Build the twisted table y^-1 x y^2 over a group's Cayley table.

    Any group is accepted: columns of the twisted table are always
    permutations (each is a composition of two translations), so the result
    is at least a right loop.  A warning is emitted when the source is not
    nilpotent of class <= 3, because the loop/gyrogroup properties may then
    fail -- which is exactly what the checkers are for.
    """
    # flat takes at the offsets x*n + y, formed in intp
    n, flat = G.order, G.table.ravel()
    sq = G.table.diagonal()                       # y -> y^2
    inv = np.multiply(G.inverse, n, dtype=np.intp)
    twisted = np.empty_like(G.table)
    step = max(1, BLOCK_CELLS // n)
    for lo in range(0, n, step):
        off = G.table[lo:lo + step].take(sq, axis=1).astype(np.intp)    # [x, y] -> x * y^2
        off += inv
        twisted[lo:lo + step] = flat.take(off)    # [x, y] -> y^-1 x y^2
    cls = nilpotency_class(G)
    if cls is None or cls > 3:
        warnings.warn(
            f"source group has nilpotency class {cls}; twisted table may not "
            "be a loop", stacklevel=2)
    loop = loop_from_table(twisted, names=G.names, lenient=True,
                           name=f"gyro({G.name})" if G.name else "gyro")
    loop._cache["source"] = G                     # for gyration_table's closed form
    return GyroConstruction(G, loop, cls)


def gyration(L: FiniteLoop, y: int, z: int) -> np.ndarray:
    """Image array of the gyration of (y, z): x -> ((x*y)*z) / (y*z)."""
    if L.right_division is None:
        raise NotRightLoop(-1)
    T = L.table
    col = L.right_division[:, T[y, z]]
    return col[T[T[:, y], z]]


@dataclass(frozen=True)
class GyrationTable:
    """All n^2 gyrations, deduplicated: ids[y, z] indexes the rows of perms.

    Both are read-only arrays; row k of perms is the k-th distinct gyration.
    """

    ids: np.ndarray
    perms: np.ndarray

    def __post_init__(self):
        self.ids.setflags(write=False)
        self.perms.setflags(write=False)

    def perm(self, y: int, z: int) -> np.ndarray:
        return self.perms[int(self.ids[y, z])]


def gyration_table(L: FiniteLoop) -> GyrationTable:
    """All gyrations gyr(y,z) = R_{y*z}^-1 o R_z o R_y (R_a: right translation), cached on L.

    ids[y, z] numbers the distinct gyrations in row-major first-occurrence
    order.  On a loop built by build_gyro from a group table, gyr(y,z) is
    conjugation by c = y z^-1 y^-1 z (see the module docstring), read off c
    in O(n^2) by _conjugation_family when the recorded source passes
    is_group_table.  Every other loop goes through _map_family on the
    classes of central_translations, at n^3 / |Z(L)|^2 cells.  Both give
    the same ids and rows.
    """
    if L.right_division is None:
        raise NotRightLoop(-1)

    def build():
        T, G = L.table, L._cache.get("source")
        if G is not None and is_group_table(G):
            ids, rows = _conjugation_family(G)
        else:
            index = RowIndex(L.order, elem_dtype(L.order))
            # row a of T.T is R_a and row a of right_division.T is R_a^-1
            ids = _map_family(T.T, L.right_division.T, T, index, central_translations(L)[1])
            rows = index.rows
        return GyrationTable(ids, rows.astype(T.dtype, copy=False))
    return _cached(L, "gyr", build)


def _conjugation_family(G: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """ids[y, z] and the distinct rows of the gyrations of G's twisted loop.

    gyr(y,z) is x -> c^-1 x c with c = y z^-1 y^-1 z, and two conjugators
    give the same map exactly when they share a coset of Z(G), whose least
    element labels c.  ids ranks the labels of c[y, z] in row-major
    first-occurrence order, as _map_family numbers, and row k conjugates by
    the label of id k.  G must be a group (see is_group_table).
    """
    n = G.order
    label = G.table[:, sorted(group_center(G))].min(axis=1)      # c -> least of c Z(G)
    flat = np.ascontiguousarray(G.table).ravel()
    inv = G.inverse.astype(np.intp)
    rank = np.full(n, -1, dtype=np.int32)         # label -> id
    reps: list[int] = []                          # label of each id
    ids = np.empty((n, n), dtype=np.int32)
    ar = np.arange(n)
    step = max(1, BLOCK_CELLS // n)
    for lo in range(0, n, step):
        ys = ar[lo:lo + step]
        off = flat.take(ys[:, None] * n + inv).astype(np.intp)   # [y, z] -> y z^-1
        off *= n
        off += inv[ys, None]
        off = flat.take(off).astype(np.intp)      # y z^-1 y^-1
        off *= n
        off += ar
        lab = label.take(flat.take(off))          # label of c[y, z]
        got = rank.take(lab)
        fresh = got < 0
        if fresh.any():
            new, first = np.unique(lab[fresh], return_index=True)
            new = new[np.argsort(first, kind="stable")]
            rank[new] = np.arange(len(reps), len(reps) + len(new))
            reps.extend(new.tolist())
            got = rank.take(lab)
        ids[lo:lo + step] = got
    reps_arr = np.array(reps, dtype=np.intp)
    rows = np.empty((len(reps), n), dtype=G.table.dtype)
    for lo in range(0, len(reps), step):
        c = reps_arr[lo:lo + step, None]
        left = flat.take(inv[c] * n + ar).astype(np.intp)    # [k, x] -> c^-1 x
        rows[lo:lo + step] = flat.take(left * n + c)
    return ids, rows


def _map_family(A: np.ndarray, Ainv: np.ndarray, P: np.ndarray, index: RowIndex,
                reps: np.ndarray) -> np.ndarray:
    """Ids in index of the maps M(x,y) = A_{P[x,y]}^-1 o A_y o A_x, as ids[x, y].

    Row a of A is the permutation A_a and row a of Ainv is its inverse.  Maps
    not yet in index are added in first-occurrence order, x major.

    M(x,y) must depend only on the classes of x and y, and reps[x] is the
    least element of the class of x (np.arange(n) for all pairs); the maps
    are computed for the pairs of representatives alone, in row-major
    order, and their ids spread to all n^2 pairs with one gather.  As
    reps[x] <= x, the first occurrence of a map is always at such a pair,
    so the ids are those of every pair.

    Both families pass the classes of loops.central_translations, the
    cosets of Z(L).  For one of its kept maps rho = T[:, c], (a') gives
    x*(rho v) = rho(x*v), so (rho u)/(rho v) = u/v, and (a) gives
    (rho a)*s = rho(a*s), so (rho a)\\(rho b) = a\\b.  So gyr(rho y,z) =
    gyr(y,rho z) = gyr(y,z) and L(rho x,y) = L(x,rho y) = L(x,y), with no
    group hypothesis.
    """
    n = len(A)
    elem = elem_dtype(n)
    A = np.ascontiguousarray(A, dtype=elem)
    flat, flat_inv = A.ravel(), np.ascontiguousarray(Ainv, dtype=elem).ravel()
    keep = np.flatnonzero(reps == np.arange(n))
    k = len(keep)
    ids = np.empty(k * k, dtype=np.int32)
    step = max(1, BLOCK_CELLS // n)
    for lo in range(0, k * k, step):
        pair = np.arange(lo, min(lo + step, k * k))
        xs, ys = keep[pair // k], keep[pair % k]
        inner = flat.take(ys[:, None] * n + A[xs])               # A_y(A_x(t))
        outer = P[xs, ys].astype(np.intp)[:, None] * n + inner
        ids[lo:lo + step] = index.add(flat_inv.take(outer))
    at = np.searchsorted(keep, reps)              # class of x -> its position in keep
    return ids.reshape(k, k)[np.ix_(at, at)]


def _automorphism_violation(L: FiniteLoop, p: np.ndarray) -> tuple[int, int] | None:
    """First (u, v) with p(u*v) != p(u)*p(v), else None."""
    T = L.table
    return first_cell(p[T] != T[np.ix_(p, p)])


def is_gyrogroup(L: FiniteLoop, source: FiniteGroup | None = None) -> CheckReport:
    """Check the two gyrogroup axioms over all pairs.

    A pass verdict always completes the full scan.  On failure the witness is
    the lexicographically first offending pair (with the inner cell appended
    for automorphism failures).  When the source group is supplied, the
    report records as a diagnostic whether the pairing axiom would also hold
    with a*b read as the group product instead of the loop product.
    """
    if L.right_division is None:
        return failed("gyro-axioms", GYRO_AXIOMS_STATEMENT, witness=("not-a-right-loop",))
    n = L.order
    gt = gyration_table(L)
    details: dict = {"distinct_gyrations": len(gt.perms)}

    # the ids number the gyrations in row-major first-occurrence order, so
    # the first failing (a, b) is the first cell of the least failing id
    for gid, p in enumerate(gt.perms):
        if (w := _automorphism_violation(L, p)) is not None:
            return failed("gyro-axioms", GYRO_AXIOMS_STATEMENT,
                          witness=first_cell(gt.ids == gid) + w,
                          details={**details, "axiom": "automorphism"})

    # pairing axiom: gyr(a, b) == gyr(a*b, a)^-1
    perms = gt.perms
    inverses = np.empty_like(perms)
    np.put_along_axis(inverses, perms, np.arange(n, dtype=perms.dtype)[None, :], axis=1)
    index = RowIndex(n, perms.dtype)
    index.add(perms)
    inverse_id = index.add(inverses)
    inverse_id[inverse_id >= len(perms)] = -1             # inverse is no gyration

    # in row blocks, with a*b read off the loop table (and the group's)
    w, group_reading = None, source is not None
    step = max(1, BLOCK_CELLS // n)
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        a = np.arange(lo, min(lo + step, n))[:, None]
        if w is None:
            cell = first_cell(gt.ids[rows] != inverse_id[gt.ids[L.table[rows], a]])
            w = None if cell is None else (lo + cell[0], cell[1])
        if group_reading:
            group_reading = bool((gt.ids[rows] == inverse_id[gt.ids[source.table[rows], a]]).all())
    if source is not None:
        details["pairing_group_product_reading"] = group_reading
    if w is not None:
        return failed("gyro-axioms", GYRO_AXIOMS_STATEMENT, witness=w,
                      details={**details, "axiom": "pairing"})
    return passed("gyro-axioms", GYRO_AXIOMS_STATEMENT, details=details)
