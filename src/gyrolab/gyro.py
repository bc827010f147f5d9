"""The twisted product x*y = y^-1 x y^2 on a group, and its gyration maps.

For a nilpotent group of class <= 3 the twisted table is a loop; it is a
group exactly when the class is <= 2.  The gyration of a pair (y, z) is the
map x -> ((x*y)*z) / (y*z) (right division), which measures the deviation
from associativity; the axioms checked by is_gyrogroup are that every
gyration is an automorphism of the loop and that gyr(a, b) equals the
inverse of gyr(a*b, a).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NotRightLoop
from .groups import FiniteGroup, nilpotency_class, offset_dtype
from .loops import FiniteLoop, loop_from_table
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
    n = G.order
    ar = np.arange(n)
    sq = G.table[ar, ar]                          # y -> y^2
    xy2 = G.table[:, sq]                          # [x, y] -> x * y^2
    inv_cols = np.broadcast_to(G.inverse[None, :], (n, n))
    twisted = G.table[inv_cols, xy2]              # [x, y] -> y^-1 x y^2
    cls = nilpotency_class(G)
    if cls is None or cls > 3:
        warnings.warn(
            f"source group has nilpotency class {cls}; twisted table may not "
            "be a loop", stacklevel=2)
    loop = loop_from_table(np.array(twisted), names=G.names, lenient=True,
                           name=f"gyro({G.name})" if G.name else "gyro")
    return GyroConstruction(G, loop, cls)


def gyration(L: FiniteLoop, y: int, z: int) -> np.ndarray:
    """Image array of the gyration of (y, z): x -> ((x*y)*z) / (y*z)."""
    if L.right_division is None:
        raise NotRightLoop(-1)
    T = L.table
    col = L.right_division[:, T[y, z]]
    return col[T[T[:, y], z]]


@dataclass
class GyrationTable:
    """All n^2 gyrations, deduplicated: ids[y, z] indexes into perms."""

    ids: np.ndarray
    perms: list[np.ndarray]

    def perm(self, y: int, z: int) -> np.ndarray:
        return self.perms[int(self.ids[y, z])]


def gyration_table(L: FiniteLoop) -> GyrationTable:
    """All gyrations gyr(y,z) = R_{y*z}^-1 o R_z o R_y, R_a the right translation by a."""
    if L.right_division is None:
        raise NotRightLoop(-1)
    n = L.order
    T = L.table
    # row a of R is R_a and row a of Rinv is R_a^-1, so each slab row reads
    # one contiguous row of each; slabs hold flat offsets into Rinv
    offset = offset_dtype(n)
    R = np.ascontiguousarray(T.T, dtype=offset)
    Rinv = np.ascontiguousarray(L.right_division.T).ravel()
    base = np.arange(n, dtype=offset) * n
    ids = np.empty((n, n), dtype=np.int32)
    index = RowIndex(n, Rinv.dtype)
    for y in range(n):
        xyz = R.take(R[y], axis=1)                # [z, x] -> (x*y)*z
        xyz += base[T[y]][:, None]                # offset of row y*z of Rinv
        ids[y] = index.add(Rinv.take(xyz))        # row z = images of gyr(y,z)
    return GyrationTable(ids, list(index.rows))


def _automorphism_violation(L: FiniteLoop, p: np.ndarray) -> tuple[int, int] | None:
    """First (u, v) with p(u*v) != p(u)*p(v), else None."""
    T = L.table
    lhs = p[T]
    rhs = T[np.ix_(p, p)]
    if np.array_equal(lhs, rhs):
        return None
    flat = int(np.argmax(lhs != rhs))
    return (flat // L.order, flat % L.order)


def is_gyrogroup(L: FiniteLoop, source: FiniteGroup | None = None,
                 check_id: str = "gyro-axioms") -> CheckReport:
    """Check the two gyrogroup axioms over all pairs.

    A pass verdict always completes the full scan.  On failure the witness is
    the lexicographically first offending pair (with the inner cell appended
    for automorphism failures).  When the source group is supplied, the
    report records as a diagnostic whether the pairing axiom would also hold
    with a*b read as the group product instead of the loop product.
    """
    if L.right_division is None:
        return failed(check_id, GYRO_AXIOMS_STATEMENT, witness=("not-a-right-loop",))
    n = L.order
    gt = gyration_table(L)

    bad_perm_ids = set()
    inner_witness: dict[int, tuple[int, int]] = {}
    for gid, p in enumerate(gt.perms):
        w = _automorphism_violation(L, p)
        if w is not None:
            bad_perm_ids.add(gid)
            inner_witness[gid] = w
    details: dict = {"distinct_gyrations": len(gt.perms)}

    if bad_perm_ids:
        mask = np.isin(gt.ids, sorted(bad_perm_ids))
        flat = int(np.argmax(mask))
        a, b = flat // n, flat % n
        u, v = inner_witness[int(gt.ids[a, b])]
        return failed(check_id, GYRO_AXIOMS_STATEMENT, witness=(a, b, u, v),
                      details={**details, "axiom": "automorphism"})

    # pairing axiom: gyr(a, b) == gyr(a*b, a)^-1
    perms = np.array(gt.perms)
    inverses = np.empty_like(perms)
    np.put_along_axis(inverses, perms, np.arange(n, dtype=perms.dtype)[None, :], axis=1)
    index = RowIndex(n, perms.dtype)
    index.add(perms)
    inverse_id = index.add(inverses)
    inverse_id[inverse_id >= len(perms)] = -1             # inverse is no gyration

    partner = gt.ids[L.table, np.broadcast_to(np.arange(n)[:, None], (n, n))]
    pairing_ok = gt.ids == inverse_id[partner]
    if source is not None:
        partner_group = gt.ids[source.table,
                               np.broadcast_to(np.arange(n)[:, None], (n, n))]
        details["pairing_group_product_reading"] = bool(
            (gt.ids == inverse_id[partner_group]).all())
    if not pairing_ok.all():
        flat = int(np.argmax(~pairing_ok))
        return failed(check_id, GYRO_AXIOMS_STATEMENT,
                      witness=(flat // n, flat % n),
                      details={**details, "axiom": "pairing"})
    return passed(check_id, GYRO_AXIOMS_STATEMENT, details=details)
