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
exactly when their c lie in the same coset of Z(G).

Both n^2 families of inner mappings, the gyrations and Inn's L(x,y), take
one of two paths.  On a loop that build_gyro made from a table passing
Light's associativity test (_central_labels), gyration_table reads the
gyrations off c in O(n^2) (_conjugation_family), and inner_generators
computes L(x,y) with _map_family for the pairs of least elements of the
cosets of Z(G) alone: multiplying x or y by a central element changes no map
built from translations and divisions (see _map_family).  Every other loop
computes both families with _map_family over all n^2 pairs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NotRightLoop
from .groups import (
    FiniteGroup,
    _light_associative,
    _mark,
    elem_dtype,
    first_cell,
    group_center,
    nilpotency_class,
)
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
    loop._cache["source"] = G                     # for _central_labels
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
    """All n^2 gyrations, deduplicated: ids[y, z] indexes into perms."""

    ids: np.ndarray
    perms: tuple[np.ndarray, ...]

    def perm(self, y: int, z: int) -> np.ndarray:
        return self.perms[int(self.ids[y, z])]


def gyration_table(L: FiniteLoop) -> GyrationTable:
    """All gyrations gyr(y,z) = R_{y*z}^-1 o R_z o R_y (R_a: right translation), cached on L.

    ids[y, z] numbers the distinct gyrations in row-major first-occurrence
    order.  On a loop built by build_gyro from a group table, gyr(y,z) is
    conjugation by c = y z^-1 y^-1 z in the group (see the module
    docstring: (x*y)*z = (yz)^-1 x (yz) w and (c^-1 x c)*w = (cw)^-1 x (cw) w
    with w = y*z and cw = yz), so the table is read off c in O(n^2) by
    _conjugation_family.  That holds only for an associative source, so the
    closed form is taken when _central_labels finds one; every other loop
    goes through _map_family over all pairs.  Both give the same ids and rows.
    The coset pairs that inner_generators uses would also serve here, but
    they cost n^3 / |Z(G)|^2 cells where the closed form costs n^2.
    """
    if L.right_division is None:
        raise NotRightLoop(-1)
    if "gyr" in L._cache:
        return L._cache["gyr"]
    T = L.table
    label = _central_labels(L)
    if label is not None:
        ids, rows = _conjugation_family(L._cache["source"], label)
    else:
        index = RowIndex(L.order, elem_dtype(L.order))
        # row a of T.T is R_a and row a of right_division.T is R_a^-1
        ids = _map_family(T.T, L.right_division.T, T, index)
        rows = index.rows
    rows = rows.astype(T.dtype)
    for read_only in (ids, rows):
        read_only.setflags(write=False)
    L._cache["gyr"] = GyrationTable(ids, tuple(rows))
    return L._cache["gyr"]


def _is_group_table(G: FiniteGroup) -> bool:
    """Whether G's table and inverse array are a group's: identity 0, a
    right inverse at each inverse[g], and associative by Light's test."""
    T, n = G.table, G.order
    ar = np.arange(n)
    return bool(np.array_equal(T[0], ar) and np.array_equal(T[:, 0], ar)
                and (T[ar, G.inverse] == 0).all() and _light_associative(T))


# The n^2 families are computed in blocks of about this many cells, so that no
# step holds n^2 index values.
BLOCK_CELLS = 1 << 16


def _central_labels(L: FiniteLoop) -> np.ndarray | None:
    """label[x], the least element of the coset x Z(G), when build_gyro
    recorded a source G that passes _is_group_table; None otherwise.

    Both inner-mapping families read it, so Light's test and the center run
    once per loop: the result is cached on L.
    """
    if "central_labels" not in L._cache:
        G = L._cache.get("source")
        L._cache["central_labels"] = (
            G.table[:, sorted(group_center(G))].min(axis=1)
            if G is not None and _is_group_table(G) else None)
    return L._cache["central_labels"]


def _conjugation_family(G: FiniteGroup, label: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ids[y, z] and the distinct rows of the gyrations of G's twisted loop.

    gyr(y,z) is x -> c^-1 x c with c = y z^-1 y^-1 z, and two conjugators
    give the same map exactly when they share a coset of Z(G), whose least
    element is label[c] (see _central_labels).  ids ranks the labels of
    c[y, z] in row-major first-occurrence order, the numbering of
    _map_family; row k conjugates by the label of id k.  G must be a group
    (see _is_group_table).
    """
    n = G.order
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
                reps: np.ndarray | None = None) -> np.ndarray:
    """Ids in index of the maps M(x,y) = A_{P[x,y]}^-1 o A_y o A_x, as ids[x, y].

    Row a of A is the permutation A_a and row a of Ainv is its inverse.  Maps
    not yet in index are added in first-occurrence order, x major.

    When reps is given, M(x,y) depends only on the classes of x and y, and
    reps[x] is the least element of the class of x; the maps are computed
    for the pairs of representatives alone, in row-major order, and their
    ids spread to all n^2 pairs with one gather.  As reps[x] <= x, the first
    occurrence of a map is always at such a pair, so the ids are those of
    every pair.

    The classes inner_generators passes are the cosets x Z(G) of a twisted
    loop's source (_central_labels).  For w in Z(G) the twisted product
    a*b = b^-1 a b^2 gives (xw)*t = (x*t)w and t*(yw) = (t*y)w, so
    (aw)\\(bw) = a\\b and (aw)/(bw) = a/b, and every map built from
    translations and divisions ignores w:
    gyr(yw,z) = gyr(y,zw) = gyr(y,z) and L(xw,y) = L(x,yw) = L(x,y).  This
    holds in every group, with no class hypothesis.
    """
    n = len(A)
    elem = elem_dtype(n)
    A = np.ascontiguousarray(A, dtype=elem)
    flat, flat_inv = A.ravel(), np.ascontiguousarray(Ainv, dtype=elem).ravel()
    keep = np.arange(n) if reps is None else np.flatnonzero(reps == np.arange(n))
    k = len(keep)
    ids = np.empty(k * k, dtype=np.int32)
    step = max(1, BLOCK_CELLS // n)
    for lo in range(0, k * k, step):
        pair = np.arange(lo, min(lo + step, k * k))
        xs, ys = keep[pair // k], keep[pair % k]
        inner = flat.take(ys[:, None] * n + A[xs])               # A_y(A_x(t))
        outer = P[xs, ys].astype(np.intp)[:, None] * n + inner
        ids[lo:lo + step] = index.add(flat_inv.take(outer))
    ids = ids.reshape(k, k)
    if reps is None:
        return ids
    at = np.searchsorted(keep, reps)              # class of x -> its position in keep
    return ids[np.ix_(at, at)]


def _automorphism_violation(L: FiniteLoop, p: np.ndarray) -> tuple[int, int] | None:
    """First (u, v) with p(u*v) != p(u)*p(v), else None."""
    T = L.table
    return first_cell(p[T] != T[np.ix_(p, p)])


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
        a, b = first_cell(_mark(len(gt.perms), bad_perm_ids)[gt.ids])
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
    w = first_cell(~pairing_ok)
    if w is not None:
        return failed(check_id, GYRO_AXIOMS_STATEMENT, witness=w,
                      details={**details, "axiom": "pairing"})
    return passed(check_id, GYRO_AXIOMS_STATEMENT, details=details)
