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
exactly when their c lie in the same coset of Z(G).  gyration_table uses
this closed form on a loop that build_gyro made from a table passing
Light's associativity test, and the generic kernel _map_family otherwise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NotRightLoop
from .groups import (
    FiniteGroup,
    _light_associative,
    _right_generators,
    elem_dtype,
    group_center,
    nilpotency_class,
    offset_dtype,
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
    closed form is taken when the recorded source has identity 0, true
    inverses and passes Light's test; every other loop goes through the
    generic kernel _map_family.  Both give the same ids and rows.
    """
    if L.right_division is None:
        raise NotRightLoop(-1)
    if "gyr" in L._cache:
        return L._cache["gyr"]
    T = L.table
    G = L._cache.get("source")
    if G is not None and _is_group_table(G):
        ids, rows = _conjugation_family(G)
    else:
        index = RowIndex(L.order, elem_dtype(L.order))
        # row a of T.T is R_a and row a of right_division.T is R_a^-1
        ids = _map_family(T.T, L.right_division.T, T, _right_generators(T), index)
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


# Conjugators c[y, z] are computed for blocks of rows holding about this many
# cells, so that no step holds n^2 index values.
CONJUGATOR_BLOCK = 1 << 16


def _conjugation_family(G: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """ids[y, z] and the distinct rows of the gyrations of G's twisted loop.

    gyr(y,z) is x -> c^-1 x c with c = y z^-1 y^-1 z, and two conjugators
    give the same map exactly when they share a coset of Z(G), labelled here
    by its least element.  ids ranks the labels of c[y, z] in row-major
    first-occurrence order, the numbering of _map_family; row k conjugates
    by the label of id k.  G must be a group (see _is_group_table).
    """
    n = G.order
    flat = np.ascontiguousarray(G.table).ravel()
    inv = G.inverse.astype(np.intp)
    label = G.table[:, sorted(group_center(G))].min(axis=1)   # least element of g Z(G)
    rank = np.full(n, -1, dtype=np.int32)         # label -> id
    reps: list[int] = []                          # label of each id
    ids = np.empty((n, n), dtype=np.int32)
    ar = np.arange(n)
    step = max(1, CONJUGATOR_BLOCK // n)
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


# Maps that share a fingerprint are checked against a candidate only in
# groups of at least this many; a smaller group costs more in Python-level
# calls than its rows cost to compute and hash.
MIN_VERIFY_ROWS = 16
# Fingerprints are taken for blocks of slabs holding about this many maps.
FINGERPRINT_BLOCK = 1 << 12


def _map_family(A: np.ndarray, Ainv: np.ndarray, P: np.ndarray,
                probes, index: RowIndex) -> np.ndarray:
    """Ids in index of the maps M(x,y) = A_{P[x,y]}^-1 o A_y o A_x, as ids[x, y].

    Row a of A is the permutation A_a and row a of Ainv is its inverse.  Maps
    not yet in index are added in first-occurrence order, x major.

    Per x, the maps are grouped by their images of the probe points (their
    fingerprint), which are taken for a block of x at a time.  A group of at
    least MIN_VERIFY_ROWS maps takes as candidate k the id last seen in a
    group with that fingerprint, and is checked on every point: M(x,y) = P_k
    exactly when A_y A_x P_k^-1 = A_{P[x,y]}, one shared-index gather and
    one row gather for the group.  Every map without a verified candidate is
    computed in full and added to index in y order, so new ids arise only
    there and equal the ids of hashing every map.  A slab with no group of
    MIN_VERIFY_ROWS maps, as in a random loop, is thus computed in full.
    """
    n = len(A)
    elem, offset = elem_dtype(n), offset_dtype(n)
    A = np.ascontiguousarray(A, dtype=elem)
    Ainv = np.ascontiguousarray(Ainv, dtype=elem).ravel()
    P = np.asarray(P)
    probes = np.asarray(probes, dtype=np.intp)
    ids = np.empty((n, n), dtype=np.int32)
    seen: dict[int, int] = {}                     # fingerprint -> last id in a group
    inverses: dict[int, np.ndarray] = {}
    step = max(1, FINGERPRINT_BLOCK // n)
    for lo in range(0, n, step):
        xs = np.arange(lo, min(lo + step, n))
        bases = P[xs].astype(offset) * n          # [x, y] -> offset of row P[x,y] of Ainv
        images = Ainv.take(A.take(A[xs][:, probes], axis=1).transpose(1, 0, 2)
                           + bases[:, :, None])   # [x, y, j] -> M(x,y)(probe j)
        keys = np.zeros(bases.shape, dtype=np.int64)
        for j in range(len(probes)):
            keys = keys * n + images[:, :, j]     # wraps past 2^63: a collision at worst
        order = np.argsort(keys, axis=1, kind="stable")
        ranked = np.take_along_axis(keys, order, axis=1)
        fresh = np.ones(keys.shape, dtype=bool)   # a group starts here
        fresh[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
        starts = np.flatnonzero(fresh)
        ends = np.append(starts[1:], fresh.size)
        big = np.flatnonzero(ends - starts >= MIN_VERIFY_ROWS)
        order, ranked = order.ravel(), ranked.ravel()
        groups: dict[int, dict[int, np.ndarray]] = {}   # x -> fingerprint -> ys
        for s, e in zip(starts[big].tolist(), ends[big].tolist()):
            groups.setdefault(lo + s // n, {})[int(ranked[s])] = order[s:e]
        for x, base in zip(xs.tolist(), bases):
            Ax = A[x]
            if x not in groups:
                ids[x] = index.add(Ainv.take(A.take(Ax, axis=1) + base[:, None]))
                continue
            slab = np.full(n, -1, dtype=np.int64)
            for fingerprint, Y in groups[x].items():
                k = seen.get(fingerprint)
                if k is None:
                    continue
                if k not in inverses:
                    inverses[k] = np.empty(n, dtype=elem)
                    inverses[k][index.rows[k]] = np.arange(n, dtype=elem)
                ok = (A.take(Y, axis=0).take(Ax.take(inverses[k]), axis=1)
                      == A.take(P[x].take(Y), axis=0)).all(axis=1)
                slab[Y[ok]] = k
            rest = np.flatnonzero(slab < 0)
            if len(rest):
                rows = A if len(rest) == n else A.take(rest, axis=0)
                slab[rest] = index.add(Ainv.take(rows.take(Ax, axis=1) + base[rest][:, None]))
            seen.update((fingerprint, int(slab[Y[-1]])) for fingerprint, Y in groups[x].items())
            ids[x] = slab
    return ids


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
