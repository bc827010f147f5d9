"""Central extensions, factor sets, and reconstruction of the twisted loop.

Given a central subgroup Z <= Z(G), the transversal rep: G/Z -> G picks the
least element of each coset, so rep(identity coset) = identity.  The factor
set is

  f(x, y) = rep(x) rep(y) rep(xy)^-1   (values in Z)

and satisfies the cocycle identity f(x,y) f(xy,z) = f(y,z) f(x,yz).  The
twisted product on G induces a twisted factor set over the quotient loop:

  tf(x, y) = f(y, y^-1)^-1 f(y^-1, x) f(y, y) f(y^-1 x, y^2)

and the loop built on pairs (a, x) by (a,x)*(b,y) = (a b tf(x,y), x*y) is
isomorphic to the twisted loop of G via (a, x) -> a rep(x).  Both are a
FactorSet: f (loop None) is defined on the quotient group, tf on the quotient
loop it carries.  Two transversals differ by tau(x) = rep2(x) rep1(x)^-1 in Z,
and two factor sets of either kind are related by one coboundary relation
over the product x.y they are defined on (coboundary_violation):

  g(x, y) = tau(x) tau(y) f(x, y) tau(x.y)^-1

For tf, x.y is the loop product x * y because tf's defining combination lands
on the coset of y^-1 x y^2; substituting the plain relation into the
definition of tf makes the last factor tau(y^-1 x y^2)^-1 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    InvariantViolated,
    NotACocycle,
    NotASubgroup,
    NotCentral,
    ValueOutsideCenter,
)
from .groups import (
    FiniteGroup,
    _mark,
    elem_dtype,
    first_cell,
    first_violation,
    is_group_table,
    quotient_group,
    subgroup_as_group,
    subgroup_violation,
)
from .gyro import build_gyro
from .loops import FiniteLoop, loop_from_table


@dataclass(frozen=True)
class Transversal:
    group: FiniteGroup
    center: tuple[int, ...]              # sorted member indices in G
    quotient: FiniteGroup
    projection: np.ndarray               # G index -> quotient index
    reps: np.ndarray                     # quotient index -> G index


def make_transversal(G: FiniteGroup, Z: Iterable[int]) -> Transversal:
    """The least element of each coset of a central subgroup as its representative.

    That is the first occurrence of each label in the quotient projection;
    the identity 0 is the first element of its coset, so the transversal is
    normalized.
    """
    Zs = frozenset(int(z) for z in Z)
    w = subgroup_violation(G, Zs)
    if w is not None:
        raise NotASubgroup(w)
    bad = _noncentral(G, Zs)
    if bad is not None:
        raise NotCentral(bad)
    Q, proj = quotient_group(G, Zs)
    reps = np.unique(proj, return_index=True)[1].astype(elem_dtype(G.order))
    return Transversal(G, tuple(sorted(Zs)), Q, proj, reps)


def _noncentral(G: FiniteGroup, members) -> tuple[int, int] | None:
    """The first (z, x) with z x != x z, z over the members ascending."""
    zl = sorted(int(z) for z in members)
    bad = first_cell(G.table[zl] != G.table[:, zl].T)        # [k, x]: z_k x != x z_k
    return None if bad is None else (zl[bad[0]], bad[1])


@dataclass(frozen=True)
class FactorSet:
    """values[x, y] is a G-element index lying in the central subgroup.

    loop is None for the plain factor set, defined on the quotient group,
    and the twisted loop of the quotient for the twisted factor set.
    """

    group: FiniteGroup
    center: tuple[int, ...]
    quotient: FiniteGroup
    values: np.ndarray
    loop: FiniteLoop | None = None

    def local_values(self) -> np.ndarray:
        """Values as positions within the sorted center list (for export)."""
        return _center_positions(self.values, self.center)


def _center_positions(values: np.ndarray, center: tuple[int, ...]) -> np.ndarray:
    """Position of each value of a q x q table in the sorted center list.

    ValueOutsideCenter names the first cell, in row-major order, whose value
    is not in the center."""
    c = np.asarray(center)
    pos = np.searchsorted(c, values).clip(max=len(c) - 1)
    bad = first_cell(c[pos] != values)
    if bad is not None:
        raise ValueOutsideCenter(bad, int(values[bad]))
    return pos


def factor_set(G: FiniteGroup, T: Transversal) -> FactorSet:
    """f(x, y) = rep(x) rep(y) rep(xy)^-1, verified to be a normalized cocycle.

    When G and T.quotient pass is_group_table and every value, one of
    T.center, is central in G, the identity holds with no scan: both sides
    are rep(x) rep(y) rep(z) rep(xyz)^-1, by associativity in G and in the
    quotient and by moving the central f(y,z) past rep(x)."""
    reps = T.reps
    Q = T.quotient
    r_prod = G.table[np.ix_(reps, reps)]                 # rep(x) rep(y)
    values = G.table[r_prod, G.inverse[reps[Q.table]]]
    _center_positions(values, T.center)                  # every value is central
    off = np.flatnonzero(values[0] | values[:, 0])         # f(e, k) or f(k, e) != e
    if len(off):
        k = int(off[0])
        raise NotACocycle("is not normalized", (0, k) if values[0, k] else (k, 0))
    fs = FactorSet(G, T.center, Q, values)
    if not (is_group_table(G) and is_group_table(Q)
            and _noncentral(G, np.flatnonzero(_mark(G.order, values))) is None):
        bad = cocycle_violation(fs)
        if bad is not None:
            raise NotACocycle("fails the cocycle identity", bad)
    return fs


def cocycle_violation(f: FactorSet) -> tuple[int, int, int] | None:
    """First (x, y, z) violating f(x,y) f(xy,z) == f(y,z) f(x,yz), else None.

    Products of the (central) values are taken in the base group; order does
    not matter since the values commute with everything.
    """
    mul, Qt, v = f.group.table, f.quotient.table, f.values

    def slab(x):
        # [y, z]: f(x,y) * f(xy, z) against f(y,z) * f(x, yz)
        return mul[v[x][:, None], v[Qt[x], :]] != mul[v, v[x, Qt]]
    return first_violation(len(Qt), slab)


def gyro_factor_set(f: FactorSet) -> FactorSet:
    """tf(x, y) = f(y, y^-1)^-1 f(y^-1, x) f(y, y) f(y^-1 x, y^2) on the quotient loop."""
    G, Q, v = f.group, f.quotient, f.values
    mul, x, yinv = G.table, np.arange(Q.order)[:, None], Q.inverse
    y = x.T
    # [x, y] cells: f(y, y^-1)^-1 f(y^-1, x) f(y, y) f(y^-1 x, y^2)
    values = mul[mul[mul[G.inverse[v[y, yinv]], v[yinv, x]], v[y, y]],
                 v[Q.table[yinv, x], Q.table[y, y]]]
    _center_positions(values, f.center)                  # every value is central
    return FactorSet(G, f.center, Q, values, loop=build_gyro(Q).loop)


def build_gyro_extension(tf: FactorSet) -> FiniteLoop:
    """Loop on pairs (a, x), index a*|Q| + x, with the twisted cocycle product.

    (a, x) * (b, y) = (a b tf(x, y), x * y): first coordinate multiplied in
    the central (abelian) group Z, second in the quotient loop tf.loop.  Built
    leniently so that deliberately corrupted factor sets stay representable.
    """
    if tf.loop is None:
        raise InvariantViolated("the extension needs the twisted factor set")
    z_part, q_part = subgroup_as_group(tf.group, tf.center)[0], tf.loop
    nz, nq = z_part.order, q_part.order
    tf_local = tf.local_values()
    # [a, x, b, y] -> index of (a b tf(x, y), x * y), formed in the dtype of
    # the nz * nq elements, where z_part's own dtype could wrap
    zsum = z_part.table[z_part.table[:, None, :, None], tf_local[None, :, None, :]]
    table = (zsum.astype(elem_dtype(nz * nq), copy=False) * nq
             + q_part.table[None, :, None, :]).reshape(nz * nq, nz * nq)
    names = [f"({z_part.names[a]},{q_part.names[x]})"
             for a in range(nz) for x in range(nq)]
    names[0] = "e"
    return loop_from_table(table, names=names, lenient=True, name="gyro-extension")


def verify_extension_isomorphism(built: FiniteLoop, target: FiniteLoop,
                                 T: Transversal) -> tuple[bool, tuple[int, int] | None]:
    """Check (a, x) -> a rep(x) maps the built loop onto the target cellwise.

    Returns (ok, witness); the witness is the first cell (u, v) of the built
    table where the image product disagrees, which localizes any corrupted
    factor-set entry to its quotient cell.
    """
    G = T.group
    nz, nq = len(T.center), T.quotient.order
    z_members = np.array(T.center, dtype=elem_dtype(G.order))
    phi = G.table[np.repeat(z_members, nq), np.tile(T.reps, nz)]
    repeated = first_cell(np.bincount(phi, minlength=G.order) > 1)
    if repeated is not None:
        return False, repeated + (-1,)
    w = first_cell(phi[built.table] != target.table[np.ix_(phi, phi)])
    return w is None, w


def transversal_tau(t1: Transversal, t2: Transversal) -> np.ndarray:
    """tau(x) = rep2(x) rep1(x)^-1, the central difference of two transversals."""
    G = t1.group
    if t1.center != t2.center:
        raise InvariantViolated("transversals must share the central subgroup")
    tau = G.table[t2.reps, G.inverse[t1.reps]]
    bad = first_cell(~_mark(G.order, t1.center)[tau])
    if bad is not None:
        raise ValueOutsideCenter(bad, int(tau[bad]))
    return tau


def coboundary_violation(f: FactorSet, g: FactorSet,
                         tau: np.ndarray) -> tuple[int, int] | None:
    """First (x, y) where g(x,y) != tau(x) tau(y) f(x,y) tau(x.y)^-1, else None.

    x.y is the product f is defined on: the quotient group's for a plain
    factor set, the quotient loop's for a twisted one.
    """
    mul = f.group.table
    xy = (f.quotient if f.loop is None else f.loop).table
    rhs = mul[mul[mul[np.ix_(tau, tau)], f.values], f.group.inverse[tau[xy]]]
    return first_cell(g.values != rhs)
