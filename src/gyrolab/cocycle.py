"""Central extensions, factor sets, and reconstruction of the twisted loop.

Given a central subgroup Z <= Z(G) and a transversal rep: G/Z -> G with
rep(identity coset) = identity, the factor set is

  f(x, y) = rep(x) rep(y) rep(xy)^-1   (values in Z)

and satisfies the cocycle identity f(x,y) f(xy,z) = f(y,z) f(x,yz).  The
twisted product on G induces a twisted factor set over the quotient loop:

  tf(x, y) = f(y, y^-1)^-1 f(y^-1, x) f(y, y) f(y^-1 x, y^2)

and the loop built on pairs (a, x) by (a,x)*(b,y) = (a b tf(x,y), x*y) is
isomorphic to the twisted loop of G via (a, x) -> a rep(x).  Two transversals
differ by tau(x) = rep2(x) rep1(x)^-1 in Z, and the factor sets are related by

  g(x, y) = tau(x) tau(y) f(x, y) tau(x y)^-1          (group product x y)
  tg(x, y) = tau(x) tau(y) tf(x, y) tau(x * y)^-1      (loop product x * y)

The loop product appears in the twisted relation because tf's defining
combination lands on the coset of y^-1 x y^2; substituting the plain relation
into the definition of tf makes the last factor tau(y^-1 x y^2)^-1 exactly.
"""

from __future__ import annotations

import random
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
    _subgroup_witness,
    first_cell,
    first_violation,
    is_subgroup,
    quotient_group,
)
from .loops import FiniteLoop, loop_from_table


@dataclass(frozen=True)
class Transversal:
    group: FiniteGroup
    center: tuple[int, ...]              # sorted member indices in G
    quotient: FiniteGroup
    projection: np.ndarray               # G index -> quotient index
    reps: np.ndarray                     # quotient index -> G index
    policy: str


def make_transversal(G: FiniteGroup, Z: Iterable[int], policy: str = "least-index",
                     seed: int | None = None) -> Transversal:
    """Choose coset representatives for a central subgroup.

    policy "least-index" picks the smallest element index of each coset;
    "random-seeded" draws representatives from a seeded RNG.  Both force the
    representative of the identity coset to be the identity (normalization).
    """
    Zs = frozenset(int(z) for z in Z)
    if not is_subgroup(G, Zs):
        raise NotASubgroup(_subgroup_witness(G, Zs))
    zl = sorted(Zs)
    bad = first_cell(G.table[zl] != G.table[:, zl].T)        # [k, x]: z_k x != x z_k
    if bad is not None:
        raise NotCentral((zl[bad[0]], bad[1]))
    Q, proj = quotient_group(G, Zs)
    cosets = [np.flatnonzero(proj == q) for q in range(Q.order)]
    if policy == "least-index":
        reps = np.array([int(c.min()) for c in cosets], dtype=np.int32)
    elif policy == "random-seeded":
        rng = random.Random(seed)
        reps = np.array([int(rng.choice(c.tolist())) for c in cosets], dtype=np.int32)
    else:
        raise ValueError(f"unknown transversal policy {policy!r}")
    reps[0] = 0
    return Transversal(G, tuple(sorted(Zs)), Q, proj, reps, policy)


@dataclass(frozen=True)
class FactorSet:
    """values[x, y] is a G-element index lying in the central subgroup."""

    group: FiniteGroup
    center: tuple[int, ...]
    quotient: FiniteGroup
    values: np.ndarray

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
    """f(x, y) = rep(x) rep(y) rep(xy)^-1, verified to be a normalized cocycle."""
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


@dataclass(frozen=True)
class GyroFactorSet:
    """Twisted factor set over the quotient loop; values are G-element indices."""

    group: FiniteGroup
    center: tuple[int, ...]
    quotient: FiniteGroup                 # the quotient as a group
    quotient_loop: FiniteLoop             # the twisted loop on the quotient
    values: np.ndarray

    def local_values(self) -> np.ndarray:
        """Values as positions within the sorted center list (for export)."""
        return _center_positions(self.values, self.center)


def gyro_factor_set(f: FactorSet, q_circ: FiniteLoop) -> GyroFactorSet:
    """tf(x, y) = f(y, y^-1)^-1 f(y^-1, x) f(y, y) f(y^-1 x, y^2)."""
    G, Q, v = f.group, f.quotient, f.values
    if q_circ.order != Q.order:
        raise InvariantViolated("quotient loop must live on the quotient group")
    mul, x, yinv = G.table, np.arange(Q.order)[:, None], Q.inverse
    y = x.T
    # [x, y] cells: f(y, y^-1)^-1 f(y^-1, x) f(y, y) f(y^-1 x, y^2)
    values = mul[mul[mul[G.inverse[v[y, yinv]], v[yinv, x]], v[y, y]],
                 v[Q.table[yinv, x], Q.table[y, y]]]
    _center_positions(values, f.center)                  # every value is central
    return GyroFactorSet(G, f.center, Q, q_circ, values)


def build_gyro_extension(z_part: FiniteGroup, q_part: FiniteLoop,
                         tf: GyroFactorSet) -> FiniteLoop:
    """Loop on pairs (a, x), index a*|Q| + x, with the twisted cocycle product.

    (a, x) * (b, y) = (a b tf(x, y), x * y): first coordinate multiplied in
    the central (abelian) group, second in the quotient loop.  Built leniently
    so that deliberately corrupted factor sets stay representable.
    """
    nz, nq = z_part.order, q_part.order
    tf_local = tf.local_values()
    # [a, x, b, y] -> index of (a b tf(x, y), x * y)
    zsum = z_part.table[z_part.table[:, None, :, None], tf_local[None, :, None, :]]
    table = (zsum * nq + q_part.table[None, :, None, :]).reshape(nz * nq, nz * nq)
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
    z_members = np.array(T.center, dtype=np.int32)
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


def coboundary_relate(f: FactorSet, g: FactorSet, tau: np.ndarray) -> np.ndarray:
    """Boolean matrix of g(x,y) == tau(x) tau(y) f(x,y) tau(xy)^-1 per pair."""
    G, Q = f.group, f.quotient
    t_prod = G.table[np.ix_(tau, tau)]
    rhs = G.table[G.table[t_prod, f.values], G.inverse[tau[Q.table]]]
    return g.values == rhs


def gyro_coboundary_relate(tf: GyroFactorSet, tg: GyroFactorSet,
                           tau: np.ndarray) -> tuple[bool, tuple[int, int] | None]:
    """Check tg(x,y) == tau(x) tau(y) tf(x,y) tau(x*y)^-1 with the loop product."""
    G = tf.group
    Lq = tf.quotient_loop
    t_prod = G.table[np.ix_(tau, tau)]
    rhs = G.table[G.table[t_prod, tf.values], G.inverse[tau[Lq.table]]]
    w = first_cell(tg.values != rhs)
    return w is None, w
