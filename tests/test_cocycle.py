import dataclasses

import numpy as np
import pytest

from gyrolab import (
    NotASubgroup,
    NotCentral,
    ValueOutsideCenter,
    build_gyro,
    build_gyro_extension,
    catalog_group,
    coboundary_relate,
    cocycle_violation,
    factor_set,
    group_center,
    gyro_coboundary_relate,
    gyro_factor_set,
    make_transversal,
    subgroup_as_group,
    transversal_tau,
    verify_extension_isomorphism,
)


def _pipeline(spec, policy="least-index", seed=None):
    G = catalog_group(spec)
    Z = group_center(G)
    T = make_transversal(G, Z, policy=policy, seed=seed)
    fs = factor_set(G, T)
    qloop = build_gyro(T.quotient).loop
    tf = gyro_factor_set(fs, qloop)
    zgrp, _ = subgroup_as_group(G, Z)
    built = build_gyro_extension(zgrp, qloop, tf)
    target = build_gyro(G).loop
    return G, Z, T, fs, tf, built, target


def test_transversal_least_index(d16):
    T = make_transversal(d16, group_center(d16))
    assert T.reps[0] == 0
    assert T.quotient.order == 8
    # each rep is the least element of its coset
    for x, rep in enumerate(T.reps):
        coset = [g for g in range(16) if T.projection[g] == x]
        assert rep == min(coset)


def test_transversal_rejects_noncentral(d16):
    with pytest.raises(NotCentral):
        make_transversal(d16, {0, 2, 4, 6})    # <r2> is not central
    with pytest.raises(NotASubgroup):
        make_transversal(d16, {0, 3})


def test_factor_set_normalized(d16):
    T = make_transversal(d16, group_center(d16))
    fs = factor_set(d16, T)
    assert (fs.values[0, :] == 0).all()
    assert (fs.values[:, 0] == 0).all()
    assert set(np.unique(fs.values)) <= set(fs.center)
    assert cocycle_violation(fs) is None


def test_cocycle_violation_detects_mutation(d16):
    T = make_transversal(d16, group_center(d16))
    fs = factor_set(d16, T)
    vals = fs.values.copy()
    zl = sorted(fs.center)
    vals[2, 3] = zl[1] if int(vals[2, 3]) == zl[0] else zl[0]
    bad = dataclasses.replace(fs, values=vals)
    assert cocycle_violation(bad) == (1, 1, 3)


@pytest.mark.parametrize("spec", ["dihedral:16", "unitriangular4:2", "heisenberg:3",
                                  "quaternion:16", "cyclic:4"])
def test_reconstruction(spec):
    G, Z, T, fs, tf, built, target = _pipeline(spec)
    ok, witness = verify_extension_isomorphism(built, target, T)
    assert ok, (spec, witness)


def test_reconstruction_trivial_quotient():
    # center = whole group: the quotient collapses to a point
    G = catalog_group("cyclic:6")
    T = make_transversal(G, range(6))
    assert T.quotient.order == 1
    fs = factor_set(G, T)
    tf = gyro_factor_set(fs, build_gyro(T.quotient).loop)
    zgrp, _ = subgroup_as_group(G, range(6))
    built = build_gyro_extension(zgrp, build_gyro(T.quotient).loop, tf)
    ok, _ = verify_extension_isomorphism(built, build_gyro(G).loop, T)
    assert ok


def test_transversal_tau_names_the_least_rep_outside_its_coset(d16):
    T1 = make_transversal(d16, group_center(d16))
    reps = T1.reps.copy()
    reps[5], reps[3] = T1.reps[6], T1.reps[4]     # both move to another coset
    T2 = dataclasses.replace(T1, reps=reps)
    with pytest.raises(ValueOutsideCenter) as exc:
        transversal_tau(T1, T2)
    assert exc.value.cell == (3,)
    assert exc.value.value == d16.mul(int(reps[3]), d16.inv(int(T1.reps[3])))
    assert (transversal_tau(T1, T1) == 0).all()


@pytest.mark.parametrize("spec", ["dihedral:16", "unitriangular4:2"])
def test_two_transversals_coboundary(spec):
    G = catalog_group(spec)
    Z = group_center(G)
    T1 = make_transversal(G, Z, policy="least-index")
    T2 = make_transversal(G, Z, policy="random-seeded", seed=7)
    assert not np.array_equal(T1.reps, T2.reps)    # seed 7 actually moves reps
    fs1, fs2 = factor_set(G, T1), factor_set(G, T2)
    qloop = build_gyro(T1.quotient).loop
    tf1, tf2 = gyro_factor_set(fs1, qloop), gyro_factor_set(fs2, qloop)
    tau = transversal_tau(T1, T2)
    assert bool(np.all(coboundary_relate(fs1, fs2, tau)))
    ok, witness = gyro_coboundary_relate(tf1, tf2, tau)
    assert ok, witness


def test_seeded_transversal_reproducible(d16):
    Z = group_center(d16)
    a = make_transversal(d16, Z, policy="random-seeded", seed=11)
    b = make_transversal(d16, Z, policy="random-seeded", seed=11)
    assert np.array_equal(a.reps, b.reps)


def test_mutated_twisted_factor_set_breaks_reconstruction(d16):
    G, Z, T, fs, tf, built, target = _pipeline("dihedral:16")
    vals = tf.values.copy()
    zl = sorted(Z)
    cur = int(vals[1, 1])
    vals[1, 1] = next(z for z in zl if z != cur)
    tf_bad = dataclasses.replace(tf, values=vals)
    zgrp, _ = subgroup_as_group(G, Z)
    built_bad = build_gyro_extension(zgrp, tf.quotient_loop, tf_bad)
    ok, witness = verify_extension_isomorphism(built_bad, target, T)
    assert not ok
    assert witness == (1, 1)           # failure localized at the mutated cell


def _ref_gyro_values(f):
    """tf(x, y) cell by cell with scalar products, unchecked."""
    G, Q, v = f.group, f.quotient, f.values
    q = Q.order
    values = np.empty((q, q), dtype=np.int32)
    for y in range(q):
        yinv = Q.inv(y)
        t0, t2 = G.inv(int(v[y, yinv])), int(v[y, y])
        for x in range(q):
            yx = Q.mul(yinv, x)
            values[x, y] = G.mul(G.mul(G.mul(t0, int(v[yinv, x])), t2),
                                 int(v[yx, Q.mul(y, y)]))
    return values


@pytest.mark.parametrize("spec,policy", [
    ("dihedral:16", "least-index"), ("dihedral:16", "random-seeded"),
    ("unitriangular4:2", "least-index"), ("heisenberg:3", "random-seeded"),
    ("quaternion:16", "least-index"), ("wreath33", "random-seeded"),
])
def test_gyro_factor_set_matches_the_per_cell_reference(spec, policy):
    G, Z, T, fs, tf, built, target = _pipeline(spec, policy=policy, seed=7)
    assert np.array_equal(tf.values, _ref_gyro_values(fs))
    for values, local in ((fs.values, fs.local_values()), (tf.values, tf.local_values())):
        pos = {g: i for i, g in enumerate(sorted(Z))}
        assert local.tolist() == [[pos[int(v)] for v in row] for row in values]


def test_value_outside_center_names_the_first_cell_in_row_major_order(d16):
    T = make_transversal(d16, group_center(d16))
    fs = factor_set(d16, T)
    vals = fs.values.copy()
    vals[2, 3] = 1                           # r is not central
    vals[1, 5] = 2
    bad = dataclasses.replace(fs, values=vals)
    with pytest.raises(ValueOutsideCenter) as exc:
        bad.local_values()
    assert (exc.value.cell, exc.value.value) == ((1, 5), 2)

    ref = _ref_gyro_values(bad)
    outside = ~np.isin(ref, fs.center)
    k = int(np.argmax(outside))
    cell = (k // ref.shape[1], k % ref.shape[1])
    assert outside.sum() > 1 and cell != (1, 5)
    with pytest.raises(ValueOutsideCenter) as exc:
        gyro_factor_set(bad, build_gyro(T.quotient).loop)
    assert (exc.value.cell, exc.value.value) == (cell, int(ref[cell]))
