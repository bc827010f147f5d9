import dataclasses
import hashlib
import json

import numpy as np
import pytest

from gyrolab import (
    InvariantViolated,
    NotASubgroup,
    NotCentral,
    ValueOutsideCenter,
    build_gyro,
    build_gyro_extension,
    catalog_group,
    coboundary_violation,
    cocycle_violation,
    factor_set,
    group_center,
    gyro_factor_set,
    make_transversal,
    transversal_tau,
    verify_extension_isomorphism,
    verify_suite,
)
from gyrolab.fileio import export_text


def _pipeline(spec, redraw=lambda T: T):
    G = catalog_group(spec)
    Z = group_center(G)
    T = redraw(make_transversal(G, Z))
    fs = factor_set(G, T)
    tf = gyro_factor_set(fs)
    built = build_gyro_extension(tf)
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
    built = build_gyro_extension(gyro_factor_set(factor_set(G, T)))
    ok, _ = verify_extension_isomorphism(built, build_gyro(G).loop, T)
    assert ok


def test_extension_needs_the_twisted_factor_set(d16):
    fs = factor_set(d16, make_transversal(d16, group_center(d16)))
    assert fs.loop is None and gyro_factor_set(fs).loop is not None
    with pytest.raises(InvariantViolated):
        build_gyro_extension(fs)


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
def test_two_transversals_coboundary(spec, seeded_transversal):
    G = catalog_group(spec)
    T1 = make_transversal(G, group_center(G))
    T2 = seeded_transversal(T1, 7)
    assert not np.array_equal(T1.reps, T2.reps)    # seed 7 actually moves reps
    fs1, fs2 = factor_set(G, T1), factor_set(G, T2)
    tau = transversal_tau(T1, T2)
    assert coboundary_violation(fs1, fs2, tau) is None
    assert coboundary_violation(gyro_factor_set(fs1), gyro_factor_set(fs2), tau) is None


def test_coboundary_violation_reads_the_product_of_its_kind(d16, seeded_transversal):
    # the plain relation read in the quotient loop fails, and the twisted
    # one read in the quotient group fails: each kind has its own product
    T1 = make_transversal(d16, group_center(d16))
    T2 = seeded_transversal(T1, 7)
    fs1, fs2 = factor_set(d16, T1), factor_set(d16, T2)
    tf1, tf2 = gyro_factor_set(fs1), gyro_factor_set(fs2)
    tau = transversal_tau(T1, T2)
    as_loop = dataclasses.replace(fs1, loop=tf1.loop)
    as_group = dataclasses.replace(tf1, loop=None)
    assert coboundary_violation(as_loop, fs2, tau) is not None
    assert coboundary_violation(as_group, tf2, tau) is not None
    vals = fs2.values.copy()
    vals[2, 3] = next(z for z in fs2.center if z != int(vals[2, 3]))
    assert coboundary_violation(fs1, dataclasses.replace(fs2, values=vals), tau) == (2, 3)


def test_mutated_twisted_factor_set_breaks_reconstruction(d16):
    G, Z, T, fs, tf, built, target = _pipeline("dihedral:16")
    vals = tf.values.copy()
    zl = sorted(Z)
    cur = int(vals[1, 1])
    vals[1, 1] = next(z for z in zl if z != cur)
    built_bad = build_gyro_extension(dataclasses.replace(tf, values=vals))
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


@pytest.mark.parametrize("spec,reps", [
    ("dihedral:16", "least-index"), ("dihedral:16", "random-seeded"),
    ("unitriangular4:2", "least-index"), ("heisenberg:3", "random-seeded"),
    ("quaternion:16", "least-index"), ("wreath33", "random-seeded"),
])
def test_gyro_factor_set_matches_the_per_cell_reference(spec, reps, seeded_transversal):
    redraw = (lambda T: seeded_transversal(T, 7)) if reps == "random-seeded" else (lambda T: T)
    G, Z, T, fs, tf, built, target = _pipeline(spec, redraw)
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
        gyro_factor_set(bad)
    assert (exc.value.cell, exc.value.value) == (cell, int(ref[cell]))


# sha256 of the factor-set export (JSON, CSV) and of the sorted-key JSON of
# the cocycle-reconstruction report
FACTOR_SET_PINS = {
    "cyclic:6": (
        "043e4a303fb34d95980ef71d879d155a4441751453d180deacd9f94bae13ef50",
        "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
        "067badd6930aaa4f8b43f63981aa2963bbfcef8b3a37b644b3884e91681ff660"),
    "heisenberg:3": (
        "2af1a63630e28fc6261fa14c2c569c7e64372869182b936c56445607aebe7e33",
        "375b39203d38ca594086813b0b2623de9a5063ff40206fc6d4ba7d769aef94a4",
        "86c30d3a12cf092f136dabc9825e7e2947bbb9f1a764d10f8b7a72f2aa224774"),
    "dihedral:16": (
        "9309ae840550ae7c6be7111838967bc066c6151e0bfd67681d440f680fa8dbb8",
        "08d6899cf35e825dd22b5154a3b6a6a3abb8ef0c64064f794fc913c2c7b1e1b4",
        "474fc9ac6d9424c778fcc4fee2c5c423588f50599005d2ca8b68171c4686c297"),
    "wreath33": (
        "f3419b6593325224ccd46e7c802c6f6473676c11bd72955271e497874f21ae4e",
        "bc833ca6e818d7a68ab45c449f3177b23d25c1991c0cbdb04584286c1b1a16d8",
        "cc848e3642ff4f24c3bedaae72b232d28ca16e8132e16b4ad6a70eb25048a1e2"),
    "product:wreath33,cyclic:3": (
        "732dbdfce66ca2f74b967283d4a4ad71ad2ae81f273025abec862d0c0278d873",
        "0607c599e2b5732beee1329296f84c590626fe715fff29df214199c788b94a06",
        "c638fd1c63e7488bbd2f52454ff7a2c88903c36950c8f5a12bbf51f116c59f90"),
}


@pytest.mark.parametrize("spec", sorted(FACTOR_SET_PINS))
def test_factor_set_documents_are_pinned(spec):
    G = catalog_group(spec)
    report = verify_suite(G, ["cocycle-reconstruction"])[0]
    assert report.status == "pass"
    docs = (export_text(G, "factor-set", "json"), export_text(G, "factor-set", "csv"),
            json.dumps(report.to_dict(), sort_keys=True))
    assert tuple(hashlib.sha256(d.encode()).hexdigest() for d in docs) == FACTOR_SET_PINS[spec]
