import warnings

import numpy as np
import pytest

from gyrolab import (
    build_gyro,
    catalog_group,
    group_commutator,
    gyration,
    gyration_table,
    is_gyrogroup,
)
from gyrolab import gyro
from gyrolab.gyro import GyrationTable
from gyrolab.loops import loop_from_table
from gyrolab.perms import RowIndex


def test_definition_pointwise(d16, d16_loop):
    # x*y = y^-1 x y^2, spot-checked against direct group arithmetic
    for x in (0, 1, 5, 8, 13):
        for y in (0, 2, 7, 8, 15):
            direct = d16.mul(d16.mul(d16.inv(y), x), d16.mul(y, y))
            assert d16_loop.table[x, y] == direct


def test_known_cells(d16, d16_loop):
    s, r = d16.index_of("s"), d16.index_of("r")
    assert d16.names[d16_loop.table[s, r]] == "sr3"
    assert d16.names[d16_loop.table[r, s]] == "sr"


def test_abelian_source_gives_group_table():
    G = catalog_group("cyclic:5")
    L = build_gyro(G).loop
    assert np.array_equal(L.table, G.table)


def test_construction_metadata(d16):
    gc = build_gyro(d16)
    assert gc.source is d16
    assert gc.source_class == 3
    assert gc.loop.is_loop


def test_gyrations_fix_identity(d16_loop):
    for y in range(0, 16, 3):
        for z in range(0, 16, 5):
            assert gyration(d16_loop, y, z)[0] == 0


def test_gyration_is_commutator_conjugation(d16, d16_loop):
    # for this source the gyration f(y,z) is conjugation by [y, z^-1]
    for y in range(16):
        for z in range(16):
            g = gyration(d16_loop, y, z)
            c = group_commutator(d16, y, d16.inv(z))
            conj = np.array([d16.mul(d16.mul(c, x), d16.inv(c)) for x in range(16)])
            assert np.array_equal(g, conj), (y, z)


def test_gyration_table_dedup(d16_loop):
    gt = gyration_table(d16_loop)
    assert gt.ids.shape == (16, 16)
    assert len(gt.perms) == 2          # identity and conjugation by r2
    assert gt.ids[0, 0] == 0
    assert tuple(gt.perms[0]) == tuple(range(16))


def test_gyration_table_is_built_once_per_loop(d16):
    L = build_gyro(d16).loop
    gt = gyration_table(L)
    assert gyration_table(L) is gt
    assert gyration_table(build_gyro(d16).loop) is not gt
    with pytest.raises(ValueError):
        gt.ids[0, 0] = 1
    with pytest.raises(ValueError):
        gt.perms[0][0] = 1


def test_axioms_pass_on_catalog():
    for spec in ("dihedral:16", "quaternion:16", "semidihedral:16", "wreath33"):
        G = catalog_group(spec)
        L = build_gyro(G).loop
        rep = is_gyrogroup(L, source=G)
        assert rep.status == "pass", (spec, rep.witness)
        assert rep.details["pairing_group_product_reading"] is True


def test_axioms_fail_on_perturbed_table():
    G = catalog_group("cyclic:5")
    T = build_gyro(G).loop.table.copy()
    T[1, 3], T[2, 3] = T[2, 3], T[1, 3]
    M = loop_from_table(T, lenient=True)
    rep = is_gyrogroup(M)
    assert rep.status == "fail"
    assert rep.witness == (1, 2, 1, 1)
    assert rep.details["axiom"] == "automorphism"


def test_class_four_source_warns_and_fails_pairing():
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        gc = build_gyro(catalog_group("dihedral:32"))
    assert any("class 4" in str(w.message) for w in wlist)
    # the twisted table happens to remain a loop at this order ...
    assert gc.loop.is_loop
    # ... but the pairing axiom breaks, so it is not a gyrogroup
    rep = is_gyrogroup(gc.loop, source=gc.source)
    assert rep.status == "fail"
    assert rep.details["axiom"] == "pairing"
    assert rep.witness == (1, 16)


def _ref_gyration_table(L):
    """The column-wise kernel gyration_table replaced: a 2-D gather per y."""
    n = L.order
    T, rdiv = L.table, L.right_division
    ids = np.empty((n, n), dtype=np.int32)
    index = RowIndex(n, rdiv.dtype)
    for y in range(n):
        xyz = T[T[:, y], :]                       # [x, z] -> (x*y)*z
        gy = rdiv[xyz, T[y, :][None, :]]          # [x, z] -> gyr(y,z)(x)
        ids[y] = index.add(gy.T)                  # row z = images of gyr(y,z)
    return GyrationTable(ids, list(index.rows))


@pytest.mark.parametrize("spec", ["wreath33", "product:dihedral:16,cyclic:5",
                                  "heisenberg:5", "dihedral:32"])
def test_gyration_table_matches_column_kernel(spec, monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")          # dihedral:32 has class 4
        gc = build_gyro(catalog_group(spec))
    got, ref = gyration_table(gc.loop), _ref_gyration_table(gc.loop)
    assert np.array_equal(got.ids, ref.ids)
    assert np.array_equal(np.array(got.perms), np.array(ref.perms))
    report = is_gyrogroup(gc.loop, source=gc.source).to_dict()
    monkeypatch.setattr(gyro, "gyration_table", _ref_gyration_table)
    assert report == is_gyrogroup(gc.loop, source=gc.source).to_dict()
