import numpy as np
import pytest

from gyrolab import (
    build_gyro,
    catalog_group,
    commutant,
    commutator_bracket_table,
    group_center,
    invariant_bundle,
    loop_associator,
    loop_center,
    loop_commutator,
    loop_nilpotency_class,
    loop_upper_central_series,
    nucleus,
)


def associator_plane(L, x):
    """Associators A(x, y, z) for one fixed x, as a (y, z) matrix, by one
    2-D gather: the reference loop_associator is checked against."""
    T = L.table
    lhs = T[T[x], :]                    # [y, z] -> (x*y)*z
    rhs = T[x, T]                       # [y, z] -> x*(y*z)
    return L.right_division[lhs, rhs]


# brute-forced nucleus/commutant data for the three order-16 class-3 groups;
# all share the same invariant skeleton
SIXTEEN_SKELETON = {
    "left": list(range(8)),
    "middle": [0, 2, 4, 6],
    "right": [0, 2, 4, 6],
    "full": [0, 2, 4, 6],
    "commutant": [0, 4],
    "center": [0, 4],
}


@pytest.mark.parametrize("spec", ["dihedral:16", "quaternion:16", "semidihedral:16"])
def test_sixteen_skeleton(spec):
    L = build_gyro(catalog_group(spec)).loop
    for kind in ("left", "middle", "right", "full"):
        assert sorted(nucleus(L, kind)) == SIXTEEN_SKELETON[kind], (spec, kind)
    assert sorted(commutant(L)) == SIXTEEN_SKELETON["commutant"]
    assert sorted(loop_center(L)) == SIXTEEN_SKELETON["center"]


def test_bundle_consistency(d16_loop):
    b = invariant_bundle(d16_loop)
    assert b.nucleus == b.left_nucleus & b.middle_nucleus & b.right_nucleus
    assert b.center == b.commutant & b.nucleus
    d = b.to_dict()
    assert d["left_nucleus"] == list(range(8))


def test_loop_commutator_against_division(d16_loop):
    L = d16_loop
    B = commutator_bracket_table(L)
    for x in range(16):
        for y in range(16):
            c = loop_commutator(L, x, y)
            assert B[x, y] == c
            # defining property: c * (y*x) == x*y
            assert L.table[c, L.table[y, x]] == L.table[x, y]


def test_loop_commutator_known_value(d16, d16_loop):
    s, r = d16.index_of("s"), d16.index_of("r")
    assert d16.names[loop_commutator(d16_loop, s, r)] == "r2"


def test_associator_defining_property(d16_loop):
    L = d16_loop
    for x in (1, 8, 13):
        plane = associator_plane(L, x)
        for y in range(16):
            for z in range(16):
                a = loop_associator(L, x, y, z)
                assert plane[y, z] == a
                lhs = L.table[L.table[x, y], z]
                rhs = L.table[x, L.table[y, z]]
                assert L.table[a, rhs] == lhs


def test_associators_live_in_group_center(d16, d16_loop):
    zg = group_center(d16)
    for x in range(16):
        assert set(np.unique(associator_plane(d16_loop, x))) <= set(zg)


def test_heisenberg3_loop_is_abelian_group(heis3_loop):
    L = heis3_loop
    assert np.array_equal(L.table, L.table.T)
    assert sorted(commutant(L)) == list(range(27))
    assert loop_nilpotency_class(L) == 1


def test_loop_classes():
    assert loop_nilpotency_class(build_gyro(catalog_group("dihedral:16")).loop) == 3
    assert loop_nilpotency_class(build_gyro(catalog_group("dihedral:8")).loop) == 2
    assert loop_nilpotency_class(build_gyro(catalog_group("wreath33")).loop) == 2
    assert loop_nilpotency_class(build_gyro(catalog_group("unitriangular4:2")).loop) == 3


def test_upper_central_series_d16(d16_loop):
    sizes = [len(term) for term in loop_upper_central_series(d16_loop)]
    assert sizes == [1, 2, 4, 16]


def test_wreath33_commutant_strictly_above_center():
    G = catalog_group("wreath33")
    L = build_gyro(G).loop
    C = commutant(L)
    ZG = group_center(G)
    assert len(ZG) == 3 and len(C) == 9
    assert ZG < C                      # strict: order divisible by 3
    assert loop_center(L) == C         # here the commutant is all central
