"""Randomized structural properties, checked across the catalog."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gyrolab import (
    build_gyro,
    catalog_group,
    divide,
    group_center,
    group_commutator,
    gyration,
    mlt_inn_orders,
)
from gyrolab.invariants import loop_associator, loop_commutator

# groups of nilpotency class <= 3: the twist always yields a loop here
LOOP_SPECS = [
    "cyclic:6",
    "dihedral:8",
    "dihedral:16",
    "quaternion:16",
    "semidihedral:16",
    "heisenberg:3",
    "wreath33",
]
# includes non-nilpotent (dihedral:6, dihedral:12) and class-4 (dihedral:32)
# groups: the commutator expansion identities hold in any group whatsoever
ANY_SPECS = LOOP_SPECS + ["dihedral:6", "dihedral:12", "dihedral:32"]


def _loop(spec):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_gyro(catalog_group(spec)).loop


def _draw_elements(data, order, count):
    return [data.draw(st.integers(min_value=0, max_value=order - 1))
            for _ in range(count)]


@given(spec=st.sampled_from(ANY_SPECS), data=st.data())
def test_group_product_associates(spec, data):
    G = catalog_group(spec)
    x, y, z = _draw_elements(data, G.order, 3)
    assert G.mul(G.mul(x, y), z) == G.mul(x, G.mul(y, z))


@given(spec=st.sampled_from(ANY_SPECS), data=st.data())
def test_commutator_expansion_left_any_group(spec, data):
    # [xy, z] == [x, [y, z]] [y, z] [x, z] without any nilpotency assumption
    G = catalog_group(spec)
    x, y, z = _draw_elements(data, G.order, 3)
    c = lambda a, b: group_commutator(G, a, b)
    lhs = c(G.mul(x, y), z)
    rhs = G.mul(G.mul(c(x, c(y, z)), c(y, z)), c(x, z))
    assert lhs == rhs


@given(spec=st.sampled_from(ANY_SPECS), data=st.data())
def test_commutator_expansion_right_any_group(spec, data):
    # [x, yz] == [x, y] [y, [x, z]] [x, z] without any nilpotency assumption
    G = catalog_group(spec)
    x, y, z = _draw_elements(data, G.order, 3)
    c = lambda a, b: group_commutator(G, a, b)
    lhs = c(x, G.mul(y, z))
    rhs = G.mul(G.mul(c(x, y), c(y, c(x, z))), c(x, z))
    assert lhs == rhs


@given(spec=st.sampled_from(LOOP_SPECS), data=st.data())
def test_twist_matches_conjugation_formula(spec, data):
    G = catalog_group(spec)
    L = _loop(spec)
    x, y = _draw_elements(data, G.order, 2)
    assert L.table[x, y] == G.mul(G.inv(y), G.mul(x, G.mul(y, y)))


@given(spec=st.sampled_from(LOOP_SPECS), data=st.data())
def test_division_roundtrips(spec, data):
    L = _loop(spec)
    a, b = _draw_elements(data, L.order, 2)
    x = divide(L, "right", a, b)
    assert L.table[x, a] == b
    y = divide(L, "left", a, b)
    assert L.table[a, y] == b
    assert divide(L, "right", a, int(L.table[x, a])) == x
    assert divide(L, "left", a, int(L.table[a, y])) == y


@given(spec=st.sampled_from(LOOP_SPECS), data=st.data())
def test_loop_inverse_is_group_inverse(spec, data):
    # y^-1 x y^2 with y = x^-1 collapses to the identity on both sides
    G = catalog_group(spec)
    L = _loop(spec)
    (x,) = _draw_elements(data, G.order, 1)
    assert L.table[x, G.inv(x)] == 0
    assert L.table[G.inv(x), x] == 0
    assert divide(L, "right", x, 0) == G.inv(x)
    assert divide(L, "left", x, 0) == G.inv(x)


@given(spec=st.sampled_from(LOOP_SPECS), data=st.data())
def test_gyration_is_permutation_fixing_identity(spec, data):
    L = _loop(spec)
    y, z = _draw_elements(data, L.order, 2)
    f = gyration(L, y, z)
    assert f[0] == 0
    assert sorted(f.tolist()) == list(range(L.order))


@given(spec=st.sampled_from(LOOP_SPECS), data=st.data())
def test_gyration_defining_equation(spec, data):
    # (x*y)*z == gyr[y,z](x) * (y*z) cell by cell
    L = _loop(spec)
    T = L.table
    x, y, z = _draw_elements(data, L.order, 3)
    f = gyration(L, y, z)
    assert T[T[x, y], z] == T[f[x], T[y, z]]


# twisted loops of groups with and without a nontrivial center, nilpotent or
# not (dihedral:10, dihedral:20) and of class 4 (dihedral:32)
CENTER_SPECS = ["dihedral:10", "dihedral:20", "dihedral:32", "quaternion:16",
                "heisenberg:3", "wreath33"]


@given(spec=st.sampled_from(CENTER_SPECS), data=st.data())
def test_central_factors_change_no_inner_mapping(spec, data):
    # for w in Z(G): gyr(yw,z) = gyr(y,zw) = gyr(y,z) and L(xw,y) = L(x,yw)
    # = L(x,y), with L(x,y): t -> (y*x)\(y*(x*t)); xw is the group product
    G, L = catalog_group(spec), _loop(spec)
    T = L.table
    w = data.draw(st.sampled_from(sorted(group_center(G))))
    x, y, z, t = _draw_elements(data, G.order, 4)
    gyr = gyration(L, y, z)
    assert np.array_equal(gyration(L, G.mul(y, w), z), gyr)
    assert np.array_equal(gyration(L, y, G.mul(z, w)), gyr)

    def image(a, b):                              # L(a,b)(t)
        return divide(L, "left", int(T[b, a]), int(T[b, T[a, t]]))

    assert image(G.mul(x, w), y) == image(x, G.mul(y, w)) == image(x, y)


@given(spec=st.sampled_from(LOOP_SPECS), data=st.data())
def test_loop_commutator_defining_equation(spec, data):
    L = _loop(spec)
    T = L.table
    x, y = _draw_elements(data, L.order, 2)
    c = loop_commutator(L, x, y)
    assert T[c, T[y, x]] == T[x, y]


@given(spec=st.sampled_from(LOOP_SPECS), data=st.data())
def test_loop_associator_defining_equation(spec, data):
    L = _loop(spec)
    T = L.table
    x, y, z = _draw_elements(data, L.order, 3)
    w = loop_associator(L, x, y, z)
    assert T[w, T[x, T[y, z]]] == T[T[x, y], z]


@pytest.mark.parametrize("spec", [
    "cyclic:5", "cyclic:8", "dihedral:8", "dihedral:16",
    "quaternion:16", "heisenberg:2",
])
def test_multiplication_group_order_factors(spec):
    # orbit-stabilizer: |Mlt| = |L| * |Inn| since Mlt is transitive and Inn
    # is the stabilizer of the identity
    L = _loop(spec)
    mlt, inn = mlt_inn_orders(L)
    assert mlt == L.order * inn
