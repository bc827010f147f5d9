import numpy as np
import pytest

from gyrolab import (
    OrderCapExceeded,
    UnknownSpec,
    catalog_group,
    group_center,
    group_exponent,
    nilpotency_class,
)

ORDERS = {
    "trivial": 1,
    "cyclic:7": 7,
    "dihedral:8": 8,
    "dihedral:16": 16,
    "quaternion:8": 8,
    "quaternion:16": 16,
    "semidihedral:16": 16,
    "heisenberg:2": 8,
    "heisenberg:3": 27,
    "heisenberg:5": 125,
    "wreath33": 81,
    "unitriangular4:2": 64,
    "unitriangular4:3": 729,
    "product:cyclic:2,cyclic:3": 6,
    "product:cyclic:2,cyclic:2,cyclic:2": 8,
}


@pytest.mark.parametrize("spec,order", sorted(ORDERS.items()))
def test_orders(spec, order):
    G = catalog_group(spec)
    assert G.order == order
    assert G.names[0] == "e"
    assert G.mul(0, 0) == 0


def test_cyclic_is_addition():
    G = catalog_group("cyclic:6")
    expected = np.add.outer(np.arange(6), np.arange(6)) % 6
    assert np.array_equal(G.table, expected)


def test_dihedral_relations():
    G = catalog_group("dihedral:16")
    r, s = G.index_of("r"), G.index_of("s")
    assert G.element_order(r) == 8
    assert G.element_order(s) == 2
    # s r s^-1 = r^-1
    assert G.mul(G.mul(s, r), G.inv(s)) == G.inv(r)


def test_quaternion_relations():
    G = catalog_group("quaternion:16")
    a, b = G.index_of("a"), G.index_of("b")
    assert G.element_order(a) == 8
    assert G.mul(b, b) == G.power(a, 4)           # b^2 = a^(m/4)
    assert G.mul(G.mul(b, a), G.inv(b)) == G.inv(a)
    # generalized quaternion groups have a unique involution
    assert sum(G.element_order(x) == 2 for x in range(G.order)) == 1


def test_semidihedral_relations():
    G = catalog_group("semidihedral:16")
    r, s = G.index_of("r"), G.index_of("s")
    assert G.element_order(r) == 8 and G.element_order(s) == 2
    assert G.mul(G.mul(s, r), G.inv(s)) == G.power(r, 3)   # twist 16/4 - 1


def test_heisenberg_class_two():
    for p in (2, 3, 5):
        G = catalog_group(f"heisenberg:{p}")
        assert nilpotency_class(G) == 2
        assert len(group_center(G)) == p
    assert group_exponent(catalog_group("heisenberg:3")) == 3


def test_wreath33_shape():
    G = catalog_group("wreath33")
    assert nilpotency_class(G) == 3
    assert group_exponent(G) == 9
    assert len(group_center(G)) == 3


def test_unitriangular_shape():
    G2 = catalog_group("unitriangular4:2")
    assert nilpotency_class(G2) == 3 and group_exponent(G2) == 4
    G3 = catalog_group("unitriangular4:3")
    assert nilpotency_class(G3) == 3 and group_exponent(G3) == 9


def test_product_matches_componentwise():
    P = catalog_group("product:cyclic:2,cyclic:3")
    assert P.is_abelian and group_exponent(P) == 6   # iso to cyclic:6


def test_catalog_caching():
    assert catalog_group("dihedral:16") is catalog_group("dihedral:16")


@pytest.mark.parametrize("bad", [
    "cyclic:0",
    "cyclic:-3",
    "dihedral:7",        # odd order
    "quaternion:12",     # not a power of two
    "quaternion:4",      # too small
    "semidihedral:8",    # too small
    "heisenberg:4",      # not prime
    "unitriangular4:6",  # not prime
    "wreath33:2",        # takes no parameter
    "nonsense:5",
    "cyclic",
    "product:",
    "product:cyclic:2",  # needs >= 2 factors
])
def test_bad_specs(bad):
    with pytest.raises(UnknownSpec):
        catalog_group(bad)


def test_catalog_order_cap(monkeypatch):
    with pytest.raises(OrderCapExceeded, match="^order 100000 exceeds cap 10000$"):
        catalog_group("cyclic:100000")
    # the product and heisenberg guards name the constructed order
    monkeypatch.setenv("GYROLAB_ORDER_CAP", "100")
    with pytest.raises(OrderCapExceeded, match="^order 128 exceeds cap 100$"):
        catalog_group("product:dihedral:16,dihedral:8")
    with pytest.raises(OrderCapExceeded, match="^order 343 exceeds cap 100$"):
        catalog_group("heisenberg:7")


def test_catalog_order_cap_applies_to_cached_groups(monkeypatch):
    G = catalog_group("heisenberg:5")
    monkeypatch.setenv("GYROLAB_ORDER_CAP", "100")
    with pytest.raises(OrderCapExceeded, match="^order 125 exceeds cap 100$"):
        catalog_group("heisenberg:5")
    monkeypatch.delenv("GYROLAB_ORDER_CAP")
    assert catalog_group("heisenberg:5") is G
    catalog_group.cache_clear()
    assert catalog_group("heisenberg:5") is not G
