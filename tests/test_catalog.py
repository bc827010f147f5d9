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
from gyrolab.groups import _group_unchecked

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


# ---------------------------------------------------------------------------
# references: the per-cell builders that the whole-array ones replaced

def _power_name(base, k):
    return "" if k == 0 else base if k == 1 else f"{base}{k}"


def _ref_dihedral(m):
    n = m // 2
    table = np.empty((m, m), dtype=np.int32)
    for e1 in (0, 1):
        for k1 in range(n):
            for e2 in (0, 1):
                for k2 in range(n):
                    k = (k2 + (1 - 2 * e2) * k1) % n
                    table[e1 * n + k1, e2 * n + k2] = (e1 + e2) % 2 * n + k
    names = ["e"] + [_power_name("r", k) for k in range(1, n)]
    names += ["s"] + ["s" + _power_name("r", k) for k in range(1, n)]
    return _group_unchecked(table, names, name=f"dihedral:{m}")


def _ref_quaternion(m):
    h, q = m // 2, m // 4
    table = np.empty((m, m), dtype=np.int32)
    for j1 in (0, 1):
        for i1 in range(h):
            for j2 in (0, 1):
                for i2 in range(h):
                    i = (i1 + (1 - 2 * j1) * i2) % h
                    if j1 and j2:
                        i = (i + q) % h
                    table[j1 * h + i1, j2 * h + i2] = (j1 + j2) % 2 * h + i
    names = ["e"] + [_power_name("a", k) for k in range(1, h)]
    names += ["b"] + [_power_name("a", k) + "b" for k in range(1, h)]
    return _group_unchecked(table, names, name=f"quaternion:{m}")


def _ref_semidihedral(m):
    n = m // 2
    t = m // 4 - 1
    table = np.empty((m, m), dtype=np.int32)
    for e1 in (0, 1):
        for k1 in range(n):
            for e2 in (0, 1):
                for k2 in range(n):
                    if e2:
                        eps, k = (e1 + 1) % 2, (t * k1 + k2) % n
                    else:
                        eps, k = e1, (k1 + k2) % n
                    table[e1 * n + k1, e2 * n + k2] = eps * n + k
    names = ["e"] + [_power_name("r", k) for k in range(1, n)]
    names += ["s"] + ["s" + _power_name("r", k) for k in range(1, n)]
    return _group_unchecked(table, names, name=f"semidihedral:{m}")


def _ref_heisenberg(p):
    n = p ** 3

    def rank(a, b, c):
        return (a * p + b) * p + c

    table = np.empty((n, n), dtype=np.int32)
    names = [""] * n
    for a1 in range(p):
        for b1 in range(p):
            for c1 in range(p):
                i = rank(a1, b1, c1)
                names[i] = f"({a1},{b1},{c1})"
                for a2 in range(p):
                    for b2 in range(p):
                        for c2 in range(p):
                            table[i, rank(a2, b2, c2)] = rank(
                                (a1 + a2) % p, (b1 + b2) % p,
                                (c1 + c2 + a1 * b2) % p)
    names[0] = "e"
    return _group_unchecked(table, names, name=f"heisenberg:{p}")


def _ref_unitriangular4(p):
    n = p ** 6
    digits = np.array(np.unravel_index(np.arange(n), (p,) * 6)).T.astype(np.int32)
    a12, a13, a14, a23, a24, a34 = digits.T
    r, c = (lambda v: v[:, None]), (lambda v: v[None, :])
    c12 = (r(a12) + c(a12)) % p
    c23 = (r(a23) + c(a23)) % p
    c34 = (r(a34) + c(a34)) % p
    c13 = (r(a13) + c(a13) + r(a12) * c(a23)) % p
    c24 = (r(a24) + c(a24) + r(a23) * c(a34)) % p
    c14 = (r(a14) + c(a14) + r(a12) * c(a24) + r(a13) * c(a34)) % p
    table = ((((c12.astype(np.int64) * p + c13) * p + c14) * p + c23) * p + c24) * p + c34
    names = ["(" + ",".join(str(int(d)) for d in digits[i]) + ")" for i in range(n)]
    names[0] = "e"
    return _group_unchecked(table.astype(np.int32), names, name=f"unitriangular4:{p}")


def _ref_wreath33():
    def rank(k, v):
        return ((k * 3 + v[0]) * 3 + v[1]) * 3 + v[2]

    def unrank(i):
        return i // 27, (i // 9 % 3, i // 3 % 3, i % 3)

    table = np.empty((81, 81), dtype=np.int32)
    names = [""] * 81
    for i in range(81):
        k1, v1 = unrank(i)
        names[i] = f"({v1[0]},{v1[1]},{v1[2]};{k1})"
        for j in range(81):
            k2, v2 = unrank(j)
            shifted = tuple(v2[(t - k1) % 3] for t in range(3))
            prod = tuple((v1[t] + shifted[t]) % 3 for t in range(3))
            table[i, j] = rank((k1 + k2) % 3, prod)
    names[0] = "e"
    return _group_unchecked(table, names, name="wreath33")


REFERENCES = (
    [(f"dihedral:{m}", _ref_dihedral, m) for m in (*range(2, 65, 2), 202)]
    + [(f"quaternion:{m}", _ref_quaternion, m) for m in (8, 16, 32, 64, 128)]
    + [(f"semidihedral:{m}", _ref_semidihedral, m) for m in (16, 32, 64, 128)]
    + [(f"heisenberg:{p}", _ref_heisenberg, p) for p in (2, 3, 5, 7)]
    + [(f"unitriangular4:{p}", _ref_unitriangular4, p) for p in (2, 3)]
    + [("wreath33", lambda _: _ref_wreath33(), None)]
)


@pytest.mark.parametrize("spec,ref,param", REFERENCES, ids=[r[0] for r in REFERENCES])
def test_builders_match_the_per_cell_references(spec, ref, param):
    G, R = catalog_group(spec), ref(param)
    assert G.table.dtype == R.table.dtype
    assert np.array_equal(G.table, R.table)
    assert G.names == R.names
    assert np.array_equal(G.inverse, R.inverse)
    assert G.name == R.name
