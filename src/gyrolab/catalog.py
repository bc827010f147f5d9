"""Catalog of named finite groups addressed by spec strings.

Spec grammar:
  trivial                  the one-element group
  cyclic:n                 C_n, elements g^k, table (i+j) mod n
  dihedral:m               order m = 2n; r of order n, s r s^-1 = r^-1
  quaternion:m             generalized quaternion, m = 2^k >= 8;
                           a of order m/2, b^2 = a^(m/4), b a b^-1 = a^-1
  semidihedral:m           m = 2^k >= 16; r of order m/2, s^2 = e,
                           s r s^-1 = r^(m/4 - 1)
  heisenberg:p             upper unitriangular 3x3 matrices over F_p
                           (p prime), order p^3, class 2 for p >= 2
  unitriangular4:p         upper unitriangular 4x4 matrices over F_p,
                           order p^6, class 3
  wreath33                 C3 wr C3 = (C3 x C3 x C3) : C3, order 81, class 3
  product:specA,specB,...  direct product (left fold), n-ary

Element naming: index 0 is always "e"; rotation/reflection families use
r/s (or a/b) power names; matrix families are named by their parameter
tuples.  Indexing is the mixed-radix rank of the parameter tuple, which puts
the identity at index 0 without relabeling.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import UnknownSpec
from .groups import FiniteGroup, _group_unchecked, check_order_cap, direct_product

CATALOG_HELP: list[tuple[str, str]] = [
    ("trivial", "one-element group"),
    ("cyclic:n", "cyclic group of order n"),
    ("dihedral:m", "dihedral group of order m (m even)"),
    ("quaternion:m", "generalized quaternion group of order m = 2^k >= 8"),
    ("semidihedral:m", "semidihedral group of order m = 2^k >= 16"),
    ("heisenberg:p", "unitriangular 3x3 matrices over F_p (order p^3)"),
    ("unitriangular4:p", "unitriangular 4x4 matrices over F_p (order p^6)"),
    ("wreath33", "wreath product C3 wr C3 (order 81)"),
    ("product:a,b,...", "direct product of catalog specs"),
]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


def _power_name(base: str, k: int) -> str:
    if k == 0:
        return ""
    if k == 1:
        return base
    return f"{base}{k}"


def _cyclic(n: int) -> FiniteGroup:
    table = np.add.outer(np.arange(n), np.arange(n)) % n
    names = ["e"] + [_power_name("g", k) for k in range(1, n)]
    return _group_unchecked(table.astype(np.int32), names, name=f"cyclic:{n}")


def _dihedral(m: int) -> FiniteGroup:
    n = m // 2
    table = np.empty((m, m), dtype=np.int32)
    for e1 in (0, 1):
        for k1 in range(n):
            i = e1 * n + k1
            for e2 in (0, 1):
                for k2 in range(n):
                    j = e2 * n + k2
                    # r^k s = s r^-k, so s^e1 r^k1 * s^e2 r^k2 folds k1 by the
                    # sign of the second reflection part
                    eps = (e1 + e2) % 2
                    k = (k2 + (1 - 2 * e2) * k1) % n
                    table[i, j] = eps * n + k
    names = ["e"] + [_power_name("r", k) for k in range(1, n)]
    names += ["s"] + ["s" + _power_name("r", k) for k in range(1, n)]
    return _group_unchecked(table, names, name=f"dihedral:{m}")


def _quaternion(m: int) -> FiniteGroup:
    h, q = m // 2, m // 4
    table = np.empty((m, m), dtype=np.int32)
    for j1 in (0, 1):
        for i1 in range(h):
            a = j1 * h + i1
            for j2 in (0, 1):
                for i2 in range(h):
                    b = j2 * h + i2
                    i = (i1 + (1 - 2 * j1) * i2) % h
                    if j1 and j2:
                        i = (i + q) % h     # b^2 = a^(m/4)
                    j = (j1 + j2) % 2
                    table[a, b] = j * h + i
    names = ["e"] + [_power_name("a", k) for k in range(1, h)]
    names += ["b"] + [_power_name("a", k) + "b" for k in range(1, h)]
    return _group_unchecked(table, names, name=f"quaternion:{m}")


def _semidihedral(m: int) -> FiniteGroup:
    n = m // 2
    t = m // 4 - 1                          # s r s^-1 = r^t
    table = np.empty((m, m), dtype=np.int32)
    for e1 in (0, 1):
        for k1 in range(n):
            i = e1 * n + k1
            for e2 in (0, 1):
                for k2 in range(n):
                    j = e2 * n + k2
                    if e2:
                        eps, k = (e1 + 1) % 2, (t * k1 + k2) % n
                    else:
                        eps, k = e1, (k1 + k2) % n
                    table[i, j] = eps * n + k
    names = ["e"] + [_power_name("r", k) for k in range(1, n)]
    names += ["s"] + ["s" + _power_name("r", k) for k in range(1, n)]
    return _group_unchecked(table, names, name=f"semidihedral:{m}")


def _heisenberg(p: int) -> FiniteGroup:
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


def _unitriangular4(p: int) -> FiniteGroup:
    n = p ** 6
    check_order_cap(n)
    # parameters (a12, a13, a14, a23, a24, a34), mixed-radix rank base p
    digits = np.array(np.unravel_index(np.arange(n), (p,) * 6)).T.astype(np.int32)
    a12, a13, a14 = digits[:, 0], digits[:, 1], digits[:, 2]
    a23, a24, a34 = digits[:, 3], digits[:, 4], digits[:, 5]

    def col(v):
        return v[None, :]

    def row(v):
        return v[:, None]

    c12 = (row(a12) + col(a12)) % p
    c23 = (row(a23) + col(a23)) % p
    c34 = (row(a34) + col(a34)) % p
    c13 = (row(a13) + col(a13) + row(a12) * col(a23)) % p
    c24 = (row(a24) + col(a24) + row(a23) * col(a34)) % p
    c14 = (row(a14) + col(a14) + row(a12) * col(a24) + row(a13) * col(a34)) % p
    table = ((((c12.astype(np.int64) * p + c13) * p + c14) * p + c23) * p + c24) * p + c34
    names = ["(" + ",".join(str(int(d)) for d in digits[i]) + ")" for i in range(n)]
    names[0] = "e"
    return _group_unchecked(table.astype(np.int32), names, name=f"unitriangular4:{p}")


def _wreath33() -> FiniteGroup:
    n = 81

    def rank(k, v):
        return ((k * 3 + v[0]) * 3 + v[1]) * 3 + v[2]

    def unrank(i):
        v2 = i % 3
        i //= 3
        v1 = i % 3
        i //= 3
        v0 = i % 3
        return i // 3, (v0, v1, v2)

    table = np.empty((n, n), dtype=np.int32)
    names = [""] * n
    for i in range(n):
        k1, v1 = unrank(i)
        names[i] = f"({v1[0]},{v1[1]},{v1[2]};{k1})"
        for j in range(n):
            k2, v2 = unrank(j)
            shifted = tuple(v2[(t - k1) % 3] for t in range(3))
            prod = tuple((v1[t] + shifted[t]) % 3 for t in range(3))
            table[i, j] = rank((k1 + k2) % 3, prod)
    names[0] = "e"
    return _group_unchecked(table, names, name="wreath33")


def _int_param(spec: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise UnknownSpec(spec, f"parameter {raw!r} is not an integer") from None


def catalog_group(spec: str) -> FiniteGroup:
    """The group named by a catalog spec string.  Builds are cached; the order
    cap is checked on every call, so it also holds for a cached group."""
    G = _build(spec.strip())
    check_order_cap(G.order)
    return G


@lru_cache(maxsize=None)
def _build(spec: str) -> FiniteGroup:
    if spec == "trivial":
        return _group_unchecked(np.zeros((1, 1), dtype=np.int32), ["e"], name="trivial")
    if spec == "wreath33":
        return _wreath33()
    if spec.startswith("product:"):
        parts = [p for p in spec[len("product:"):].split(",") if p]
        if len(parts) < 2:
            raise UnknownSpec(spec, "product needs at least two factors")
        G = catalog_group(parts[0])
        for part in parts[1:]:
            G = direct_product(G, catalog_group(part))
        G.name = spec
        return G
    if ":" not in spec:
        raise UnknownSpec(spec)
    family, _, raw = spec.partition(":")
    value = _int_param(spec, raw)
    check_order_cap(value)
    if family == "cyclic":
        if value < 1:
            raise UnknownSpec(spec, "order must be >= 1")
        return _cyclic(value)
    if family == "dihedral":
        if value < 2 or value % 2:
            raise UnknownSpec(spec, "order must be even and >= 2")
        return _dihedral(value)
    if family == "quaternion":
        if value < 8 or not _is_power_of_two(value):
            raise UnknownSpec(spec, "order must be a power of two >= 8")
        return _quaternion(value)
    if family == "semidihedral":
        if value < 16 or not _is_power_of_two(value):
            raise UnknownSpec(spec, "order must be a power of two >= 16")
        return _semidihedral(value)
    if family == "heisenberg":
        if not _is_prime(value):
            raise UnknownSpec(spec, "parameter must be prime")
        check_order_cap(value ** 3)
        return _heisenberg(value)
    if family == "unitriangular4":
        if not _is_prime(value):
            raise UnknownSpec(spec, "parameter must be prime")
        return _unitriangular4(value)
    raise UnknownSpec(spec)


catalog_group.cache_clear = _build.cache_clear
