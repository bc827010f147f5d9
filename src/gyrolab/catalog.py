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


def _semidirect(m: int, t: int, name: str) -> FiniteGroup:
    """C_(m/2) : C_2 with s r s^-1 = r^t: index e*(m/2) + k is s^e r^k, and
    s^e1 r^k1 * s^e2 r^k2 = s^(e1+e2) r^(t^e2 k1 + k2) since r^k s = s r^(t k)."""
    n = m // 2
    e, k = np.divmod(np.arange(m), n)
    twist = np.where(e == 1, t, 1)                      # t^e2 per column
    table = ((e[:, None] + e) % 2) * n + (k[:, None] * twist + k) % n
    names = ["e"] + [_power_name("r", k) for k in range(1, n)]
    names += ["s"] + ["s" + _power_name("r", k) for k in range(1, n)]
    return _group_unchecked(table, names, name=name)


def _quaternion(m: int) -> FiniteGroup:
    """Index j*(m/2) + i is a^i b^j; a^i1 b^j1 * a^i2 b^j2 =
    a^(i1 + (-1)^j1 i2 + [j1 j2] m/4) b^(j1+j2), using b^2 = a^(m/4)."""
    h = m // 2
    j, i = np.divmod(np.arange(m), h)
    a = (i[:, None] + (1 - 2 * j[:, None]) * i + (j[:, None] & j) * (m // 4)) % h
    table = ((j[:, None] + j) % 2) * h + a
    names = ["e"] + [_power_name("a", k) for k in range(1, h)]
    names += ["b"] + [_power_name("a", k) + "b" for k in range(1, h)]
    return _group_unchecked(table, names, name=f"quaternion:{m}")


# the matrix entries a_ij of each unitriangular family, in rank-digit order
_UPPER_ENTRIES = {
    "heisenberg": [(1, 2), (2, 3), (1, 3)],
    "unitriangular4": [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
}


def _unitriangular(p: int, entries: list[tuple[int, int]], name: str) -> FiniteGroup:
    """Upper unitriangular matrices over F_p, indexed by the mixed-radix rank
    of their entries a_ij in the order given; the product has entries
    c_ij = a_ij + b_ij + sum over i < l < j of a_il b_lj."""
    n = p ** len(entries)
    digits = np.array(np.unravel_index(np.arange(n), (p,) * len(entries))).astype(np.int32)
    a = dict(zip(entries, digits))
    table = np.zeros((n, n), dtype=np.int32)
    for i, j in entries:
        c = a[i, j][:, None] + a[i, j]
        for l in range(i + 1, j):
            c += a[i, l][:, None] * a[l, j]
        table *= p
        table += c % p
    names = ["(" + ",".join(map(str, d)) + ")" for d in digits.T.tolist()]
    names[0] = "e"
    return _group_unchecked(table, names, name=name)


def _wreath33() -> FiniteGroup:
    """C3 wr C3: index ((k*3 + v0)*3 + v1)*3 + v2 is (v; k), and
    (v; k) * (w; l) = (v + w shifted by k; k + l), (w shifted by k)_t = w_(t-k)."""
    digits = np.array(np.unravel_index(np.arange(81), (3,) * 4))
    k, v = digits[0], digits[1:].T                      # v[i] = (v0, v1, v2)
    shift = (np.arange(3) - k[:, None]) % 3             # [i, t] -> t - k_i
    prod = (v[:, None, :] + v[np.arange(81)[None, :, None], shift[:, None, :]]) % 3
    table = ((k[:, None] + k) % 3) * 27 + prod @ np.array([9, 3, 1])
    names = [f"({a},{b},{c};{kk})" for kk, a, b, c in digits.T.tolist()]
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
        return _semidirect(value, -1, f"dihedral:{value}")
    if family == "quaternion":
        if value < 8 or not _is_power_of_two(value):
            raise UnknownSpec(spec, "order must be a power of two >= 8")
        return _quaternion(value)
    if family == "semidihedral":
        if value < 16 or not _is_power_of_two(value):
            raise UnknownSpec(spec, "order must be a power of two >= 16")
        return _semidirect(value, value // 4 - 1, f"semidihedral:{value}")
    if family in _UPPER_ENTRIES:
        if not _is_prime(value):
            raise UnknownSpec(spec, "parameter must be prime")
        entries = _UPPER_ENTRIES[family]
        check_order_cap(value ** len(entries))
        return _unitriangular(value, entries, f"{family}:{value}")
    raise UnknownSpec(spec)


catalog_group.cache_clear = _build.cache_clear
