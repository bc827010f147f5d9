import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from gyrolab import build_gyro, catalog_group, subgroup_generated

settings.register_profile(
    "workbench",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("workbench")


@pytest.fixture(scope="session")
def d16():
    return catalog_group("dihedral:16")


@pytest.fixture(scope="session")
def d16_loop(d16):
    return build_gyro(d16).loop


@pytest.fixture(scope="session")
def heis3_loop():
    return build_gyro(catalog_group("heisenberg:3")).loop


def _switched_table(n, seed, switches=None):
    """A seeded loop table of even order n: the table of Z_2^a x Z_m
    (n = 2^a m) after random intercalate switches, 4n unless given.  A
    switch swaps the two symbols of a 2x2 Latin subsquare, so the table stays
    Latin; none touches row or column 0, so 0 stays the identity."""
    rng = np.random.default_rng(seed)
    a = (n & -n).bit_length() - 1
    m = n >> a
    u, v = np.arange(n) // m, np.arange(n) % m
    T = (u[:, None] ^ u[None, :]) * m + (v[:, None] + v[None, :]) % m
    col = np.argsort(T, axis=1)                 # col[r, s] = column of s in row r
    done = 0
    for r1, r2, c1 in rng.integers(1, n, (800 * n, 3)).tolist():
        c2 = col[r1, T[r2, c1]]
        if r1 == r2 or c2 in (0, c1) or T[r2, c2] != T[r1, c1]:
            continue
        p, q = T[r1, c1], T[r1, c2]
        T[r1, c1], T[r1, c2], T[r2, c1], T[r2, c2] = q, p, p, q
        col[r1, q], col[r1, p], col[r2, p], col[r2, q] = c1, c2, c1, c2
        done += 1
        if done == (4 * n if switches is None else switches):
            break
    return T


@pytest.fixture(scope="session")
def switched_table():
    """Factory (n, seed, switches=None) -> a seeded intercalate-switched loop table."""
    return _switched_table


def _relabelled_regular(spec, seed=0):
    """(degree, generators) of the left-regular action of a catalog group,
    points renamed at random; the generating set is greedy in index order."""
    G = catalog_group(spec)
    gens, span = [], frozenset({0})
    for g in range(1, G.order):
        if len(span) == G.order:
            break
        if g not in span:
            gens.append(g)
            span = subgroup_generated(G, gens)
    point = np.random.default_rng(seed).permutation(G.order)
    inv = np.argsort(point)
    return G.order, [point[G.table[g]][inv].tolist() for g in gens]


@pytest.fixture(scope="session")
def relabelled_regular():
    """Factory (spec, seed=0) -> (degree, generators) of a relabelled regular action."""
    return _relabelled_regular
