import dataclasses
import json
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from gyrolab import (
    GyrolabError,
    build_gyro,
    catalog_group,
    commutant,
    loop_from_table,
    nilpotency_class,
    subgroup_generated,
)
from gyrolab.checks import _cube_criterion
from gyrolab.groups import _product_table

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


def _loop_direct_product(A, B, name=""):
    """The componentwise product of two loops, pair (a, b) at index
    a*|B| + b, built as groups.direct_product builds a group's: the table of
    groups._product_table, which checks the order cap first."""
    table = _product_table(A.table, B.table)
    names = [f"{na}|{nb}" for na in A.names for nb in B.names]
    names[0] = "e"
    return loop_from_table(table, names=names, lenient=True, name=name or f"{A.name}x{B.name}")


@pytest.fixture(scope="session")
def loop_direct_product():
    """Factory (A, B, name="") -> the componentwise product loop of A and B."""
    return _loop_direct_product


class WrongClass(GyrolabError):
    """A group of another nilpotency class than a reference needs."""

    def __init__(self, needed: str, actual):
        self.needed = needed
        self.actual = actual
        super().__init__(f"group has nilpotency class {actual}, needed {needed}")


def _class2_criterion(G):
    """Whether [x,y]^3 lies in the commutant of the twisted loop for all x,
    y, with the least failing (x, y) when not: the suite's cube criterion
    with the class gate and the loop build of its own.  Only meaningful for
    class-3 groups (raises WrongClass otherwise); for those it is
    equivalent to the twisted loop having nilpotency class <= 2."""
    cls = nilpotency_class(G)
    if cls != 3:
        raise WrongClass("exactly 3", cls)
    return _cube_criterion(G, commutant(build_gyro(G).loop))


@pytest.fixture(scope="session")
def class2_criterion():
    """G -> (criterion holds, least failing pair or None), for class-3 G."""
    return _class2_criterion


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


def _seeded_transversal(T, seed):
    """T with each representative drawn by random.Random(seed).choice over
    its coset, cosets in quotient order; the identity coset keeps 0."""
    rng = random.Random(seed)
    reps = np.array([rng.choice(np.flatnonzero(T.projection == q).tolist())
                     for q in range(T.quotient.order)], dtype=T.reps.dtype)
    reps[0] = 0
    return dataclasses.replace(T, reps=reps)


@pytest.fixture(scope="session")
def seeded_transversal():
    """Factory (T, seed) -> T with seeded random coset representatives."""
    return _seeded_transversal


def _ref_parse_group_file(path):
    """The group file reader before tables were decoded from bytes: the
    whole text through json.loads and the table through np.asarray, with the
    same checks and messages; the reference of fileio.parse_group_file."""
    from pathlib import Path

    from gyrolab.errors import ParseError
    from gyrolab.fileio import _check_name, _read_group_bytes
    from gyrolab.groups import (_first_repeat, check_order_cap, group_from_permutations,
                                group_from_table, order_cap)

    p = Path(path)
    try:
        text = _read_group_bytes(p, order_cap()).decode()
    except UnicodeDecodeError as exc:
        raise ParseError(str(path), f"not UTF-8 text: {exc.reason}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(path),
                         f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:
        raise ParseError(str(path), f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(str(path), "top level must be a JSON object")
    has_table = "table" in doc
    has_gens = "generators" in doc
    if has_table == has_gens:
        raise ParseError(str(path),
                         "exactly one of 'table' and 'generators' must be present")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ParseError(str(path), "field 'name' must be a string")
    _check_name(path, name, "field 'name'")
    if has_table:
        order = doc.get("order")
        if type(order) is not int or order < 1:
            raise ParseError(str(path), "field 'order' must be a positive integer")
        check_order_cap(order, "declared order")
        try:
            arr = np.asarray(doc["table"])
        except (TypeError, ValueError) as exc:
            raise ParseError(str(path),
                             f"field 'table' is not a rectangular integer array: {exc}") from exc
        if arr.ndim != 2 or arr.shape != (order, order):
            raise ParseError(str(path),
                             f"field 'table' has shape {tuple(arr.shape)}, "
                             f"expected ({order}, {order})")
        i32 = np.iinfo(np.int32)
        if (arr.dtype.kind not in "iu" or arr.min() < i32.min or arr.max() > i32.max
                or (("true" in text or "false" in text)
                    and any(type(v) is bool for row in doc["table"] for v in row))):
            raise ParseError(str(path), "field 'table' must hold integers in the int32 range")
        names = doc.get("names")
        if names is not None:
            if (not isinstance(names, list) or len(names) != order
                    or not all(isinstance(s, str) for s in names)):
                raise ParseError(str(path),
                                 f"field 'names' must be a list of {order} strings")
            for i, s in enumerate(names):
                _check_name(path, s, f"names[{i}]")
            j = _first_repeat(names)
            if j is not None:
                raise ParseError(str(path), f"names[{j}] repeats an earlier name")
        return group_from_table(arr, names=names, name=name or p.stem)
    degree = doc.get("degree")
    if type(degree) is not int or degree < 1:
        raise ParseError(str(path), "field 'degree' must be a positive integer")
    check_order_cap(degree, "declared degree")
    gens = doc["generators"]
    if not isinstance(gens, list) or not gens:
        raise ParseError(str(path), "field 'generators' must be a non-empty list")
    for i, g in enumerate(gens):
        if (not isinstance(g, list) or len(g) != degree
                or not all(type(v) is int for v in g)):
            raise ParseError(str(path),
                             f"generator {i} must be a list of {degree} integers")
    return group_from_permutations(degree, gens, name=name or p.stem)


@pytest.fixture(scope="session")
def ref_parse_group_file():
    """path -> the group, or the exception, of the json.loads reader."""
    return _ref_parse_group_file


def _ref_matrix_csv(matrix):
    """fileio.matrix_csv by str.join over the decimal strings of the values."""
    m = np.asarray(matrix)
    lo, hi = (int(m.min()), int(m.max())) if m.size else (0, -1)
    words = [str(v) for v in range(lo, hi + 1)]
    rows = (m - lo if lo else m).tolist()
    return "\n".join(",".join(map(words.__getitem__, row)) for row in rows) + "\n"


@pytest.fixture(scope="session")
def ref_matrix_csv():
    """matrix -> its CSV text, built by str.join."""
    return _ref_matrix_csv


def _ref_relabel(table, names, e):
    """groups._relabel by np.ix_: element e moved to index 0, the others in
    order, the values renamed through an elem_dtype(n) map."""
    from gyrolab.groups import elem_dtype

    n = table.shape[0]
    old_of_new = np.array([e] + [i for i in range(n) if i != e])
    new_of_old = np.empty(n, dtype=elem_dtype(n))
    new_of_old[old_of_new] = np.arange(n)
    return new_of_old[table[np.ix_(old_of_new, old_of_new)]], [names[i] for i in old_of_new]


@pytest.fixture(scope="session")
def ref_relabel():
    """(table, names, e) -> the relabelled table and names, built by np.ix_."""
    return _ref_relabel


def _ref_commutator_table(G):
    """FiniteGroup.commutator_table by fancy indexing with broadcast inverses."""
    n = G.order
    inv_rows = np.broadcast_to(G.inverse[:, None], (n, n))
    inv_cols = np.broadcast_to(G.inverse[None, :], (n, n))
    return G.table[G.table[G.table, inv_rows], inv_cols]


@pytest.fixture(scope="session")
def ref_commutator_table():
    """G -> its [a, b] = a b a^-1 b^-1 table, built by fancy indexing."""
    return _ref_commutator_table


def _ref_twisted_table(G):
    """The table y^-1 x y^2 of gyro.build_gyro by fancy indexing."""
    n, ar = G.order, np.arange(G.order)
    xy2 = G.table[:, G.table[ar, ar]]
    return G.table[np.broadcast_to(G.inverse[None, :], (n, n)), xy2]


@pytest.fixture(scope="session")
def ref_twisted_table():
    """G -> the twisted table of build_gyro, built by fancy indexing."""
    return _ref_twisted_table


def _ref_cocycle_violation(f):
    """The first (x, y, z) failing f(x,y) f(xy,z) == f(y,z) f(x,yz), by one
    pair of n x n gathers per x."""
    mul, Q, v = f.group.table, f.quotient, f.values
    q = Q.order
    for x in range(q):
        lhs = mul[np.broadcast_to(v[x][:, None], (q, q)), v[Q.table[x], :]]
        rhs = mul[v, v[x, Q.table]]
        if not np.array_equal(lhs, rhs):
            flat = int(np.argmax(lhs != rhs))
            return (x, flat // q, flat % q)
    return None


@pytest.fixture(scope="session")
def ref_cocycle_violation():
    """A factor set -> its least cocycle failure, scanned per x."""
    return _ref_cocycle_violation
