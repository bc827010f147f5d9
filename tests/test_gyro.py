import json
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
from gyrolab import gyro, mappings
from gyrolab.fileio import parse_group_file
from gyrolab.groups import _group_unchecked, elem_dtype, group_center
from gyrolab.gyro import GyrationTable
from gyrolab.loops import loop_from_table
from gyrolab.mappings import inner_generators
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


def _ref_l_family(T, ldiv):
    """The per-x L-slab loop inner_generators ran before the shared kernel:
    ids[x, y] of L(x,y): t -> (y*x)\\(y*(x*t)), in first-occurrence order."""
    n = len(T)
    ids = np.empty((n, n), dtype=np.int32)
    index = RowIndex(n, ldiv.dtype)
    flat = np.ascontiguousarray(ldiv).ravel()
    for x in range(n):
        ids[x] = index.add(flat.take(T[:, x][:, None] * n + T[:, T[x]]))   # [y, t]
    return ids, index.rows


def _l_family(T, ldiv):
    """The kernel on the L family over all pairs: A = T, A^-1 = ldiv, P = T.T."""
    index = RowIndex(len(T), np.int32)
    return gyro._map_family(T, ldiv, T.T, index), index.rows


def _ref_inner_generators(L, r_ids, r_rows):
    """inner_generators rebuilt one row at a time from references: R(x,y)
    from the given gyration ids and rows, L(x,y) from _ref_l_family and T(x)
    from its definition, each labelled where its row first occurs."""
    n, T, ldiv = L.order, L.table, L.left_division
    index, labels = RowIndex(n, T.dtype), []

    def add(row, label):
        if index.add(row[None])[0] == len(labels):       # a new row
            labels.append(label)

    l_ids, l_rows = _ref_l_family(T, ldiv)
    for kind, ids, rows in (("R", r_ids, r_rows), ("L", l_ids, l_rows)):
        _, first = np.unique(ids, return_index=True)
        for i, row in zip(first.tolist(), rows):
            add(row, f"{kind}({i // n},{i % n})")
    for x in range(n):
        add(ldiv[x, T[:, x]], f"T({x})")                  # t -> x\(t*x)
    return index.rows, tuple(labels)


def _assert_families_match(L):
    got, ref = gyration_table(L), _ref_gyration_table(L)
    assert got.ids.dtype == np.int32 and got.perms[0].dtype == L.table.dtype
    assert np.array_equal(got.ids, ref.ids)
    assert np.array_equal(np.array(got.perms), np.array(ref.perms))
    if L.left_division is not None:
        ids, rows = _l_family(L.table, L.left_division)
        ref_ids, ref_rows = _ref_l_family(L.table, L.left_division)
        assert np.array_equal(ids, ref_ids)
        assert np.array_equal(rows, ref_rows)


@pytest.mark.parametrize("n,seed", [(6, 0), (8, 1), (12, 2), (16, 3), (24, 4), (32, 5), (64, 6)])
def test_families_match_references_on_switched_loops(n, seed, switched_table):
    _assert_families_match(loop_from_table(switched_table(n, seed)))


def _column_swapped(n, seed, columns):
    """A right loop of order n whose rows are not permutations: the table of
    Z_n with two cells off row 0 swapped in each of a few random columns."""
    rng = np.random.default_rng(seed)
    T = np.add.outer(np.arange(n), np.arange(n)) % n
    for a in rng.choice(np.arange(1, n), columns, replace=False):
        r1, r2 = rng.choice(np.arange(1, n), 2, replace=False)
        T[[r1, r2], a] = T[[r2, r1], a]
    return T


@pytest.mark.parametrize("n,seed,columns", [(12, 0, 3), (40, 1, 2), (64, 2, 1)])
def test_families_match_references_on_lenient_right_loops(n, seed, columns):
    L = loop_from_table(_column_swapped(n, seed, columns), lenient=True)
    assert L.is_right_loop and not L.is_loop
    _assert_families_match(L)
    # the L family of the opposite table is the gyration family
    op, op_div = L.table.T, L.right_division.T
    ref = _ref_gyration_table(L)
    for ids, rows in (_ref_l_family(op, op_div), _l_family(op, op_div)):
        assert np.array_equal(ids, ref.ids)
        assert np.array_equal(rows, np.array(ref.perms))


def test_families_match_references_past_uint16_offsets():
    L = build_gyro(catalog_group("product:wreath33,cyclic:4")).loop
    assert L.order ** 2 > np.iinfo(np.uint16).max      # a wrapped offset would show
    _assert_families_match(L)


# ---------------------------------------------------------------------------
# the closed form: gyr(y,z) is conjugation by y z^-1 y^-1 z in the source group

def _generic_gyrations(L):
    """ids and rows of gyration_table's generic path, _map_family on the
    right translations over all pairs."""
    T = L.table
    index = RowIndex(L.order, elem_dtype(L.order))
    ids = gyro._map_family(T.T, L.right_division.T, T, index)
    return ids, index.rows.astype(T.dtype)


def _spy_paths(monkeypatch):
    """The paths the two families take, in call order: "closed" when
    gyration_table reads the conjugation form, and "cosets" or "all" for the
    pairs inner_generators computes L(x,y) on."""
    paths = []
    closed_form, kernel = gyro._conjugation_family, mappings._map_family
    monkeypatch.setattr(gyro, "_conjugation_family",
                        lambda *args: paths.append("closed") or closed_form(*args))
    monkeypatch.setattr(mappings, "_map_family", lambda *args, reps=None: paths.append(
        "all" if reps is None else "cosets") or kernel(*args, reps=reps))
    return paths


def _assert_equals_references(L, monkeypatch, paths):
    """Both families of L take the given paths and give the ids and rows of
    the all-pairs kernel (gyrations) and of the references (Inn's generators)."""
    taken = _spy_paths(monkeypatch)
    gt = gyration_table(L)
    ids, rows = _generic_gyrations(L)
    perms = np.array(gt.perms)
    assert gt.ids.dtype == ids.dtype == np.int32
    assert perms.dtype == rows.dtype == L.table.dtype
    assert np.array_equal(gt.ids, ids)
    assert np.array_equal(perms, rows)
    assert not gt.ids.flags.writeable
    assert not any(p.flags.writeable for p in gt.perms)
    if L.is_loop:
        gens, labels = inner_generators(L)
        ref_gens, ref_labels = _ref_inner_generators(L, ids, rows)
        assert gens.dtype == L.table.dtype
        assert np.array_equal(gens, ref_gens)
        assert labels == ref_labels
    assert taken == [p for p in paths if L.is_loop or p == "closed"]


@pytest.mark.parametrize("spec", ["dihedral:16", "quaternion:16", "semidihedral:16",
                                  "dihedral:32", "dihedral:6", "dihedral:10", "dihedral:202",
                                  "wreath33", "heisenberg:5", "product:dihedral:16,cyclic:5",
                                  "product:dihedral:6,cyclic:4", "product:wreath33,cyclic:4",
                                  "unitriangular4:3"])
def test_closed_form_gyrations_equal_the_generic_kernel(spec, monkeypatch):
    # class 4 (dihedral:32) and not nilpotent (dihedral:6, dihedral:10,
    # dihedral:202) too: both laws hold in every group, and a trivial center
    # (dihedral:10, dihedral:202) makes every pair a coset pair;
    # product:wreath33,cyclic:4 and unitriangular4:3 have n^2 past what
    # uint16 holds
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        L = build_gyro(catalog_group(spec)).loop
    _assert_equals_references(L, monkeypatch, ["closed", "cosets"])


def test_closed_form_on_a_relabelled_file_group(tmp_path, monkeypatch):
    # a seeded renaming that moves the identity off index 0, read back from
    # a group file, as the files-roundtrip inputs are
    G = catalog_group("product:wreath33,cyclic:3")
    rng = np.random.default_rng(0)
    perm = rng.permutation(G.order)                      # new index of element i
    old = np.argsort(perm)
    table = perm[G.table[np.ix_(old, old)]]
    path = tmp_path / "t243.json"
    path.write_text(json.dumps({"order": G.order, "table": table.tolist()}))
    H = parse_group_file(path)
    assert H.relabeled_from == perm[0] != 0
    L = build_gyro(H).loop
    _assert_equals_references(L, monkeypatch, ["closed", "cosets"])
    assert len(gyration_table(L).perms) > 1


def test_inner_generators_do_not_depend_on_the_gyration_path(monkeypatch):
    # labels of Inn's generators come from the gyration ids: the same rows
    # and labels in the same order whichever paths built the two families;
    # _is_group_table, the gate of _central_labels, switches both
    G = catalog_group("wreath33")
    paths = _spy_paths(monkeypatch)
    closed = inner_generators(build_gyro(G).loop)
    monkeypatch.setattr(gyro, "_is_group_table", lambda G: False)
    generic = inner_generators(build_gyro(G).loop)
    assert paths == ["closed", "cosets", "all"]
    assert np.array_equal(closed[0], generic[0])
    assert closed[1] == generic[1]


def test_non_associative_source_takes_the_generic_kernel(monkeypatch):
    # a Latin table with identity 0 that is no group, wrapped without the
    # associativity check: Light's test fails, so the closed form, which
    # would give other gyrations here, is not taken
    W = build_gyro(catalog_group("wreath33")).loop
    H = _group_unchecked(W.table, W.names)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        L = build_gyro(H).loop
    label = H.table[:, sorted(group_center(H))].min(axis=1)
    assert not np.array_equal(gyro._conjugation_family(H, label)[0], _generic_gyrations(L)[0])
    assert gyro._central_labels(L) is None
    _assert_equals_references(L, monkeypatch, ["all"])


def test_loop_without_a_source_takes_the_generic_kernel(monkeypatch):
    L = loop_from_table(build_gyro(catalog_group("wreath33")).loop.table)
    _assert_equals_references(L, monkeypatch, ["all"])
    assert len(gyration_table(L).perms) == 3


def test_elem_dtype():
    assert elem_dtype(729) == np.uint16
    assert elem_dtype(65535) == np.uint16
    assert elem_dtype(65536) == np.int32
