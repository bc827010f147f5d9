import functools
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gyrolab import (
    build_gyro,
    catalog_group,
    gyration,
    gyration_table,
    is_gyrogroup,
    loop_center,
)
from gyrolab import groups, gyro, mappings
from gyrolab.cli import main
from gyrolab.fileio import export_text, parse_group_file
from gyrolab.groups import (_group_unchecked, elem_dtype, group_center, group_from_table,
                             group_translations)
from gyrolab.gyro import GyrationTable
from gyrolab.loops import central_translations, loop_from_table
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
            c = int(d16.commutator_table()[y, d16.inv(z)])
            conj = np.array([d16.mul(d16.mul(c, x), d16.inv(c)) for x in range(16)])
            assert np.array_equal(g, conj), (y, z)


def test_gyration_table_dedup(d16_loop):
    gt = gyration_table(d16_loop)
    assert gt.ids.shape == (16, 16)
    assert gt.perms.shape == (2, 16)   # identity and conjugation by r2
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


def _ref_pairing(L, source=None):
    """The pairing axiom cell by cell: the least (a, b) where gyr(a, b) is
    not the inverse of gyr(a*b, a), and whether no cell fails with a*b read
    off the source's table."""
    n, ar = L.order, np.arange(L.order)

    def failing(T):
        return [(a, b) for a in range(n) for b in range(n)
                if not np.array_equal(gyration(L, a, b)[gyration(L, int(T[a, b]), a)], ar)]
    bad = failing(L.table)
    return (bad[0] if bad else None), (None if source is None else not failing(source.table))


@pytest.mark.parametrize("spec, source", [("dihedral:32", "dihedral:32"),
                                          ("quaternion:32", "dihedral:32"),
                                          ("semidihedral:32", None),
                                          ("dihedral:16", "cyclic:16"),
                                          ("dihedral:16", "quaternion:16"),
                                          ("wreath33", "wreath33")])
def test_pairing_blocks_match_the_cellwise_reference(spec, source, monkeypatch):
    # blocks of 1 and 3 rows (BLOCK_CELLS = n, 3 n) and one block of all
    # rows give the cell-by-cell witness and group-product reading, with a
    # source that is the loop's own or another group of its order: the
    # pairing fails at (1, 16) on the class-4 loops, and the reading fails
    # with it, or alone for D16 read in C16
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        L = build_gyro(catalog_group(spec)).loop
    H = None if source is None else catalog_group(source)
    witness, reading = _ref_pairing(L, H)
    for cells in (L.order, 3 * L.order, gyro.BLOCK_CELLS):
        monkeypatch.setattr(gyro, "BLOCK_CELLS", cells)
        rep = is_gyrogroup(L, H)
        assert (rep.status == "fail") == (witness is not None)
        assert rep.witness == witness and rep.details.get("axiom") in (None, "pairing")
        assert rep.details.get("pairing_group_product_reading") == reading


@functools.lru_cache(maxsize=None)
def _twisted_table(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")          # dihedral:32 has class 4
        return build_gyro(catalog_group(spec)).loop.table


def _ref_automorphism(L):
    """The automorphism axiom cell by cell: the least (a, b) whose gyration
    is not an automorphism of L, followed by its least failing (u, v), else
    None."""
    T = L.table
    for a in range(L.order):
        for b in range(L.order):
            p = gyration(L, a, b)
            bad = np.argwhere(p[T] != T[np.ix_(p, p)])
            if len(bad):
                return (a, b) + tuple(int(i) for i in bad[0])
    return None


@given(spec=st.sampled_from(["cyclic:5", "dihedral:16", "wreath33", "quaternion:16", "dihedral:32"]),
       data=st.data())
def test_automorphism_witness_matches_the_cellwise_reference_on_column_swapped_loops(spec, data):
    # two cells off row 0 of one column swapped: the columns stay
    # permutations, so the table is a right loop with identity 0.  The
    # witness is the first cell of the least failing gyration id, which is
    # the least failing (a, b) because the ids number the gyrations in
    # row-major first-occurrence order
    T = _twisted_table(spec).copy()
    n = len(T)
    col = data.draw(st.integers(1, n - 1))
    rows = data.draw(st.lists(st.integers(1, n - 1), min_size=2, max_size=2, unique=True))
    T[rows, col] = T[rows[::-1], col]
    L = loop_from_table(T, lenient=True)
    ref = _ref_automorphism(L)
    rep = is_gyrogroup(L)
    if ref is None:
        assert rep.details.get("axiom") != "automorphism"
    else:
        assert rep.witness == ref and rep.details["axiom"] == "automorphism"


def test_gyro_axioms_peak_is_one_automorphism_test():
    # unitriangular4:3 (n = 729) with its gyrations built: the automorphism
    # test of one gyration p holds p[T] and T[p][:, p] in the element dtype
    # and their bool comparison, and the pairing test one block of
    # BLOCK_CELLS cells at a time: int32 ids, their intp index and the
    # int64 ids of the inverses, and a bool mask.  The n^2 pairing arrays
    # it replaced peaked at 9.2 MiB here
    G = catalog_group("unitriangular4:3")
    L = build_gyro(G).loop
    n, elem, intp = L.order, L.table.dtype.itemsize, np.dtype(np.intp).itemsize
    gyration_table(L)
    bound = max(n * n * (2 * elem + 1), gyro.BLOCK_CELLS * (4 + 2 * intp + 1)) + 256 * 1024
    tracemalloc.start()
    try:
        rep = is_gyrogroup(L, G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.status == "pass" and rep.details["pairing_group_product_reading"]
    assert peak <= bound, (peak, bound)


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
    return GyrationTable(ids, index.rows)


@pytest.mark.parametrize("spec", ["wreath33", "product:dihedral:16,cyclic:5",
                                  "heisenberg:5", "dihedral:32"])
def test_gyration_table_matches_column_kernel(spec, monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")          # dihedral:32 has class 4
        gc = build_gyro(catalog_group(spec))
    got, ref = gyration_table(gc.loop), _ref_gyration_table(gc.loop)
    assert np.array_equal(got.ids, ref.ids)
    assert np.array_equal(got.perms, ref.perms)
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
        # the offset in intp: a uint16 column times n would wrap
        ids[x] = index.add(flat.take(T[:, x].astype(np.intp)[:, None] * n + T[:, T[x]]))
    return ids, index.rows


def _l_family(T, ldiv):
    """The kernel on the L family over all pairs: A = T, A^-1 = ldiv, P = T.T."""
    index = RowIndex(len(T), np.int32)
    return gyro._map_family(T, ldiv, T.T, index, np.arange(len(T))), index.rows


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
    assert np.array_equal(got.perms, ref.perms)
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
        assert np.array_equal(rows, ref.perms)


def test_families_match_references_past_uint16_offsets():
    L = build_gyro(catalog_group("product:wreath33,cyclic:4")).loop
    assert L.order ** 2 > np.iinfo(np.uint16).max      # a wrapped offset would show
    _assert_families_match(L)


# ---------------------------------------------------------------------------
# the closed form: gyr(y,z) is conjugation by y z^-1 y^-1 z in the source group

def _generic_gyrations(L):
    """ids and rows of _map_family on the right translations over all pairs."""
    T = L.table
    index = RowIndex(L.order, elem_dtype(L.order))
    ids = gyro._map_family(T.T, L.right_division.T, T, index, np.arange(L.order))
    return ids, index.rows.astype(T.dtype)


def _spy_paths(monkeypatch):
    """The paths the two families take, in call order: "closed" when
    gyration_table reads the conjugation form, and for each _map_family
    call (the gyrations, then L(x,y)) the number of classes it reads."""
    paths = []
    closed_form, kernel = gyro._conjugation_family, gyro._map_family

    def spy(*args):
        reps = args[-1]
        paths.append(int(np.count_nonzero(reps == np.arange(len(reps)))))
        return kernel(*args)
    monkeypatch.setattr(gyro, "_conjugation_family",
                        lambda *args: paths.append("closed") or closed_form(*args))
    monkeypatch.setattr(gyro, "_map_family", spy)
    monkeypatch.setattr(mappings, "_map_family", spy)
    return paths


def _assert_equals_references(L, monkeypatch, paths):
    """Both families of L take the given paths and give the ids and rows of
    the all-pairs kernel (gyrations) and of the references (Inn's generators)."""
    ids, rows = _generic_gyrations(L)
    taken = _spy_paths(monkeypatch)
    gt = gyration_table(L)
    perms = gt.perms
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
    assert taken == (paths if L.is_loop else paths[:1])


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
    # uint16 holds.  L(x,y) is computed on the |L/Z(L)| cosets of the loop
    # center
    G = catalog_group(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        L = build_gyro(G).loop
        center = loop_center(build_gyro(G).loop)      # a second loop: L's caches stay cold
    _assert_equals_references(L, monkeypatch, ["closed", G.order // len(center)])


def _relabelled_file_group(tmp_path):
    """product:wreath33,cyclic:3 under a seeded renaming that moves the
    identity off index 0, read back from a group file, as the
    files-roundtrip inputs are."""
    G = catalog_group("product:wreath33,cyclic:3")
    rng = np.random.default_rng(0)
    perm = rng.permutation(G.order)                      # new index of element i
    old = np.argsort(perm)
    table = perm[G.table[np.ix_(old, old)]]
    path = tmp_path / "t243.json"
    path.write_text(json.dumps({"order": G.order, "table": table.tolist()}))
    H = parse_group_file(path)
    assert H.relabeled_from == perm[0] != 0
    return H


def test_closed_form_on_a_relabelled_file_group(tmp_path, monkeypatch):
    H = _relabelled_file_group(tmp_path)
    L = build_gyro(H).loop
    center = loop_center(build_gyro(H).loop)          # a second loop: L's caches stay cold
    _assert_equals_references(L, monkeypatch, ["closed", H.order // len(center)])
    assert len(gyration_table(L).perms) > 1


C3_6 = "product:" + ",".join(["cyclic:3"] * 6)
C2_9 = "product:" + ",".join(["cyclic:2"] * 9)


@pytest.mark.parametrize("spec", ["dihedral:16", "wreath33", "heisenberg:5", "dihedral:32",
                                  "quaternion:16", "dihedral:10", "dihedral:202",
                                  "cyclic:729", C3_6, C2_9, "file"])
def test_closed_form_labels_are_the_cosets_of_the_center(spec, tmp_path):
    # the closed form labels each conjugator c = y z^-1 y^-1 z by the least
    # element of c Z(G), read from G alone, also with a trivial center
    # (dihedral:10, dihedral:202) and class 4 (dihedral:32): ids rank the
    # labels in row-major first-occurrence order and row k conjugates by
    # the label of id k.  Z(G) lies in Z(L), so each coset of Z(G) lies in
    # one class of the loop key, which reads the loop table alone
    G = _relabelled_file_group(tmp_path) if spec == "file" else catalog_group(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        L = build_gyro(G).loop
    assert groups.is_group_table(G)
    n, T, inv = G.order, G.table.astype(np.intp), G.inverse.astype(np.intp)
    label = T[:, sorted(group_center(G))].min(axis=1)
    c = T[T[T[:, inv], inv[:, None]], np.arange(n)]         # [y, z] -> y z^-1 y^-1 z
    reps, first = np.unique(label[c], return_index=True)
    reps = reps[np.argsort(first)]
    rank = np.empty(n, dtype=np.int64)
    rank[reps] = np.arange(len(reps))
    ids, rows = gyro._conjugation_family(G)
    assert np.array_equal(ids, rank[label[c]])
    assert np.array_equal(rows, T[T[inv[reps][:, None], np.arange(n)], reps[:, None]])
    key = central_translations(L)[1]
    assert np.array_equal(key[label], key)


@pytest.mark.parametrize("spec,generators", [("cyclic:729", 1), (C3_6, 6), (C2_9, 9),
                                             ("unitriangular4:3", 3)])
def test_the_loop_key_verifies_generators_of_the_center(spec, generators):
    # a c of the commutant that the kept ones already reach is skipped: 1
    # of 728 candidates on cyclic:729, a basis of C3^6 and of C2^9, 3 of
    # the 26 on unitriangular4:3
    cs, _ = central_translations(build_gyro(catalog_group(spec)).loop)
    assert len(cs) == generators


@pytest.mark.parametrize("spec, classes", [("dihedral:16", 8), ("heisenberg:5", 25),
                                           ("product:dihedral:16,cyclic:5", 8),
                                           ("wreath33", 9), ("product:wreath33,cyclic:4", 9),
                                           ("unitriangular4:3", 27),
                                           ("product:unitriangular4:3,cyclic:3", 27)])
def test_the_loop_key_is_the_cosets_of_the_loop_center(spec, classes):
    # the key reads the loop table alone: the same key on the loop that
    # loop_from_table rebuilds from the table, with no recorded source,
    # whose classes are the cosets of Z(L): 27 at n = 729 and n = 2187
    L = build_gyro(catalog_group(spec)).loop
    cs, key = central_translations(L)
    M = loop_from_table(L.table)
    assert "source" not in M._cache
    got = central_translations(M)
    assert got[0] == cs and np.array_equal(got[1], key)
    assert len(set(key.tolist())) == classes == L.order // len(loop_center(L))


@pytest.mark.parametrize("spec", ["cyclic:5", "wreath33", "product:wreath33,cyclic:4",
                                  "unitriangular4:3"])
def test_both_keys_are_in_the_element_dtype(spec):
    # the keys are element tables, as every class label of the package is
    G = catalog_group(spec)
    L = build_gyro(G).loop
    for key in (central_translations(L)[1], group_translations(G)[1],
                central_translations(loop_from_table(L.table))[1]):
        assert key.dtype == elem_dtype(G.order)


def test_gyration_table_peak_stays_at_one_ids_table_and_its_blocks():
    # a cold gyration_table on wreath33xC4 (n = 324), the closed form's
    # coset labels included: the n^2 int32 ids and five intp temporaries of
    # one block, 2,458,951 B traced.  An int64 label gives 4,031,647 B
    G = catalog_group("product:wreath33,cyclic:4")
    L = build_gyro(G).loop
    n = L.order
    groups.is_group_table(G)
    tracemalloc.start()
    try:
        gyration_table(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * n * n + 5 * 8 * gyro.BLOCK_CELLS


def test_inner_generators_do_not_depend_on_the_gyration_path(monkeypatch):
    # labels of Inn's generators come from the gyration ids: the same rows
    # and labels in the same order whichever paths built the two families;
    # is_group_table, the gate of the closed form, switches the gyrations
    # to _map_family, and a loop with no source reads the same 9 cosets of
    # Z(L) as the loop built on the group
    G = catalog_group("wreath33")
    paths = _spy_paths(monkeypatch)
    closed = inner_generators(build_gyro(G).loop)
    no_source = inner_generators(loop_from_table(build_gyro(G).loop.table))
    monkeypatch.setattr(gyro, "is_group_table", lambda G: False)
    keyed = inner_generators(build_gyro(G).loop)
    assert paths == ["closed", 9, 9, 9, 9, 9]
    for generic in (no_source, keyed):
        assert np.array_equal(closed[0], generic[0])
        assert closed[1] == generic[1]


def test_non_associative_source_takes_the_generic_kernel(monkeypatch):
    # a Latin table with identity 0 that is no group, wrapped without the
    # associativity check: Light's test fails, so the closed form, which
    # would give other gyrations here, is not taken; both families read the
    # 9 classes of the verified key, and equal the all-pairs references
    W = build_gyro(catalog_group("wreath33")).loop
    H = _group_unchecked(W.table, W.names)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        L = build_gyro(H).loop
    assert not np.array_equal(gyro._conjugation_family(H)[0], _generic_gyrations(L)[0])
    _assert_equals_references(L, monkeypatch, [9, 9])


def test_loop_without_a_source_takes_the_generic_kernel(monkeypatch):
    # the key reads the loop table alone: 9 classes, as on the loop that
    # build_gyro made
    L = loop_from_table(build_gyro(catalog_group("wreath33")).loop.table)
    _assert_equals_references(L, monkeypatch, [9, 9])


def test_opposite_loop_reads_the_wide_key(monkeypatch):
    # x o y = y*x on wreath33 x C4 records no source; its center is L's, so
    # its key has the 9 cosets of Z(L), and both families equal the
    # all-pairs references
    L = build_gyro(catalog_group("product:wreath33,cyclic:4")).loop
    op = loop_from_table(L.table.T)
    _assert_equals_references(op, monkeypatch, [9, 9])
    assert loop_center(op) == loop_center(L) and len(loop_center(L)) == 36
    assert len(gyration_table(L).perms) == 3


def test_elem_dtype():
    assert elem_dtype(729) == np.uint16
    assert elem_dtype(65535) == np.uint16
    assert elem_dtype(65536) == np.int32


@pytest.mark.parametrize("spec", ["cyclic:1", "dihedral:16", "wreath33", "heisenberg:5",
                                  "unitriangular4:3", "dihedral:32"])
@pytest.mark.parametrize("identity_at", [0, -1, "middle"])
def test_twisted_table_equals_the_fancy_index_reference(ref_twisted_table, spec, identity_at):
    # build_gyro's flat takes give the table y^-1 x y^2 of fancy indexing,
    # in the element dtype, also on a group read back from a renamed table
    # whose identity sat at n - 1 or in the middle
    G = catalog_group(spec)
    n = G.order
    if identity_at:
        at = n - 1 if identity_at == -1 else n // 2
        perm = np.random.default_rng(n).permutation(n)
        j = int(np.flatnonzero(perm == at)[0])
        perm[[0, j]] = perm[[j, 0]]                    # the identity goes to `at`
        old = np.argsort(perm)
        G = group_from_table(perm[G.table.astype(np.int64)[np.ix_(old, old)]])
        assert G.relabeled_from == (at or None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")                # dihedral:32 has class 4
        L = build_gyro(G).loop
    want = ref_twisted_table(G)
    assert L.table.dtype == want.dtype == elem_dtype(n)
    assert np.array_equal(L.table, want)


def _counting_light(monkeypatch):
    """The sizes of the tables that Light's test is run on, in call order."""
    calls, light = [], groups._light_associative

    def counted(T):
        calls.append(len(T))
        return light(T)
    monkeypatch.setattr(groups, "_light_associative", counted)
    return calls


def test_a_file_group_export_runs_lights_test_once(tmp_path, monkeypatch):
    # group_from_table records its verdict under "is_group" and
    # is_group_table reads it: the gyration-table export of a group file
    # tests the table once, in the parse.  A group built unchecked has no
    # verdict, so its gate runs the test, once per group
    path = tmp_path / "t243.json"
    G = catalog_group("product:wreath33,cyclic:3")
    perm = np.random.default_rng(0).permutation(G.order)
    old = np.argsort(perm)
    path.write_text(json.dumps({"order": G.order, "table": perm[G.table[np.ix_(old, old)]].tolist()}))
    calls = _counting_light(monkeypatch)
    assert main(["export", "--group", f"file:{path}", "--what", "gyration-table",
                 "--format", "csv", "--out", str(tmp_path / "gyr.csv")]) == 0
    assert calls == [243]
    W = catalog_group("wreath33")
    H = _group_unchecked(W.table, W.names)
    for _ in range(2):
        export_text(H, "gyration-table", "csv")
    assert calls == [243, 81]
