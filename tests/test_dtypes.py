"""One element dtype for every table, and kernels that do not depend on it.

Every table the package builds is in elem_dtype(n) (uint16 at these
orders), cast once where it is made.  The kernels also take tables built
outside in any integer dtype, so each cubic scan and flat-offset kernel is
run on uint16, int32 and int64 copies of the same tables at n = 324, where
n * n is past what uint16 holds: a uint16 offset x*n + y would wrap there.
"""

import json

import numpy as np
import pytest

from gyrolab import (
    NotRightLoop,
    SuiteContext,
    build_gyro,
    catalog_group,
    commutant,
    commutator_bracket_table,
    gyration_table,
    is_gyrogroup,
    loop_center,
    loop_from_table,
    multiplication_group,
    nine_identity,
    parse_group_file,
    quotient_group,
    quotient_loop,
    subgroup_as_group,
    verify_suite,
    write_group_file,
)
from gyrolab import checks
from gyrolab.cocycle import (
    build_gyro_extension,
    factor_set,
    gyro_factor_set,
    make_transversal,
)
from gyrolab.errors import NotWellDefined
from gyrolab.fileio import dumps_json
from gyrolab.groups import (
    FiniteGroup,
    _group_unchecked,
    _right_generators,
    associativity_violation,
    direct_product,
    elem_dtype,
    group_center,
    group_from_table,
    is_two_engel,
    normality_violation,
)
from gyrolab.gyro import GyroConstruction
from gyrolab.loops import FiniteLoop, normal_subloop_violation
from gyrolab.mappings import inner_generators

SPEC = "product:wreath33,cyclic:4"          # n = 324: n * n = 104,976


def _relabelled_doc(G):
    """G's group file with elements 0 and 1 swapped, so the identity is
    read at index 1 and moved back to 0 on load."""
    swap = np.arange(G.order)
    swap[[0, 1]] = [1, 0]
    table = swap[G.table[np.ix_(swap, swap)]]
    return {"order": G.order, "table": table.tolist()}


@pytest.mark.parametrize("spec", ["dihedral:16", SPEC])
def test_every_table_is_built_in_the_element_dtype(spec, tmp_path, loop_direct_product):
    G = catalog_group(spec)
    L = build_gyro(G).loop
    Z = sorted(group_center(G))
    c2 = catalog_group("cyclic:2")
    Q, proj = quotient_group(G, Z)
    LQ, lproj = quotient_loop(L, loop_center(L))
    H, _ = subgroup_as_group(G, Z)
    P = direct_product(G, c2)
    PL = loop_direct_product(L, loop_from_table(c2.table, names=c2.names, name=c2.name))
    T = make_transversal(G, Z)
    fs = factor_set(G, T)
    tf = gyro_factor_set(fs)
    ext = build_gyro_extension(tf)

    table_file = tmp_path / "table.json"
    write_group_file(G, table_file)
    moved_file = tmp_path / "moved.json"
    moved_file.write_text(dumps_json(_relabelled_doc(G)))
    perm_file = tmp_path / "perm.json"
    perm_file.write_text(json.dumps({"degree": G.order, "generators": [
        G.table[s].tolist() for s in _right_generators(G.table)]}))
    read = parse_group_file(table_file)
    moved = parse_group_file(moved_file)
    perm = parse_group_file(perm_file)
    assert moved.relabeled_from == 1 and perm.order == G.order

    tables = [
        ("group", G, G.table), ("inverse", G, G.inverse),
        ("commutator", G, G.commutator_table()), ("power", G, G.power_array(3)),
        ("loop", L, L.table), ("right division", L, L.right_division),
        ("left division", L, L.left_division),
        ("bracket", L, commutator_bracket_table(L)),
        ("gyrations", L, gyration_table(L).perms),
        ("inner generators", L, inner_generators(L)[0]),
        ("translations", L, multiplication_group(L).generators),
        ("quotient", Q, Q.table), ("quotient labels", Q, proj),
        ("quotient loop", LQ, LQ.table), ("quotient loop labels", LQ, lproj),
        ("quotient right division", LQ, LQ.right_division),
        ("subgroup", H, H.table),
        ("product", P, P.table), ("loop product", PL, PL.table),
        ("transversal", G, T.reps), ("factor set", G, fs.values),
        ("extension", ext, ext.table), ("extension division", ext, ext.left_division),
        ("table file", read, read.table), ("relabelled file", moved, moved.table),
        ("relabelled inverse", moved, moved.inverse),
        ("permutation file", perm, perm.table),
        ("from a list", G, group_from_table(G.table.tolist()).table),
        ("from int64", G, group_from_table(G.table.astype(np.int64)).table),
        ("loop from int64", L, loop_from_table(L.table.astype(np.int64)).table),
    ]
    assert elem_dtype(G.order) == np.uint16
    wrong = [(what, str(t.dtype)) for what, owner, t in tables
             if t.dtype != elem_dtype(owner.order)]
    assert wrong == []
    assert np.array_equal(read.table, G.table)


def _group_copy(G, dtype):
    return FiniteGroup(G.table.astype(dtype), G.names, G.inverse.astype(dtype), name=G.name)


def _loop_copy(L, dtype, source=None):
    """L's tables in dtype; with source, a loop that build_gyro made from it."""
    M = FiniteLoop(L.table.astype(dtype), L.names, L.is_right_loop, L.is_loop,
                   L.right_division.astype(dtype), L.left_division.astype(dtype), name=L.name)
    if source is not None:
        M._cache["source"] = source
    return M


def _group_kernels(G, L):
    """Verdicts and witnesses of the group-side scans of G, and of the fused
    associator scan with L as G's twisted loop."""
    ctx = SuiteContext(G)
    ctx._cache["gyro"] = GyroConstruction(G, L, None)
    formula, central, nuclei = ctx.associator_scan()
    return {
        "associativity": associativity_violation(G.table),
        "nine": nine_identity(G),
        "expansion-left": checks._check_commutator_expansion_left(ctx)[0],
        "expansion-right": checks._check_commutator_expansion_right(ctx)[0],
        "two-engel": is_two_engel(G),
        "normality": normality_violation(G, [0, 1, 2]),
        "associator-formula": formula, "associators-central": central,
        "nuclei": nuclei,
    }


def _loop_kernels(L):
    """Verdicts, witnesses and tables of the loop-side kernels of L."""
    C = commutant(L)
    try:
        Q, proj = quotient_loop(L, C)
        quotient = (Q.table.tolist(), proj.tolist())
    except NotWellDefined as exc:
        quotient = exc.witness
    gt = gyration_table(L)
    gens, labels = inner_generators(L)
    return {
        "associativity": associativity_violation(L.table),
        "normal-commutant": normal_subloop_violation(L, C),
        "normal-center": normal_subloop_violation(L, loop_center(L)),
        "quotient": quotient,
        "gyration-ids": gt.ids.tolist(),
        "gyrations": gt.perms.tolist(),
        "inner-generators": (gens.tolist(), labels),
        "bracket": commutator_bracket_table(L).tolist(),
        "bracket-associativity": associativity_violation(commutator_bracket_table(L)),
        "gyro-axioms": is_gyrogroup(L).to_dict(),
    }


def test_kernels_give_the_same_witnesses_in_any_table_dtype():
    gc = build_gyro(catalog_group(SPEC))
    G, L = gc.source, gc.loop
    assert G.order ** 2 > np.iinfo(np.uint16).max
    assert G.table.dtype == L.table.dtype == np.uint16
    wrapped = _group_unchecked(L.table, G.names)       # Latin, not associative
    # the last loop has an int64 table and uint16 division tables
    mixed = FiniteLoop(L.table.astype(np.int64), L.names, True, True,
                       L.right_division, L.left_division)
    pairs = [(np.uint16, L), (np.int32, L), (np.uint16, _loop_copy(L, np.int32)),
             (np.int64, mixed)]
    for H in (G, wrapped):
        first, *rest = [_group_kernels(_group_copy(H, g), M) for g, M in pairs]
        assert all(r == first for r in rest)
    # the witnesses of the wrapped table are compared, not only verdicts
    assert all(first[k] is not None for k in (
        "associativity", "expansion-left", "expansion-right", "associator-formula"))

    got = [_loop_kernels(M) for M in (L, _loop_copy(L, np.int32, source=G),
                                      _loop_copy(L, np.int32, source=_group_copy(G, np.int32)))]
    assert got[0]["associativity"] is not None
    assert got[1] == got[0] and got[2] == got[0]


def test_verify_documents_do_not_depend_on_the_table_dtype():
    G = catalog_group("product:dihedral:16,cyclic:5")
    docs = [[r.to_dict() for r in verify_suite(H)]
            for H in (G, _group_copy(G, np.int32), _group_copy(G, np.int64))]
    assert docs[1] == docs[0] and docs[2] == docs[0]


def _cyclic_table(n):
    return np.add.outer(np.arange(n), np.arange(n)) % n


def test_loop_from_table_on_a_non_latin_column_past_uint16_cells():
    # n = 300: uint16 tables, and n * n past what uint16 holds.  A -1
    # sentinel would wrap to 65535 there, so a missing cell would not show
    n = 300
    T = _cyclic_table(n)
    T[5, [7, 9]] = T[5, [9, 7]]                 # row 5 stays Latin; columns 7, 9 do not
    with pytest.raises(NotRightLoop) as exc:
        loop_from_table(T)
    assert exc.value.column == 7
    L = loop_from_table(T, lenient=True)
    assert L.table.dtype == np.uint16
    assert not L.is_right_loop and not L.is_loop and L.right_division is None
    ldiv = L.left_division
    assert ldiv.dtype == np.uint16
    assert (ldiv[np.arange(n)[:, None], T] == np.arange(n)).all()

    T[5, 7] = T[6, 7]                           # now row 5 repeats a value too
    with pytest.raises(NotRightLoop):
        loop_from_table(T)
    L = loop_from_table(T, lenient=True)
    assert (L.is_right_loop, L.is_loop, L.right_division, L.left_division) == (
        False, False, None, None)


def test_loop_from_table_on_a_non_latin_row_past_uint16_cells():
    n = 300
    T = _cyclic_table(n)
    T[[5, 9], 7] = T[[9, 5], 7]                 # column 7 stays Latin; rows 5, 9 do not
    L = loop_from_table(T)
    assert L.is_right_loop and not L.is_loop and L.left_division is None
    rdiv = L.right_division
    assert rdiv.dtype == np.uint16
    assert (rdiv[T, np.arange(n)] == np.arange(n)[:, None]).all()
