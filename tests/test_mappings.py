import numpy as np
import pytest

from gyrolab import (
    build_gyro,
    catalog_group,
    inner_mapping_group,
    is_inner_abelian,
    loop_from_table,
    multiplication_group,
    verify_suite,
)
from gyrolab.groups import associativity_violation
from gyrolab.invariants import commutator_bracket_table
from gyrolab.mappings import (
    inner_generators,
    translations,
)


def test_translations_regular_representation():
    G = catalog_group("cyclic:4")
    L = loop_from_table(G.table, names=G.names, name=G.name)
    left, right = translations(L, 1)
    # for an abelian group left and right translations coincide
    assert np.array_equal(left, right)
    assert list(left) == [1, 2, 3, 0]
    M = multiplication_group(L)
    assert M.order() == 4


def test_inner_generators_fix_identity(d16_loop):
    gens, labels = inner_generators(d16_loop)
    assert len(gens) == len(labels)
    for g in gens:
        assert g[0] == 0


def test_group_inner_mappings_are_conjugations(d16):
    # for a group table the inner mapping group is G / Z(G)
    L = loop_from_table(d16.table, names=d16.names, name=d16.name)
    inn = inner_mapping_group(L)
    assert inn.order() == 8            # 16 / |{e, r4}|


def test_mlt_inn_orbit_stabilizer(d16_loop):
    mlt, inn = multiplication_group(d16_loop).order(), inner_mapping_group(d16_loop).order()
    assert (mlt, inn) == (256, 16)
    assert mlt == 16 * inn


def test_inner_abelian_verdicts(d16_loop, heis3_loop):
    flag, wit = is_inner_abelian(d16_loop)
    assert flag is False
    assert wit == ("T(1)", "T(8)")
    flag3, wit3 = is_inner_abelian(heis3_loop)
    assert flag3 is True and wit3 is None


def test_bracket_associativity(d16_loop, heis3_loop):
    assert associativity_violation(commutator_bracket_table(d16_loop)) == (1, 8, 8)
    assert associativity_violation(commutator_bracket_table(heis3_loop)) is None


def _suite_by_id(G, selection):
    return {r.check_id: r for r in verify_suite(G, selection=selection)}


def test_kinyon_conditions_d16(d16):
    # the hypotheses and conclusion of Kinyon's question, as suite checks
    by_id = _suite_by_id(d16, ["quotient-by-nucleus-abelian-group",
                               "quotient-by-center-group",
                               "bracket-not-associative",
                               "inner-mapping-group-not-abelian"])
    assert by_id["quotient-by-nucleus-abelian-group"].status == "pass"
    assert by_id["quotient-by-center-group"].status == "pass"
    assert by_id["bracket-not-associative"].status == "pass"
    assert by_id["bracket-not-associative"].details["witness_triple"] == [1, 8, 8]
    assert by_id["inner-mapping-group-not-abelian"].status == "pass"


def test_kinyon_conditions_heis3(heis3_loop):
    by_id = _suite_by_id(catalog_group("heisenberg:3"),
                         ["quotient-by-nucleus-abelian-group",
                          "quotient-by-center-group",
                          "bracket-assoc-iff-ninth-power"])
    assert all(r.status == "pass" for r in by_id.values())
    assert by_id["bracket-assoc-iff-ninth-power"].details["bracket_associative"] is True
    assert is_inner_abelian(heis3_loop) == (True, None)
