"""End-to-end acceptance suite: one test per shipped guarantee.

Run `pytest tests/test_acceptance.py -v` to get a single pass/fail line per
guarantee.  Each test is self-contained and states its tolerance inline
(set equalities are exact; the two scan-heavy tests carry wall-clock budgets).
"""

import dataclasses
import json
import time

import numpy as np

from gyrolab import (
    build_gyro,
    build_gyro_extension,
    catalog_group,
    cocycle_violation,
    coboundary_violation,
    commutant,
    derived_subgroup,
    factor_set,
    group_center,
    gyro_factor_set,
    inner_mapping_group,
    is_gyrogroup,
    is_inner_abelian,
    loop_center,
    loop_nilpotency_class,
    make_transversal,
    multiplication_group,
    nilpotency_class,
    nine_identity,
    normal_subloop_violation,
    nucleus,
    quotient_loop,
    search_scan,
    subset_exponent,
    transversal_tau,
    verify_extension_isomorphism,
    verify_suite,
)
from gyrolab.checks import (
    charset_commutant,
    charset_left_nucleus,
    charset_middle_nucleus,
    charset_right_nucleus,
)
from gyrolab.cli import main
from gyrolab.groups import associativity_violation
from gyrolab.invariants import commutator_bracket_table
from gyrolab.search import COND_CUBES, COND_EXP, COND_NINE, SKIP_NOT_3_GROUP, evaluate_source

CATALOG = (
    [f"cyclic:{n}" for n in range(2, 10)]
    + ["dihedral:8", "dihedral:16", "quaternion:16", "semidihedral:16",
       "heisenberg:2", "heisenberg:3", "wreath33",
       "unitriangular4:2", "unitriangular4:3",
       "product:dihedral:16,cyclic:3", "product:cyclic:2,cyclic:2"]
)
CLASS3 = ["dihedral:16", "quaternion:16", "semidihedral:16", "wreath33",
          "unitriangular4:2", "unitriangular4:3", "product:dihedral:16,cyclic:3"]


def _loop(spec):
    return build_gyro(catalog_group(spec)).loop


def test_criterion_1_twisted_tables_satisfy_gyro_axioms_across_catalog():
    started = time.perf_counter()
    for spec in CATALOG:
        G = catalog_group(spec)
        assert nilpotency_class(G) is not None and nilpotency_class(G) <= 3
        report = is_gyrogroup(build_gyro(G).loop, source=G)
        assert report.status == "pass", (spec, report.witness, report.details)
    assert time.perf_counter() - started < 60.0


def test_criterion_2_associativity_holds_exactly_up_to_class_two():
    for spec in CATALOG:
        G = catalog_group(spec)
        T = _loop(spec).table
        bad = associativity_violation(T)
        if nilpotency_class(G) <= 2:
            assert bad is None, (spec, bad)
        else:
            assert bad is not None, spec
            x, y, z = bad
            assert T[T[x, y], z] != T[x, T[y, z]], spec


def test_criterion_3_dihedral16_invariant_suite_is_exact():
    G = catalog_group("dihedral:16")
    L = _loop("dihedral:16")
    center = frozenset({0, 4})                      # e and r^4
    assert group_center(G) == center
    assert commutant(L) == center
    assert loop_center(L) == center
    assert normal_subloop_violation(L, center) is None
    assert nucleus(L, "middle") == nucleus(L, "right")
    assert nucleus(L, "middle") <= nucleus(L, "left")
    # commutator-shape characterizations agree with brute force, per slot
    assert charset_left_nucleus(G) == nucleus(L, "left")
    assert charset_middle_nucleus(G) == nucleus(L, "middle")
    assert charset_right_nucleus(G) == nucleus(L, "right")
    assert charset_commutant(G) == commutant(L)
    for a in commutant(L):
        assert G.power(a, 3) in group_center(G)
    # element-identity batteries and commutant-quotient checks, every tuple
    ids = ["commutator-expansion-left", "commutator-expansion-right",
           "commutant-element-identities", "quotient-by-commutant-group",
           "quotient-by-commutant-matches-gyro-of-quotient"]
    for r in verify_suite(G, ids):
        assert r.status == "pass", (r.check_id, r.witness)


def test_criterion_4_commutator_and_associator_formulas_on_all_class3_groups():
    started = time.perf_counter()
    ids = ["circ-commutator-formula", "associator-formula", "associators-central"]
    for spec in CLASS3:
        for r in verify_suite(catalog_group(spec), ids):
            assert r.status == "pass", (spec, r.check_id, r.witness)
    assert time.perf_counter() - started < 300.0


def test_criterion_5_loop_class_matches_cube_criterion(class2_criterion):
    assert loop_nilpotency_class(_loop("dihedral:16")) == 3
    for spec in CLASS3:
        G = catalog_group(spec)
        holds, _ = class2_criterion(G)
        assert holds == (loop_nilpotency_class(_loop(spec)) <= 2), spec
    W = catalog_group("wreath33")
    assert subset_exponent(W, derived_subgroup(W)) == 3
    assert loop_nilpotency_class(_loop("wreath33")) == 2


def test_criterion_6_dihedral16_quotients_powers_and_inner_mappings():
    G = catalog_group("dihedral:16")
    L = _loop("dihedral:16")
    QN, _ = quotient_loop(L, nucleus(L))
    assert associativity_violation(QN.table) is None
    assert np.array_equal(QN.table, QN.table.T)     # abelian group
    QZ, _ = quotient_loop(L, loop_center(L))
    assert associativity_violation(QZ.table) is None
    assert nine_identity(G) == (False, (1, 8, 8))
    assert associativity_violation(commutator_bracket_table(L)) == (1, 8, 8)
    abelian, witness = is_inner_abelian(L)
    assert not abelian and witness == ("T(1)", "T(8)")
    mlt, inn = multiplication_group(L).order(), inner_mapping_group(L).order()
    assert (mlt, inn) == (256, 16)
    assert mlt == L.order * inn                     # orbit-stabilizer


def test_criterion_7_central_extension_roundtrip_and_coboundary(seeded_transversal):
    for spec in ("dihedral:16", "unitriangular4:2"):
        G = catalog_group(spec)
        Z = group_center(G)
        T1 = make_transversal(G, Z)
        fs1 = factor_set(G, T1)
        assert cocycle_violation(fs1) is None, spec
        tf1 = gyro_factor_set(fs1)
        built = build_gyro_extension(tf1)
        target = build_gyro(G).loop
        ok, witness = verify_extension_isomorphism(built, target, T1)
        assert ok, (spec, witness)
        # a second transversal changes the factor set only by a coboundary
        T2 = seeded_transversal(T1, 7)
        assert not np.array_equal(T1.reps, T2.reps)
        fs2 = factor_set(G, T2)
        tau = transversal_tau(T1, T2)
        assert coboundary_violation(fs1, fs2, tau) is None, spec
        w2 = coboundary_violation(tf1, gyro_factor_set(fs2), tau)
        assert w2 is None, (spec, w2)
        # flipping a single twisted-factor cell must break the rebuild
        vals = tf1.values.copy()
        zl = sorted(Z)
        vals[1, 1] = next(z for z in zl if z != int(vals[1, 1]))
        broken = build_gyro_extension(dataclasses.replace(tf1, values=vals))
        ok3, w3 = verify_extension_isomorphism(broken, target, T1)
        assert not ok3 and w3 is not None, spec
        if spec == "dihedral:16":
            assert w3 == (1, 1)                     # failure stays localized


def test_criterion_8_search_diagnostics_skips_and_parallel_determinism(tmp_path):
    summary = search_scan(["wreath33", "unitriangular4:3"])
    assert summary.count("hit") == 0
    for record in summary.records:
        assert record.status == "miss"
        assert record.conditions[COND_CUBES] is False
        assert record.conditions[COND_EXP] is False
        assert record.conditions[COND_NINE] is None     # short-circuited
    skip = evaluate_source("cyclic:4")
    assert skip.status == "skipped" and skip.reason == SKIP_NOT_3_GROUP
    # synthetic thousand-source stream, scanned twice in parallel
    stream = tmp_path / "stream.txt"
    stream.write_text("\n".join(
        ["cyclic:27", "wreath33", "heisenberg:3", "cyclic:9", "cyclic:3"] * 200
    ) + "\n")
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main(["search", "--inputs", str(stream), "--jobs", "4",
                 "--out", str(first)]) == 0
    assert main(["search", "--inputs", str(stream), "--jobs", "4",
                 "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text())
    assert doc["scanned"] == 1000
    assert doc["hits"] == 0
    assert len(doc["records"]) == 1000


def test_criterion_9_verify_reports_are_byte_identical(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main(["verify", "--group", "dihedral:16", "--out", str(first)]) == 0
    assert main(["verify", "--group", "dihedral:16", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text())
    assert doc["summary"]["fail"] == 0
