import json

import pytest

import gyrolab.search as search
from gyrolab.gyro import build_gyro
from gyrolab.search import (
    COND_CUBES,
    COND_EXP,
    COND_NINE,
    SKIP_CLASS,
    SKIP_NOT_3_GROUP,
    SKIP_ORDER,
    evaluate_source,
    search_scan,
)


def test_wreath33_misses_on_first_condition():
    rec = evaluate_source("wreath33")
    assert rec.status == "miss"
    assert rec.order == 81 and rec.group_class == 3
    assert rec.conditions == {COND_CUBES: False, COND_EXP: False, COND_NINE: None}
    assert rec.payoff is None


def test_unitriangular43_misses():
    rec = evaluate_source("unitriangular4:3")
    assert rec.status == "miss"
    assert rec.conditions[COND_CUBES] is False
    assert rec.conditions[COND_EXP] is False      # derived subgroup has exponent 3
    assert rec.conditions[COND_NINE] is None      # short-circuited


def test_skip_reasons():
    assert evaluate_source("dihedral:16").reason == SKIP_NOT_3_GROUP
    assert evaluate_source("cyclic:27").reason == SKIP_CLASS
    rec = evaluate_source("wreath33", max_order=50)
    assert rec.status == "skipped" and rec.reason == SKIP_ORDER


def test_error_quarantine():
    rec = evaluate_source("nonsense:5")
    assert rec.status == "error"
    assert "UnknownSpec" in rec.reason


def test_scan_counts_and_order():
    srcs = ["wreath33", "dihedral:16", "cyclic:27", "nonsense:5"]
    summary = search_scan(srcs)
    assert [r.source for r in summary.records] == srcs
    d = summary.to_dict()
    assert (d["scanned"], d["hits"], d["misses"], d["skipped"], d["errors"]) == (4, 0, 1, 2, 1)
    assert d["condition_counts"] == {COND_CUBES: 0, COND_EXP: 0, COND_NINE: 0}


def test_parallel_scan_matches_serial():
    srcs = ["cyclic:9", "wreath33", "cyclic:27", "heisenberg:3"] * 3
    serial = json.dumps(search_scan(srcs, jobs=1).to_dict(), sort_keys=True)
    parallel = json.dumps(search_scan(srcs, jobs=2).to_dict(), sort_keys=True)
    assert serial == parallel


def test_elapsed_not_serialized():
    rec = evaluate_source("cyclic:27")
    assert rec.elapsed > 0
    assert "elapsed" not in rec.to_dict()


def test_hit_payoff_path(monkeypatch):
    # no known group satisfies all three conditions (that is the open
    # problem), so force the conditions to exercise the payoff branch
    monkeypatch.setattr(search, "_cube_criterion", lambda G, C: (False, (0, 1)))
    monkeypatch.setattr(search, "subset_exponent", lambda G, S: 9)
    monkeypatch.setattr(search, "nine_identity", lambda G: (True, None))
    rec = evaluate_source("wreath33")
    assert rec.status == "hit"
    assert set(rec.payoff) == {"inner_mapping_abelian", "loop_class"}
    assert rec.payoff["loop_class"] == 2
    assert rec.witnesses == {COND_CUBES: [0, 1]}


def test_class3_source_builds_its_twisted_loop_once(monkeypatch):
    # the cube criterion and a hit's payoff read the same loop
    built = []
    monkeypatch.setattr(search, "build_gyro", lambda G: built.append(G) or build_gyro(G))
    monkeypatch.setattr(search, "subset_exponent", lambda G, S: 9)
    monkeypatch.setattr(search, "nine_identity", lambda G: (True, None))
    monkeypatch.setattr(search, "_cube_criterion", lambda G, C: (False, (0, 1)))
    assert evaluate_source("wreath33").status == "hit"
    assert len(built) == 1
