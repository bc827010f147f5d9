import hashlib
import json
import warnings
from collections import Counter
from pathlib import Path

import pytest

from gyrolab import (
    SuiteContext,
    WrongClass,
    catalog_group,
    charset_commutant,
    charset_left_nucleus,
    charset_middle_nucleus,
    charset_right_nucleus,
    class2_criterion,
    commutant,
    build_gyro,
    nine_identity,
    loop_nilpotency_class,
    nucleus,
    subloop_generated,
    suite_check_ids,
    summarize,
    verify_suite,
)
from gyrolab import checks
from gyrolab.checks import R_CLASS, R_CLASS3, R_THREE
from gyrolab.cli import main
from gyrolab.errors import NotASubloop
from gyrolab.groups import group_from_permutations
from gyrolab.loops import normal_subloop_violation, subloop_witness


def test_check_ids_are_stable():
    ids = suite_check_ids()
    assert len(ids) == len(set(ids))
    for expected in (
        "gyro-axioms",
        "commutant-subloop",
        "char-left-nucleus",
        "middle-nucleus-equals-right",
        "commutant-cubes-central",
        "quotient-by-commutant-matches-gyro-of-quotient",
        "class2-criterion",
        "circ-commutator-formula",
        "associator-formula",
        "bracket-assoc-iff-ninth-power",
        "inner-mapping-group-not-abelian",
        "cocycle-reconstruction",
    ):
        assert expected in ids


def test_full_suite_dihedral16(d16):
    reports = verify_suite(d16)
    assert summarize(reports)["fail"] == 0
    skipped = {r.check_id for r in reports if r.status == "skipped"}
    assert skipped == {"two-engel-implies-class2", "exponent3-implies-class2"}


def test_full_suite_wreath33():
    reports = verify_suite(catalog_group("wreath33"))
    assert summarize(reports)["fail"] == 0
    # order 81: every coprime-to-3 hypothesis is out of range
    reasons = {r.check_id: r.reason for r in reports if r.status == "skipped"}
    assert reasons["commutant-equals-group-center"] == R_THREE
    assert reasons["bracket-not-associative"] == R_THREE


def test_suite_selection(d16):
    reports = verify_suite(d16, ["gyro-axioms", "char-commutant"])
    assert [r.check_id for r in reports] == ["gyro-axioms", "char-commutant"]
    assert all(r.status == "pass" for r in reports)


def test_suite_rejects_unknown_id(d16):
    with pytest.raises(ValueError):
        verify_suite(d16, ["gyro-axioms", "no-such-check"])


def test_gate_reasons_class2_group():
    reports = verify_suite(catalog_group("dihedral:8"))
    by_id = {r.check_id: r for r in reports}
    assert by_id["class2-criterion"].status == "skipped"
    assert by_id["class2-criterion"].reason == R_CLASS3
    assert by_id["bracket-not-associative"].reason == R_CLASS3
    assert by_id["class2-equivalence"].status == "pass"


def test_everything_skipped_for_non_nilpotent():
    S3 = group_from_permutations(3, [[1, 2, 0], [1, 0, 2]])
    reports = verify_suite(S3)
    assert all(r.status == "skipped" for r in reports)
    assert all(r.reason == R_CLASS for r in reports)


def test_class2_criterion_values(d16):
    assert class2_criterion(d16) == (False, (1, 8))
    with pytest.raises(WrongClass):
        class2_criterion(catalog_group("dihedral:8"))
    with pytest.raises(WrongClass):
        class2_criterion(catalog_group("cyclic:3"))
    # class-3 3-group whose loop is class 2: all commutator cubes stay inside
    assert class2_criterion(catalog_group("wreath33")) == (True, None)


def test_nine_identity_values(d16):
    assert nine_identity(d16) == (False, (1, 8, 8))
    assert nine_identity(catalog_group("heisenberg:3")) == (True, None)
    assert nine_identity(catalog_group("cyclic:8")) == (True, None)


def test_charsets_match_brute_force():
    for spec in ("semidihedral:16", "heisenberg:3"):
        G = catalog_group(spec)
        L = build_gyro(G).loop
        assert charset_left_nucleus(G) == nucleus(L, "left")
        assert charset_middle_nucleus(G) == nucleus(L, "middle")
        assert charset_right_nucleus(G) == nucleus(L, "right")
        assert charset_commutant(G) == commutant(L)


def test_witness_names_attached(d16):
    # force a failing check by running the suite on a doctored context is
    # overkill; instead check that pass reports carry no witness and that the
    # context can name arbitrary tuples
    ctx = SuiteContext(d16)
    assert ctx.names_for((0, 4, "left")) == ("e", "r4", "left")


def test_suite_reports_have_timing(d16):
    reports = verify_suite(d16, ["char-commutant"])
    assert reports[0].timing is not None
    assert "timing" not in reports[0].to_dict()


# ---------------------------------------------------------------------------
# set-level results computed once per distinct set

GOLDENS = Path(__file__).resolve().parent.parent / "perfbench" / "goldens.json"


def _count_calls(monkeypatch, name):
    """Wrap checks.<name>(loop, S) so that its calls are counted per set."""
    calls = Counter()
    inner = getattr(checks, name)

    def counted(L, S, *args, **kwargs):
        calls[frozenset(S)] += 1
        return inner(L, S, *args, **kwargs)
    monkeypatch.setattr(checks, name, counted)
    return calls


def test_suite_tests_each_distinct_set_once(monkeypatch, tmp_path):
    # wreath33 x C4: the nuclei are two distinct sets, of 108 and 36
    # elements, and the commutant and the loop center are that same
    # 36-element set; each used to be tested once per kind
    normal = _count_calls(monkeypatch, "normal_subloop_violation")
    quotient = _count_calls(monkeypatch, "quotient_loop")
    label = "verify-wreath33-cyclic4"
    golden = json.loads(GOLDENS.read_text())["verify-class3"][label]
    out = tmp_path / "verify.json"
    assert main(["verify", "--group", "product:wreath33,cyclic:4", "--out", str(out)]) == golden["exit"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == golden["sha256"]
    assert sorted(map(len, normal)) == [36, 108]
    assert set(normal.values()) == {1}
    assert list(map(len, quotient)) == [36] and set(quotient.values()) == {1}


def test_per_kind_checks_keep_their_kind_order(monkeypatch, d16):
    # left is normal; middle and right are one non-normal subloop, so the
    # witness is tagged with the first failing kind and the set is tested once
    L = build_gyro(d16).loop
    S = frozenset({0, 8})
    w = normal_subloop_violation(L, S)
    assert w is not None and normal_subloop_violation(L, commutant(L)) is None
    sets = {"left": commutant(L), "middle": S, "right": frozenset(S), "full": S}
    monkeypatch.setattr(SuiteContext, "nuc", lambda self, kind: sets[kind])
    calls = _count_calls(monkeypatch, "normal_subloop_violation")
    ctx = SuiteContext(d16)
    for _ in range(2):
        rep = checks._check_nuclei_normal_subloops(ctx)
        assert rep.status == "fail" and rep.witness == ("middle",) + w
    assert calls == {commutant(L): 1, S: 1}


def test_memo_keeps_a_raised_outcome(monkeypatch, d16):
    # {0, 1} does not close in the twisted loop: the suite reports the same
    # NotASubloop witness each time and tests the set once
    L = build_gyro(d16).loop
    S = frozenset({0, 1})
    assert subloop_generated(L, S) != S
    calls = _count_calls(monkeypatch, "quotient_loop")
    ctx = SuiteContext(d16)
    witnesses = []
    for _ in range(3):
        with pytest.raises(NotASubloop) as exc:
            ctx.quotient_associativity(S)
        witnesses.append(exc.value.witness)
    assert witnesses == [subloop_witness(L, S)] * 3
    assert calls == {S: 1}


@pytest.mark.parametrize("spec", ["dihedral:16", "wreath33", "heisenberg:5",
                                  "product:dihedral:16,cyclic:5", "dihedral:32"])
def test_public_class_functions_match_the_suite(spec):
    G = catalog_group(spec)
    ctx = SuiteContext(G)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")            # dihedral:32 has class 4
        assert loop_nilpotency_class(build_gyro(G).loop) == ctx.loop_class
    rep, = verify_suite(G, ["class2-criterion"])
    if ctx.cls != 3:
        with pytest.raises(WrongClass):
            class2_criterion(G)
        assert rep.status == "skipped"
        return
    crit, w = class2_criterion(G)
    assert rep.details == {"criterion": crit, "loop_class": ctx.loop_class}
    assert checks._cube_criterion(G, ctx.com) == (crit, w)
