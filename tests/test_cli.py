import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

import gyrolab.checks as checks
import gyrolab.cli
from gyrolab.cli import main
from gyrolab.report import failed

GOLDENS = Path(__file__).resolve().parent.parent / "perfbench" / "goldens.json"


def test_catalog_listing(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "cyclic:n" in out
    assert "wreath33" in out


def test_analyze_cyclic4(capsys):
    assert main(["analyze", "--group", "cyclic:4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["loop_class"] == 1
    assert doc["inner_mapping_group_order"] == 1
    assert doc["gyro_axioms"]["status"] == "pass"
    assert doc["invariants"]["commutant"] == [0, 1, 2, 3]


def test_analyze_d16(capsys):
    assert main(["analyze", "--group", "dihedral:16"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["group_class"] == 3
    assert doc["loop_class"] == 3
    assert doc["inner_mapping_abelian"] is False
    assert doc["multiplication_group_order"] == 256
    assert doc["invariant_names"]["center"] == ["e", "r4"]


@pytest.mark.parametrize("label, spec", [("analyze-dihedral16", "dihedral:16"),
                                         ("analyze-wreath33", "wreath33"),
                                         ("analyze-heisenberg5", "heisenberg:5")])
def test_analyze_documents_match_benchmark_goldens(label, spec, capsys):
    # the benchmark's analyze-ladder goldens, read only: byte-identical documents
    expected = json.loads(GOLDENS.read_text())["analyze-ladder"][label]["sha256"]
    assert main(["analyze", "--group", spec]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == expected


@pytest.mark.parametrize("label, spec", [("verify-wreath33-cyclic4", "product:wreath33,cyclic:4"),
                                         ("verify-dihedral16-cyclic5", "product:dihedral:16,cyclic:5")])
def test_verify_documents_match_benchmark_goldens(label, spec, tmp_path):
    # the benchmark's verify-class3 goldens, read only: byte-identical documents
    golden = json.loads(GOLDENS.read_text())["verify-class3"][label]
    out = tmp_path / f"{label}.json"
    assert main(["verify", "--group", spec, "--out", str(out)]) == golden["exit"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == golden["sha256"]


@pytest.mark.parametrize("label", ["export-gyration-729", "export-factor-set-243"])
def test_file_exports_match_benchmark_goldens(label, tmp_path, monkeypatch):
    # the benchmark's files-roundtrip goldens, read only, on the seed-0 inputs
    # it writes: byte-identical exports of the relabelled 729 and 243 tables
    monkeypatch.syspath_prepend(str(GOLDENS.parent))
    from workloads import WORKLOADS, write_inputs

    golden = json.loads(GOLDENS.read_text())["files-roundtrip"][label]
    monkeypatch.chdir(tmp_path)
    write_inputs(0)
    op = next(op for op in WORKLOADS["files-roundtrip"].ops if op.label == label)
    out = Path(op.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    assert main(op.cli_argv()) == golden["exit"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == golden["sha256"]


def test_analyze_refuses_mlt_not_loop_order_times_inn(monkeypatch, capsys):
    # Inn from a dropped generator set is too small for |Mlt| = |L| * |Inn|
    real = gyrolab.cli.inner_mapping_group

    def one_generator(L):
        inn = real(L)
        return dataclasses.replace(inn, generators=inn.generators[:1], labels=inn.labels[:1])

    monkeypatch.setattr(gyrolab.cli, "inner_mapping_group", one_generator)
    assert main(["analyze", "--group", "dihedral:16"]) == 2
    err = capsys.readouterr().err
    assert "invariant violated" in err and "|Mlt| = 256" in err


def test_verify_exit_zero_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--group", "dihedral:16", "--out", str(out1)]) == 0
    assert main(["verify", "--group", "dihedral:16", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["summary"]["fail"] == 0


def test_verify_selection(capsys):
    assert main(["verify", "--group", "cyclic:9",
                 "--checks", "gyro-axioms,commutant-subloop"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [c["check_id"] for c in doc["checks"]] == ["gyro-axioms", "commutant-subloop"]


def test_verify_exit_one_on_failure(monkeypatch, capsys):
    # swap one check's runner for an unconditional failure to exercise the
    # exit-code path (no honest input makes the suite fail)
    cid, short, gate, _run = checks.CHECKS[2]
    patched = list(checks.CHECKS)
    patched[2] = (cid, short, gate,
                  lambda ctx: failed(cid, "forced failure", witness=(0,)))
    monkeypatch.setattr(checks, "CHECKS", patched)
    assert main(["verify", "--group", "cyclic:2"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["fail"] == 1


def test_verify_unknown_check_is_usage_error(capsys):
    assert main(["verify", "--group", "cyclic:2", "--checks", "bogus"]) == 2
    assert "unknown check ids" in capsys.readouterr().err


def test_unknown_group_spec(capsys):
    assert main(["analyze", "--group", "nope:1"]) == 2
    assert "error" in capsys.readouterr().err


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["verify"])               # missing --group
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_export_to_file(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["export", "--group", "dihedral:8", "--what", "circ-table",
                 "--format", "csv", "--out", str(out)]) == 0
    rows = out.read_text().strip().split("\n")
    assert len(rows) == 8


def test_search_list_file(tmp_path, capsys):
    lst = tmp_path / "specs.txt"
    lst.write_text("wreath33\ndihedral:16\n")
    assert main(["search", "--inputs", str(lst)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scanned"] == 2
    assert doc["hits"] == 0


def test_search_directory(tmp_path, capsys):
    from gyrolab import catalog_group, write_group_file
    write_group_file(catalog_group("cyclic:3"), tmp_path / "c3.json")
    write_group_file(catalog_group("cyclic:4"), tmp_path / "c4.json")
    assert main(["search", "--inputs", str(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scanned"] == 2
    assert {r["status"] for r in doc["records"]} == {"skipped"}


def test_search_deterministic_with_jobs(tmp_path):
    lst = tmp_path / "specs.txt"
    lst.write_text("cyclic:27\nwreath33\ncyclic:9\n" * 4)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["search", "--inputs", str(lst), "--jobs", "2", "--out", str(a)]) == 0
    assert main(["search", "--inputs", str(lst), "--jobs", "1", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "gyrolab" in capsys.readouterr().out
