"""Guards run in a fresh interpreter: invariant guards raise GyrolabError
subclasses, so they hold under -O, and no CLI command imports numpy.ma.
The package's source holds no assert statement, which -O would strip, and
reads or writes a memo only through groups._cached, whose shared arrays
are read-only.  Light's test is read only by the one associativity test
and the one group verdict, groups.is_group_table; groups is the only
module that names the verdict's cache key, and no scan skips rows by
np.unique.  The one
witness loop is groups.first_violation(n, slab).  The
commuting elements of each table and the nuclei of each loop are
computed once per verify and per analyze.
A permutation file's table is read from base images, hashing no composite.
The fused associator and nuclei scan runs once per verify, as its oracle,
and never in analyze; the loop-commutator bracket table is built once per
verify, and so are the central translations of its loop and of its group,
each verified on generators only; analyze verifies the loop's once, and
the gyration export, which reads the closed form, none.  Every public
routine has one name."""

import ast
import hashlib
from collections import Counter
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gyrolab
from gyrolab import (
    build_gyro,
    catalog_group,
    checks,
    cli,
    commutant,
    group_center,
    groups,
    gyration_table,
    gyro,
    invariants,
    loops,
    perms,
    subgroup_generated,
    subloop_generated,
    verify_suite,
)
from gyrolab.checks import SuiteContext
from gyrolab.cli import main
from gyrolab.loops import central_translations
from gyrolab.fileio import parse_group_file
from gyrolab.groups import group_translations

SRC = Path(__file__).resolve().parents[1] / "src"

PROGRAM = """
import numpy as np
from gyrolab import InvariantViolated
from gyrolab.groups import _inverse_array
from gyrolab.report import CheckReport

assert False, "asserts must be stripped in this interpreter"
try:
    CheckReport("some-check", "a statement", "fail")
except InvariantViolated as exc:
    print(exc)
# a Latin table with identity 0 whose right inverse of 2 is 3 but 3*2 = 1
table = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1],
                  [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]])
try:
    _inverse_array(table)
except InvariantViolated as exc:
    print(exc)
"""


def test_invariant_guards_survive_optimized_mode():
    out = subprocess.run([sys.executable, "-O", "-c", PROGRAM], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=60, check=True).stdout
    assert out.splitlines() == [
        "invariant violated: failing check some-check lacks a witness",
        "invariant violated: a right inverse is not a left inverse",
    ]


def test_package_has_no_assert_statement():
    # python -O strips assert statements, so the package states its
    # invariants as GyrolabError raises, which the test above runs under -O
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "gyrolab").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _stray_memo_uses(module: str, tree: ast.AST) -> list[int]:
    """Lines of the module that touch an attribute _cache anywhere but in
    groups._cached, a constructor's self._cache = {} and, in gyro, the
    "source" record that build_gyro writes and gyration_table reads."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def functions(node):
        while node in parents:
            node = parents[node]
            if isinstance(node, ast.FunctionDef):
                yield node.name

    def allowed(node):
        up = parents[node]
        if module == "groups" and "_cached" in functions(node):
            return True
        if isinstance(up, (ast.Assign, ast.AnnAssign)) and next(functions(node), None) == "__init__":
            return (isinstance(node.value, ast.Name) and node.value.id == "self"
                    and isinstance(up.value, ast.Dict) and not up.value.keys)
        if isinstance(up, ast.Attribute) and up.attr == "get":
            up = parents[up]
            key = up.args[0] if isinstance(up, ast.Call) and up.args else None
        else:
            key = up.slice if isinstance(up, ast.Subscript) else None
        return module == "gyro" and isinstance(key, ast.Constant) and key.value == "source"
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_cache" and not allowed(node)]


def test_every_memo_goes_through_cached():
    # one memo routine: a value kept on a group, a loop or a suite context
    # is stored, read-only, and raised again only by groups._cached
    found = [f"{path.name}:{line}"
             for path in sorted((SRC / "gyrolab").glob("*.py"))
             for line in _stray_memo_uses(path.stem, ast.parse(path.read_text()))]
    assert found == []


def test_one_associativity_test():
    # Light's test is read by the one associativity test and by the one
    # group verdict, both in groups, and imported nowhere; no function
    # skips repeated rows by np.unique over a void view of them
    light, row_skips, imports = [], [], []
    for path in sorted((SRC / "gyrolab").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.ImportFrom):
                imports += [path.stem for a in fn.names if a.name == "_light_associative"]
            if not isinstance(fn, ast.FunctionDef):
                continue
            names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(fn)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if "_light_associative" in names:
                light.append((path.stem, fn.name))
            if {"unique", "void"} <= names:
                row_skips.append((path.stem, fn.name))
    assert light == [("groups", "associativity_violation"), ("groups", "is_group_table")]
    assert imports == []
    assert row_skips == []


def test_one_module_names_the_group_verdict():
    # group_from_table writes the "is_group" key and is_group_table reads
    # it; every other module asks is_group_table
    found = [path.stem for path in sorted((SRC / "gyrolab").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and node.value == "is_group"]
    assert found == ["groups", "groups"]


def test_one_witness_loop():
    # groups.first_violation(n, slab) is the one witness loop: no module
    # defines or imports a multi-mask driver beside it, and no function
    # takes a visit list of outer indices
    found = []
    for path in sorted((SRC / "gyrolab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == "first_violations":
                found.append((path.stem, node.lineno, "defines"))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id == "first_violations":
                found.append((path.stem, node.lineno, "defines"))
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [(path.stem, node.lineno, "imports") for a in node.names
                          if "first_violations" in (a.name.split(".")[-1], a.asname)]
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                a = node.args
                found += [(path.stem, node.lineno, "visit")
                          for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                          if arg is not None and arg.arg == "visit"]
    assert found == []
    assert list(inspect.signature(groups.first_violation).parameters) == ["n", "slab"]


def test_shared_values_are_read_only():
    # every caller reads the one cached array, so none may write into it
    G = catalog_group("wreath33")
    ctx = SuiteContext(G)
    L = ctx.loop
    gt = gyration_table(L)
    shared = [G.commutator_table(), G.power_array(3), ctx.bracket, gt.ids, gt.perms,
              group_translations(G)[1], central_translations(L)[1],
              *loops._congruence(L, sorted(commutant(L)))]
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0


@pytest.mark.parametrize("run", ["verify", "analyze"])
def test_commuting_elements_and_nuclei_are_read_once_per_table(monkeypatch, tmp_path, run):
    # Z(G) and the commutant of each loop are one commuting scan each,
    # cached on the group or the loop, and each loop's nuclei are read off
    # its gyrations once: on wreath33 x C4, G, L and L/Z(L) of order 9
    calls, nuclei = Counter(), []
    commuting = groups._commuting

    def counted(table):
        calls[len(table), table.tobytes()] += 1
        return commuting(table)
    monkeypatch.setattr(groups, "_commuting", counted)
    monkeypatch.setattr(loops, "_commuting", counted)
    read = invariants.gyration_table
    monkeypatch.setattr(invariants, "gyration_table", lambda L: nuclei.append(L) or read(L))
    catalog_group.cache_clear()
    spec = "product:wreath33,cyclic:4"
    if run == "verify":
        assert all(r.status != "fail" for r in verify_suite(catalog_group(spec)))
    else:
        assert main(["analyze", "--group", spec, "--out", str(tmp_path / "doc")]) == 0
    assert sorted(n for n, _ in calls) == [9, 324, 324]
    assert set(calls.values()) == {1}
    assert sorted(L.order for L in nuclei) == [9, 324]
    assert len({id(L) for L in nuclei}) == 2


NO_MASKED_ARRAYS = """
import sys
from pathlib import Path
from gyrolab.cli import main

out = Path(sys.argv[1])
(out / "sources.txt").write_text("wreath33\\nheisenberg:3\\ndihedral:16\\n")
for argv in (["analyze", "--group", "dihedral:16"], ["verify", "--group", "dihedral:16"],
             ["search", "--inputs", str(out / "sources.txt"), "--jobs", "1"],
             ["export", "--group", "dihedral:16", "--what", "factor-set"],
             ["export", "--group", "wreath33", "--what", "gyration-table", "--format", "csv"]):
    main(argv + ["--out", str(out / "doc")])
print("numpy.ma" in sys.modules)
"""


def test_cli_never_imports_numpy_ma(tmp_path):
    # the first plain np.unique call imports numpy.ma, about 20 ms per process
    out = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS, str(tmp_path)],
                         env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=120, check=True).stdout
    assert out.splitlines()[-1] == "False"


def test_permutation_table_hashes_no_composite(tmp_path, monkeypatch, relabelled_regular):
    # the closure hashes (|gens| + 1) n rows at most; the table must hash none
    degree, gens = relabelled_regular("product:wreath33,cyclic:3")
    (tmp_path / "p243.json").write_text(json.dumps({"degree": degree, "generators": gens}))
    k = len(gens)
    hashed = []
    add = perms.RowIndex.add

    def counting_add(self, slab):
        hashed.append(len(slab))
        return add(self, slab)
    monkeypatch.setattr(perms.RowIndex, "add", counting_add)
    G = parse_group_file(tmp_path / "p243.json")
    assert G.order == 243
    assert 0 < sum(hashed) <= (k + 1) * G.order + k


def test_nuclei_scan_is_only_the_verify_oracle(monkeypatch, capsys):
    # the one x-loop that checks runs itself is the associator scan, which
    # also reduces the nuclei; only it reads the associator key
    golden = json.loads((SRC.parent / "perfbench" / "goldens.json").read_text())
    key = checks._associator_key
    calls = []

    def refused(T, cm, inv, cs):
        raise AssertionError("analyze ran the associator scan")
    monkeypatch.setattr(checks, "_associator_key", refused)
    assert main(["analyze", "--group", "wreath33"]) == 0
    assert (hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
            == golden["analyze-ladder"]["analyze-wreath33"]["sha256"])

    def counted(T, cm, inv, cs):
        calls.append(len(T))
        return key(T, cm, inv, cs)
    monkeypatch.setattr(checks, "_associator_key", counted)
    assert main(["verify", "--group", "wreath33"]) == 0
    assert calls == [81]


def test_bracket_table_is_built_once_per_verify(monkeypatch):
    # circ-commutator-formula and bracket-assoc-iff-ninth-power both read
    # SuiteContext.bracket; the calls are counted at every module that binds
    # the name
    build = invariants.commutator_bracket_table
    calls = []

    def counted(L):
        calls.append(L.order)
        return build(L)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gyrolab" and hasattr(module, "commutator_bracket_table"):
            monkeypatch.setattr(module, "commutator_bracket_table", counted)
    reports = verify_suite(catalog_group("wreath33"))
    ran = {r.check_id for r in reports if r.status != "skipped"}
    assert {"circ-commutator-formula", "bracket-assoc-iff-ninth-power"} <= ran
    assert calls == [81]


def _generators(candidates, generated):
    """The c of candidates, ascending, outside generated(the earlier kept
    ones): the candidates that the translation routine verifies, when each
    one it verifies passes."""
    kept = []
    for c in candidates:
        if c not in generated(kept):
            kept.append(c)
    return kept


def _loop_generators(G):
    """_generators of the c != e of the commutant of G's twisted loop, in
    the subloops they generate: every one of them passes on the ladder."""
    L = build_gyro(G).loop
    return _generators(sorted(commutant(L) - {0}), lambda kept: subloop_generated(L, kept))


def _watch_gathers(monkeypatch, watched):
    """Record (k, indices[0], axis) for each np.take with an intp index and
    an axis from table watched()[k], from here on.  A translation test
    gathers by the intp column rho = T[:, c], and rho[0] = c, as row 0 of a
    loop or a group is the identity."""
    take = np.take
    gathers = []

    def counted_take(a, indices, axis=None, out=None, mode="raise"):
        if axis is not None and getattr(indices, "dtype", None) == np.intp:
            gathers.extend((k, int(indices[0]), axis)
                           for k, t in enumerate(watched()) if a is t)
        return take(a, indices, axis=axis, out=out, mode=mode)
    monkeypatch.setattr(np, "take", counted_take)
    return gathers


def test_central_translations_are_verified_once_per_verify(monkeypatch):
    # the gyrations, Inn's L(x,y) and the associator scan read one set of
    # central translations, cached on the loop: (a) and (a') gather the
    # loop table once each per generator of the commutant, a candidate that
    # the kept ones do not already reach (3 of the 35 c != e here).  Every
    # loop the suite builds is watched
    G = catalog_group("product:wreath33,cyclic:4")
    build = checks.build_gyro
    built = []

    def counted_build(H):
        gc = build(H)
        built.append(gc.loop)
        return gc
    monkeypatch.setattr(checks, "build_gyro", counted_build)
    gathers = _watch_gathers(monkeypatch, lambda: [L.table for L in built])
    reports = verify_suite(G)
    ran = {r.check_id for r in reports if r.status != "skipped"}
    assert {"associator-formula", "commutant-normal-subloop", "nuclei-normal-subloops"} <= ran
    generators = _loop_generators(G)
    assert (len(commutant(build_gyro(G).loop)) - 1, len(generators)) == (35, 3)
    assert gathers == [(0, c, axis) for c in generators for axis in (0, 1)]


@pytest.mark.parametrize("argv", [["analyze"], ["export", "--what", "gyration-table",
                                                "--format", "csv"]])
def test_the_loop_key_is_verified_once_per_analyze_and_export(monkeypatch, tmp_path, argv):
    # inner_generators reads one verified key, cached on the loop: (a) and
    # (a') gather the loop table once each per generator of the commutant,
    # 3 of the 35 c != e here, in analyze.  The gyration export reads the
    # closed form, which labels its conjugators by the cosets of Z(G), and
    # verifies no key
    G = catalog_group("product:wreath33,cyclic:4")
    closed_form, closed = gyro._conjugation_family, []
    monkeypatch.setattr(gyro, "_conjugation_family",
                        lambda H: closed.append(H.order) or closed_form(H))
    build = gyro.build_gyro
    built = []

    def counted_build(H):
        gc = build(H)
        built.append(gc.loop)
        return gc
    monkeypatch.setattr(gyro, "build_gyro", counted_build)
    monkeypatch.setattr(cli, "build_gyro", counted_build)
    gathers = _watch_gathers(monkeypatch, lambda: [L.table for L in built])
    assert main(argv + ["--group", "product:wreath33,cyclic:4",
                        "--out", str(tmp_path / "doc")]) == 0
    assert len(built) == 1 and closed == [G.order]
    generators = _loop_generators(G) if argv[0] == "analyze" else []
    assert len(generators) == {"analyze": 3, "export": 0}[argv[0]]
    assert gathers == [(0, c, axis) for c in generators for axis in (0, 1)]


def test_group_translations_are_verified_once_per_group(monkeypatch):
    # only nine_identity, in bracket-assoc-iff-ninth-power, reads the group
    # key, cached on the group; the expansions read the group verdict.  (a)
    # and (a') gather the group table once each per generator of Z(G), and
    # no scan gathers it by an intp column.  The
    # catalog's builds are cleared, so that no earlier test has cached a key
    catalog_group.cache_clear()
    G = catalog_group("product:wreath33,cyclic:4")
    gathers = _watch_gathers(monkeypatch, lambda: [G.table])
    reports = verify_suite(G)
    ran = {r.check_id for r in reports if r.status != "skipped"}
    assert {"commutator-expansion-left", "commutator-expansion-right",
            "bracket-assoc-iff-ninth-power"} <= ran
    generators = _generators(sorted(group_center(G) - {0}),
                             lambda kept: subgroup_generated(G, kept))
    assert gathers == [(0, c, axis) for c in generators for axis in (0, 1)]


def test_cyclic_verify_verifies_one_candidate(monkeypatch, tmp_path):
    # cyclic:243: every element is central, and the generator 1 reaches all
    # of them, so the loop key and then the group key each verify 1 of 242
    catalog_group.cache_clear()
    watched = []
    build = checks.build_gyro

    def counted_build(H):
        gc = build(H)
        watched.extend([gc.source.table, gc.loop.table])
        return gc
    monkeypatch.setattr(checks, "build_gyro", counted_build)
    gathers = _watch_gathers(monkeypatch, lambda: watched)
    assert main(["verify", "--group", "cyclic:243", "--out", str(tmp_path / "doc")]) == 0
    assert gathers == [(k, 1, axis) for k in (1, 0) for axis in (0, 1)]


def test_every_public_routine_has_one_name():
    # an alias exported beside the routine it names would be a second
    # public name for one job
    aliases = [name for name in gyrolab.__all__
               if (inspect.isfunction(obj := getattr(gyrolab, name)) or inspect.isclass(obj))
               and obj.__name__ != name]
    assert aliases == []
