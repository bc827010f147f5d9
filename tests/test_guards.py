"""Guards run in a fresh interpreter: invariant guards raise GyrolabError
subclasses, so they hold under -O, and no CLI command imports numpy.ma.
A permutation file's table is read from base images, hashing no composite."""

import json
import os
import subprocess
import sys
from pathlib import Path

from gyrolab import perms
from gyrolab.fileio import parse_group_file

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
