"""Invariant guards raise GyrolabError subclasses, so they hold under -O."""

import os
import subprocess
import sys
from pathlib import Path

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
