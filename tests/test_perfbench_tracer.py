"""The benchmark's tracer must still find every function it wraps.

perfbench/tracer.py looks its targets up by module and attribute name when
it installs; a renamed or removed target would otherwise fail only the
traced benchmark run.
"""

from pathlib import Path

import gyrolab.cli
from gyrolab import mappings

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_on_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import TARGETS, Tracer

    original = (mappings._mulclose, gyrolab.cli.main)
    tracer = Tracer()
    try:
        tracer.install()
        assert len(tracer._undo) >= len(TARGETS)
    finally:
        tracer.uninstall()
    assert (mappings._mulclose, gyrolab.cli.main) == original
