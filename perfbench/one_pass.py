"""One pass of a workload in a fresh process: import gyrolab, write the
seeded inputs, run the workload's CLI operations back to back in process,
and print one JSON line with the timings, the peak RSS and each document's
hash and summary. run.py starts one of these per pass.

Usage (from the checkout root, with src on PYTHONPATH):
  python3 perfbench/one_pass.py --workload NAME --seed N --trace 0|1
                                --spawned-at EPOCH_SECONDS [--setup-only]
                                [--reference]

With --reference, the host-speed reference of reference.py runs once as an
untimed warm-up and is then timed before the first operation and after
each one.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

from golden import sha256, summarize
from workloads import WORKLOADS, write_inputs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--reference", action="store_true")
    args = ap.parse_args()

    import numpy
    import gyrolab.cli

    workload = WORKLOADS[args.workload]
    shutil.rmtree(workload.work_dir, ignore_errors=True)
    (workload.work_dir / "out").mkdir(parents=True)
    if workload.seeded:
        write_inputs(args.seed)
    setup_s = time.time() - args.spawned_at
    result = {"setup_s": setup_s, "numpy": numpy.__version__}
    if args.setup_only:
        shutil.rmtree(workload.work_dir, ignore_errors=True)
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    reference_s = []
    if args.reference:
        from reference import reference_seconds
        reference_seconds()
        reference_s.append(reference_seconds())

    ops = []
    wall = 0.0
    for op in workload.ops:
        chatter = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(chatter):
                code = gyrolab.cli.main(op.cli_argv())
        except SystemExit as exc:            # argparse rejects the arguments
            code = exc.code
        except Exception as exc:             # a crash fails this op, not the pass
            code = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        wall += dt
        rec = {"label": op.label, "exit": code, "seconds": dt, "sha256": None, "summary": None}
        doc = Path(op.out)
        if doc.is_file():
            data = doc.read_bytes()
            rec["sha256"] = sha256(data)
            try:
                rec["summary"] = summarize(op.kind, data)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                rec["summary"] = f"unreadable: {type(exc).__name__}: {exc}"
        ops.append(rec)
        if args.reference:
            reference_s.append(reference_seconds())

    if tracer is not None:
        tracer.uninstall()
        incl, self_s = tracer.totals()
        result["trace"] = {"incl": incl, "self": self_s, "counts": dict(tracer.counts),
                           "check_timing": dict(tracer.check_timing),
                           "spans": tracer.spans}

    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result.update(wall_s=wall, peak_rss_mb=rss_kb / 1024.0, ops=ops, reference_s=reference_s)
    shutil.rmtree(workload.work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
