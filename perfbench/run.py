"""gyrolab benchmark: end-to-end and per-layer timings of the CLI.

Usage, from the root of a checkout:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --write-goldens

Each pass of a workload runs in a fresh process (one_pass.py), which
imports gyrolab from ./src and calls gyrolab.cli.main once per operation,
back to back. Passes repeat, one at a time, while the next one is expected
to end within --seconds; at least one pass always runs, and at least two
when --trace is 0.

--trace 0 reports the end-to-end metrics. Its passes also time the
host-speed reference of reference.py around each operation: wall_s
scales each operation's wall time by the reference's nominal time over
the mean of its times just before and after the operation, sums over the
pass and takes the median over passes, which takes the shared host's
speed drift out; setup_s is scaled by the run's mean reference time.

--trace 1 runs each pass twice, untraced and then traced, and reports the
per-layer metrics of the traced passes; their documents must be
byte-identical to the untraced ones.

The last stdout line is the result object; the line before it holds the
environment, the sample counts and per-operation medians. A traced run
also writes its spans to .perfbench_work/trace-<workload>-seed<N>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from golden import DEFAULT_SEED, GOLDEN_PATH, load_goldens, op_ok
from reference import NOMINAL_S
from workloads import WORK_ROOT, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RUN_LIMIT_S = 170.0          # a run must end within 180 s
SETUP_SAMPLES = 9

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB", "ok_ratio": "ratio"}

# Listed here rather than read from gyrolab, so that the per-layer metric
# names stay the ones BENCHMARK.json declares.
CHECK_IDS = (
    "twisted-table-is-loop", "gyro-axioms", "commutant-subloop", "commutant-normal-subloop",
    "char-left-nucleus", "char-middle-nucleus", "char-right-nucleus", "char-commutant",
    "nuclei-subgroups-of-group", "nuclei-normal-in-group", "nuclei-class-at-most-2",
    "nuclei-induced-op-associative", "nuclei-normal-subloops", "middle-nucleus-equals-right",
    "middle-nucleus-in-left", "commutator-expansion-left", "commutator-expansion-right",
    "commutant-element-identities", "commutant-cubes-central", "loop-center-intersection",
    "commutant-equals-group-center", "quotient-by-commutant-group",
    "quotient-by-commutant-matches-gyro-of-quotient", "class2-equivalence",
    "class3-equivalence", "class2-criterion", "two-engel-implies-class2",
    "exponent3-implies-class2", "circ-commutator-formula", "associator-formula",
    "associators-central", "quotient-by-nucleus-abelian-group", "quotient-by-center-group",
    "bracket-assoc-iff-ninth-power", "bracket-not-associative",
    "inner-mapping-group-not-abelian", "cocycle-reconstruction",
)

PER_LAYER = {
    "mappings.inner_mapping_group.s": "s",
    "mappings.multiplication_group.s": "s",
    "mappings.PermGroup.order.s": "s",
    "mappings.is_inner_abelian.self_s": "s",
    "mappings.inner_generators.count": "count",
    "mappings.inner_generators.distinct_ratio": "ratio",
    "mappings.closure_elements": "count",
    "checks.verify_suite.self_s": "s",
    **{f"checks.{cid}.s": "s" for cid in CHECK_IDS},
    "checks.status.pass": "count",
    "checks.status.fail": "count",
    "checks.status.skipped": "count",
    "gyro.build_gyro.self_s": "s",
    "gyro.gyration_table.s": "s",
    "gyro.gyration_table.distinct_ratio": "ratio",
    "gyro.is_gyrogroup.self_s": "s",
    "groups.group_from_table.self_s": "s",
    "groups.group_from_permutations.s": "s",
    "groups.nilpotency_class.s": "s",
    "fileio.parse_group_file.self_s": "s",
    "fileio.export_text.self_s": "s",
    "fileio.dumps_json.s": "s",
    "fileio.bytes_out": "bytes",
    "search.search_scan.s": "s",
    "search.source_s.sum": "s",
    "search.pool_efficiency": "ratio",
    "search.records.hit": "count",
    "search.records.miss": "count",
    "search.records.skipped": "count",
    "search.records.error": "count",
    "loops.loop_from_table.s": "s",
    "loops.quotient_loop.s": "s",
    "invariants.nucleus.s": "s",
    "invariants.invariant_bundle.self_s": "s",
    "invariants.loop_nilpotency_class.s": "s",
    "cocycle.factor_set.s": "s",
    "cocycle.gyro_factor_set.s": "s",
    "catalog.catalog_group.s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# passes

def run_pass(workload: str, seed: int, trace: int, deadline: float,
             setup_only: bool = False, index: int = 0) -> dict:
    """Run one_pass.py in a fresh process and return its result object.
    Pass `index` of every run gets the same string-hash seed, so set and
    dict orders, and with them the timings, vary alike on all commits."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # the load model has one busy thread per process
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", PYTHONHASHSEED=str(index + 1))
    cmd = [sys.executable, str(Path("perfbench") / "one_pass.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    elif not trace:
        cmd.append("--reference")
    cmd += ["--spawned-at", repr(time.time())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} pass did not finish within the run limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited with {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, trace: int, seconds: float,
               deadline: float) -> list[list[dict]]:
    """Groups of passes (one untraced, plus one traced if trace), repeated
    while the next group is expected to end within `seconds`; an untraced
    run makes at least two, so that wall_s is never one pass's."""
    min_groups = 1 if trace else 2
    groups: list[list[dict]] = []
    start = time.monotonic()
    while True:
        index = len(groups)
        group = [run_pass(workload, seed, 0, deadline, index=index)]
        if trace:
            group.append(run_pass(workload, seed, 1, deadline, index=index))
        groups.append(group)
        elapsed = time.monotonic() - start
        if len(groups) >= min_groups and elapsed * (len(groups) + 1) / len(groups) > seconds:
            return groups


# ---------------------------------------------------------------------------
# metrics

def layer_metrics(t: dict) -> dict:
    incl, self_s, counts = t["incl"], t["self"], t["counts"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = self_s.get(name[:-len(".self_s")], 0.0)
        elif name.startswith("checks.") and name[len("checks."):-2] in CHECK_IDS:
            out[name] = t["check_timing"].get(name[len("checks."):-2], 0.0)
        elif name.endswith(".s"):
            out[name] = incl.get(name[:-2], 0.0)
        else:
            out[name] = counts.get(name, 0.0)
    out["mappings.inner_generators.distinct_ratio"] = ratio(
        counts.get("mappings.inner_generators.distinct", 0.0),
        counts.get("mappings.inner_generators.count", 0.0))
    out["gyro.gyration_table.distinct_ratio"] = ratio(
        counts.get("gyro.gyration_table.distinct", 0.0),
        counts.get("gyro.gyration_table.cells", 0.0))
    out["search.pool_efficiency"] = ratio(
        counts.get("search.source_s.sum", 0.0),
        incl.get("search.search_scan", 0.0) * counts.get("search.jobs", 1.0))
    return out


def normalized_wall(p: dict) -> float:
    """The pass's operation times, each scaled by NOMINAL_S over the mean
    of the reference times measured just before and just after it."""
    ref = p["reference_s"]
    return sum(op["seconds"] * NOMINAL_S * 2 / (ref[i] + ref[i + 1])
               for i, op in enumerate(p["ops"]))


def commit_id() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-goldens", action="store_true",
                    help="record the documents of the current code as the goldens")
    args = ap.parse_args()

    if not (ROOT / "src" / "gyrolab" / "cli.py").is_file():
        print(f"error: no gyrolab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.write_goldens and args.workload is None:
        ap.error("--workload is required")
    try:
        if args.write_goldens:
            write_goldens()
            return 0
        return bench(args, time.monotonic() + RUN_LIMIT_S)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def bench(args, deadline: float) -> int:
    workload = WORKLOADS[args.workload]
    goldens = load_goldens()[workload.name]
    check_hash = not workload.seeded or args.seed == DEFAULT_SEED

    groups = run_passes(workload.name, args.seed, args.trace, args.seconds, deadline)
    plain = [g[0] for g in groups]
    attempted = failed = 0
    for group in groups:
        for p in group:
            for op in p["ops"]:
                attempted += 1
                failed += not op_ok(goldens.get(op["label"]), op, check_hash)
        if args.trace:   # tracing must not change a byte of any document
            failed += sum(a["sha256"] != b["sha256"]
                          for a, b in zip(group[0]["ops"], group[1]["ops"]))

    median = statistics.median
    samples: dict[str, int] = {}
    if args.trace:
        traced = [g[1] for g in groups]
        per_pass = [layer_metrics(p["trace"]) for p in traced]
        values = {k: median(m[k] for m in per_pass) for k in PER_LAYER}
        values["trace.overhead_ratio"] = (median(p["wall_s"] for p in traced)
                                          / median(p["wall_s"] for p in plain))
        units = PER_LAYER
        samples["traced_passes"] = len(traced)
        trace_file = ROOT / WORK_ROOT / f"trace-{workload.name}-seed{args.seed}.json"
        trace_file.parent.mkdir(exist_ok=True)
        trace_file.write_text(json.dumps(
            {"workload": workload.name, "seed": args.seed,
             "passes": [p["trace"] for p in traced]}))
    else:
        setups = [p["setup_s"] for p in plain]
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_pass(workload.name, args.seed, 0, deadline,
                                   setup_only=True, index=len(setups))["setup_s"])
        ok = attempted - failed
        # set-up is scaled like wall_s, by the run's mean reference time
        host_speed = NOMINAL_S / statistics.mean(r for p in plain for r in p["reference_s"])
        values = {"setup_s": median(setups) * host_speed,
                  "wall_s": median(normalized_wall(p) for p in plain),
                  "peak_rss_mb": median(p["peak_rss_mb"] for p in plain),
                  "ok_ratio": ok / attempted}
        units = END_TO_END
        samples.update(setup_s=len(setups), wall_s=len(plain), peak_rss_mb=len(plain),
                       ok_ratio=attempted)

    env = {"python": sys.version.split()[0], "numpy": plain[0]["numpy"],
           "nproc": os.cpu_count(), "commit": commit_id(), "seed": args.seed,
           "workload": workload.name, "trace": args.trace}
    op_seconds = {op["label"]: median(p["ops"][i]["seconds"] for p in plain)
                  for i, op in enumerate(plain[0]["ops"])}
    info = {"env": env, "samples": samples, "op_seconds_median": op_seconds,
            "unscaled_wall_s_median": median(p["wall_s"] for p in plain),
            "unscaled_wall_s_passes": [p["wall_s"] for p in plain]}
    if not args.trace:
        info["unscaled_setup_s_median"] = median(setups)
        info["reference_s_passes"] = [p["reference_s"] for p in plain]
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


def write_goldens() -> None:
    """Record each operation's exit code, document hash (DEFAULT_SEED) and
    summary; a second seed must give the same summaries."""
    goldens = {}
    for name in WORKLOADS:
        first = run_pass(name, DEFAULT_SEED, 0, time.monotonic() + RUN_LIMIT_S)
        second = run_pass(name, DEFAULT_SEED + 1, 0, time.monotonic() + RUN_LIMIT_S)
        records = {}
        for a, b in zip(first["ops"], second["ops"]):
            if (a["exit"], a["summary"]) != (b["exit"], b["summary"]):
                raise BenchError(f"{name}/{a['label']}: summary depends on the seed")
            records[a["label"]] = {"exit": a["exit"], "sha256": a["sha256"],
                                   "summary": a["summary"]}
        goldens[name] = records
        print(f"{name}: {len(records)} operations recorded", file=sys.stderr)
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
