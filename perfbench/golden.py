"""Golden outputs: what each operation's document must say.

Every operation is checked on its exit code and on a summary of its
document that does not change when the seeded relabelling does: statuses,
check ids and skip reasons, group orders and classes, set sizes and
element-name sets. The sha256 of the whole document is checked as well
when it cannot depend on the seed (the workload is not seeded, or the run
uses DEFAULT_SEED).
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

DEFAULT_SEED = 0
GOLDEN_PATH = Path(__file__).with_name("goldens.json")


def _analyze(doc: dict) -> dict:
    keys = ("group_class", "is_right_loop", "is_loop", "loop_class",
            "inner_mapping_abelian", "multiplication_group_order",
            "inner_mapping_group_order")
    out = {k: doc.get(k) for k in keys}
    out["order"] = doc["group"]["order"]
    out["invariant_names"] = {k: sorted(v) for k, v in doc.get("invariant_names", {}).items()}
    out["gyro_axioms"] = doc.get("gyro_axioms", {}).get("status")
    return out


def _verify(doc: dict) -> dict:
    return {
        "order": doc["group"]["order"],
        "checks": [[c["check_id"], c["status"], c["reason"]] for c in doc["checks"]],
        "summary": doc["summary"],
    }


def _search(doc: dict) -> dict:
    def record(r: dict) -> list:
        # an error's message quotes a seed-dependent witness; its type does not
        reason = r["reason"].split(":")[0] if r["status"] == "error" else r["reason"]
        return [r["name"], r["order"], r["status"], reason, r["group_class"],
                r["conditions"], r["payoff"]]
    out = {k: doc[k] for k in ("scanned", "hits", "misses", "skipped", "errors",
                               "condition_counts")}
    out["records"] = [record(r) for r in doc["records"]]
    return out


def _gyration_csv(text: str) -> dict:
    rows = [line.split(",") for line in text.splitlines()]
    sizes = Counter(v for row in rows for v in row)
    return {"shape": [len(rows), len(rows[0]) if rows else 0],
            "distinct": len(sizes),
            "class_sizes": sorted(sizes.values())}


def _factor_set(doc: dict) -> dict:
    return {
        "order": doc["group"]["order"],
        "center_names": sorted(doc["center_names"]),
        "quotient_order": doc["quotient_order"],
        "reps": len(doc["reps"]),
        "plain_shape": [len(doc["plain"]), len(doc["plain"][0])],
        "twisted_shape": [len(doc["twisted"]), len(doc["twisted"][0])],
    }


_JSON_SUMMARIES = {"analyze": _analyze, "verify": _verify, "search": _search,
                   "factor-set": _factor_set}


def summarize(kind: str, data: bytes) -> dict:
    """The relabelling-invariant summary of one document."""
    text = data.decode()
    if kind == "gyration-csv":
        return _gyration_csv(text)
    return _JSON_SUMMARIES[kind](json.loads(text))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_goldens() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def op_ok(golden: dict | None, result: dict, check_hash: bool) -> bool:
    """Whether one operation's exit code and document match its golden."""
    return (golden is not None
            and result["exit"] == golden["exit"]
            and result["summary"] == golden["summary"]
            and (not check_hash or result["sha256"] == golden["sha256"]))
