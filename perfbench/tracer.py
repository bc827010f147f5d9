"""In-memory span tracer wrapped around gyrolab's public functions.

Each traced function is replaced at every gyrolab module that binds it
(`cli`, `search` and `checks` import with `from .x import f`, so patching
only the defining module would miss their calls). A span stack gives each
call its self time. Spans stay in memory; the caller writes them out when
the run ends. Nothing is installed unless `Tracer.install` is called.

Search workers are forked from the traced process and inherit the
wrappers, but their spans stay in the worker; the per-source times come
from `SearchRecord.elapsed` instead.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (module, attribute) under gyrolab; "Class.method" patches the class.
TARGETS = (
    ("cli", "main"),
    ("catalog", "catalog_group"),
    ("fileio", "parse_group_file"), ("fileio", "export_text"), ("fileio", "dumps_json"),
    ("groups", "group_from_table"), ("groups", "group_from_permutations"),
    ("groups", "nilpotency_class"),
    ("loops", "loop_from_table"), ("loops", "quotient_loop"),
    ("gyro", "build_gyro"), ("gyro", "gyration_table"), ("gyro", "is_gyrogroup"),
    ("invariants", "nucleus"), ("invariants", "invariant_bundle"),
    ("invariants", "loop_nilpotency_class"),
    ("mappings", "inner_generators"), ("mappings", "inner_mapping_group"),
    ("mappings", "multiplication_group"), ("mappings", "is_inner_abelian"),
    ("mappings", "PermGroup.order"), ("mappings", "_mulclose"),
    ("cocycle", "factor_set"), ("cocycle", "gyro_factor_set"),
    ("checks", "verify_suite"),
    ("search", "search_scan"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.check_timing: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        observe = getattr(self, "_on_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "name": name,
                    "parent": stack[-1]["id"] if stack else None,
                    "nested": any(s["name"] == name for s in stack),
                    "start": time.perf_counter(), "child_s": 0.0}
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1]["child_s"] += span["end"] - span["start"]
            if observe is not None:
                observe(result, args, kwargs)
            return result
        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "gyrolab" or k.startswith("gyrolab."))]
        for modname, attr in TARGETS:
            module = importlib.import_module(f"gyrolab.{modname}")
            name = f"{modname}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- counts taken from return values -------------------------------------

    def _outermost_fileio(self) -> bool:
        return not any(s["name"].startswith("fileio.") for s in self.stack)

    def _on_fileio_dumps_json(self, text, args, kwargs):
        if self._outermost_fileio():
            self.counts["fileio.bytes_out"] += len(text.encode())

    _on_fileio_export_text = _on_fileio_dumps_json

    def _on_mappings_inner_generators(self, result, args, kwargs):
        perms = result[0]
        self.counts["mappings.inner_generators.count"] += len(perms)
        self.counts["mappings.inner_generators.distinct"] += len({p.tobytes() for p in perms})

    def _on_mappings__mulclose(self, result, args, kwargs):
        self.counts["mappings.closure_elements"] += len(result)

    def _on_gyro_gyration_table(self, gt, args, kwargs):
        self.counts["gyro.gyration_table.cells"] += gt.ids.size
        self.counts["gyro.gyration_table.distinct"] += len(gt.perms)

    def _on_checks_verify_suite(self, reports, args, kwargs):
        for r in reports:
            self.check_timing[r.check_id] += r.timing or 0.0
            self.counts[f"checks.status.{r.status}"] += 1

    def _on_search_search_scan(self, summary, args, kwargs):
        self.counts["search.jobs"] = max(1, kwargs.get("jobs", args[1] if len(args) > 1 else 1))
        for r in summary.records:
            self.counts["search.source_s.sum"] += r.elapsed
            self.counts[f"search.records.{r.status}"] += 1

    # -- reduction -----------------------------------------------------------

    def totals(self) -> tuple[dict, dict]:
        """(inclusive seconds, self seconds) per span name. A call made while
        the same name is already on the stack adds no inclusive time."""
        incl: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for s in self.spans:
            dur = s["end"] - s["start"]
            if not s["nested"]:
                incl[s["name"]] += dur
            self_s[s["name"]] += dur - s["child_s"]
        return incl, self_s
