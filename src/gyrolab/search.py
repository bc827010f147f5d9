"""Catalog scan for class-3 3-groups whose twisted loop could have an
abelian inner mapping group.

Three conditions are evaluated per group:

  c1  "cube-outside-commutant":   some [x,y]^3 falls outside the commutant
  c2  "derived-exponent-not-3":   the derived subgroup has exponent != 3
  c3  "nine-power-identity":      [[x,y],z]^9 == [x,[y,z]]^9 for all triples

A hit is c1 and c2 and c3.  c3 is the expensive cubic scan, so it is only
evaluated once c1 and c2 both hold; otherwise it is recorded as null.  A hit
additionally triggers the payoff measurements (inner mapping group
commutativity and loop nilpotency class).  Groups that are not 3-groups of
class 3 are skipped with a stable reason; per-group errors are quarantined
into the summary and the scan continues.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

from .checks import _cube_criterion, nine_identity
from .groups import derived_subgroup, nilpotency_class, subset_exponent
from .gyro import build_gyro
from .invariants import commutant, loop_nilpotency_class
from .mappings import is_inner_abelian

SKIP_NOT_3_GROUP = "not-a-3-group"
SKIP_CLASS = "group-class-not-3"
SKIP_ORDER = "order-above-max"

COND_CUBES = "cube-outside-commutant"
COND_EXP = "derived-exponent-not-3"
COND_NINE = "nine-power-identity"


@dataclass
class SearchRecord:
    source: str
    name: str = ""
    order: int | None = None
    status: str = "error"            # hit | miss | skipped | error
    reason: str | None = None
    group_class: int | None = None
    conditions: dict | None = None   # condition name -> bool | None
    witnesses: dict | None = None    # condition name -> list of element indices
    payoff: dict | None = None       # hits only
    elapsed: float = 0.0             # not serialized

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "name": self.name,
            "order": self.order,
            "status": self.status,
            "reason": self.reason,
            "group_class": self.group_class,
            "conditions": self.conditions,
            "witnesses": self.witnesses,
            "payoff": self.payoff,
        }


@dataclass
class SearchSummary:
    records: list[SearchRecord] = field(default_factory=list)

    @property
    def scanned(self) -> int:
        return len(self.records)

    def count(self, status: str) -> int:
        return sum(1 for r in self.records if r.status == status)

    def condition_counts(self) -> dict:
        out = {COND_CUBES: 0, COND_EXP: 0, COND_NINE: 0}
        for r in self.records:
            for key, val in (r.conditions or {}).items():
                if val is True:
                    out[key] += 1
        return out

    def to_dict(self) -> dict:
        return {
            "scanned": self.scanned,
            "hits": self.count("hit"),
            "misses": self.count("miss"),
            "skipped": self.count("skipped"),
            "errors": self.count("error"),
            "condition_counts": self.condition_counts(),
            "records": [r.to_dict() for r in self.records],
        }


def _is_power_of_3(n: int) -> bool:
    while n % 3 == 0:
        n //= 3
    return n == 1


def evaluate_source(source: str, max_order: int | None = None) -> SearchRecord:
    """Resolve one group spec (catalog spec or file:PATH) and evaluate it."""
    from .fileio import resolve_group   # deferred: fileio imports nothing from here

    t0 = time.perf_counter()
    rec = SearchRecord(source=source)
    try:
        G = resolve_group(source)
        rec.name = G.name
        rec.order = G.order
        if max_order is not None and G.order > max_order:
            rec.status, rec.reason = "skipped", SKIP_ORDER
            return rec
        if not _is_power_of_3(G.order):
            rec.status, rec.reason = "skipped", SKIP_NOT_3_GROUP
            return rec
        cls = nilpotency_class(G)
        rec.group_class = cls
        if cls != 3:
            rec.status, rec.reason = "skipped", SKIP_CLASS
            return rec

        conditions: dict = {}
        witnesses: dict = {}
        L = build_gyro(G).loop                # for the cube criterion and a hit's payoff
        all_cubes_inside, cube_wit = _cube_criterion(G, commutant(L))
        conditions[COND_CUBES] = not all_cubes_inside
        if cube_wit is not None:
            witnesses[COND_CUBES] = [int(v) for v in cube_wit]
        conditions[COND_EXP] = subset_exponent(G, derived_subgroup(G)) != 3
        if conditions[COND_CUBES] and conditions[COND_EXP]:
            nine_ok, nine_wit = nine_identity(G)
            conditions[COND_NINE] = nine_ok
            if nine_wit is not None:
                witnesses[COND_NINE] = [int(v) for v in nine_wit]
        else:
            conditions[COND_NINE] = None

        rec.conditions = conditions
        rec.witnesses = witnesses or None
        if all(conditions[k] is True for k in (COND_CUBES, COND_EXP, COND_NINE)):
            rec.status = "hit"
            abelian, _ = is_inner_abelian(L)
            rec.payoff = {
                "inner_mapping_abelian": abelian,
                "loop_class": loop_nilpotency_class(L),
            }
        else:
            rec.status = "miss"
        return rec
    except Exception as exc:
        rec.status = "error"
        rec.reason = f"{type(exc).__name__}: {exc}"
        return rec
    finally:
        rec.elapsed = time.perf_counter() - t0


def search_scan(sources: Sequence[str], jobs: int = 1,
                max_order: int | None = None) -> SearchSummary:
    """Evaluate each source; results keep the input order regardless of jobs."""
    sources = list(sources)
    if jobs <= 1 or len(sources) <= 1:
        records = [evaluate_source(s, max_order) for s in sources]
    else:
        work = partial(evaluate_source, max_order=max_order)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(work, sources))
    return SearchSummary(records=records)
