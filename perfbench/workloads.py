"""Workload definitions: the CLI operations each workload runs, and the
seeded input files the files-roundtrip workload reads.

Every path handed to the CLI is relative to the checkout root, so the
documents (which echo file sources back) do not depend on where the
checkout lives. numpy and gyrolab are imported only by the functions that
write the inputs, which run in the pass process, not in run.py.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORK_ROOT = Path(".perfbench_work")


@dataclass(frozen=True)
class Op:
    label: str          # stable name, the key of the op's golden record
    kind: str           # which document summary applies (see golden.py)
    argv: tuple         # arguments for gyrolab.cli.main, without --out
    out: str            # document path, relative to the checkout root

    def cli_argv(self) -> list[str]:
        return [*self.argv, "--out", self.out]


@dataclass(frozen=True)
class Workload:
    name: str
    seeded: bool        # whether --seed changes the inputs
    ops: tuple

    @property
    def work_dir(self) -> Path:
        return WORK_ROOT / self.name


def _op(workload: str, label: str, kind: str, *argv: str, ext: str = "json") -> Op:
    return Op(label, kind, argv, str(WORK_ROOT / workload / "out" / f"{label}.{ext}"))


_INPUTS = WORK_ROOT / "files-roundtrip" / "inputs"

# File stems sort in the order the search visits them.
TABLE_FILES = {
    "t729-unitriangular4-3": "unitriangular4:3",
    "t729-heisenberg3-squared": "product:heisenberg:3,heisenberg:3",
    "t243-wreath33-cyclic3": "product:wreath33,cyclic:3",
}
PERM_FILES = {
    "p081-wreath33-regular": "wreath33",
    "p243-wreath33-cyclic3-regular": "product:wreath33,cyclic:3",
}
TWISTED_FILE = ("x081-wreath33-twisted", "wreath33")

WORKLOADS = {
    w.name: w for w in (
        Workload("analyze-ladder", False, (
            _op("analyze-ladder", "analyze-dihedral16", "analyze", "analyze", "--group", "dihedral:16"),
            _op("analyze-ladder", "analyze-wreath33", "analyze", "analyze", "--group", "wreath33"),
            _op("analyze-ladder", "analyze-heisenberg5", "analyze", "analyze", "--group", "heisenberg:5"),
        )),
        Workload("verify-class3", False, (
            _op("verify-class3", "verify-wreath33-cyclic4", "verify",
                "verify", "--group", "product:wreath33,cyclic:4"),
            _op("verify-class3", "verify-dihedral16-cyclic5", "verify",
                "verify", "--group", "product:dihedral:16,cyclic:5"),
        )),
        Workload("files-roundtrip", True, (
            _op("files-roundtrip", "search-inputs", "search",
                "search", "--inputs", str(_INPUTS), "--jobs", "2"),
            _op("files-roundtrip", "export-gyration-729", "gyration-csv",
                "export", "--group", f"file:{_INPUTS / 't729-unitriangular4-3.json'}",
                "--what", "gyration-table", "--format", "csv", ext="csv"),
            _op("files-roundtrip", "export-factor-set-243", "factor-set",
                "export", "--group", f"file:{_INPUTS / 't243-wreath33-cyclic3.json'}",
                "--what", "factor-set"),
        )),
    )
}


# ---------------------------------------------------------------------------
# seeded inputs

def _write_json_rows(path: Path, head: dict, key: str, rows) -> None:
    """Write {**head, key: rows} compactly, one row per line, without
    materialising the whole matrix as Python lists."""
    with path.open("w") as fh:
        fh.write(json.dumps(head)[:-1] + f', "{key}": [\n')
        for i, row in enumerate(rows):
            fh.write(("," if i else "") + "[" + ",".join(map(str, row.tolist())) + "]\n")
        fh.write("]}\n")


def _relabel_table(table, names, perm):
    """The same operation with element i renamed perm[i]."""
    import numpy as np
    n = len(names)
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n)
    new_table = perm[table[np.ix_(inv, inv)]]
    return new_table, [names[i] for i in inv]


def _generating_set(G) -> list[int]:
    """Greedy generating set in index order, so its size and the closure
    work do not depend on the seed."""
    from gyrolab.groups import subgroup_generated
    gens: list[int] = []
    span = frozenset({0})
    for g in range(1, G.order):
        if len(span) == G.order:
            break
        if g not in span:
            gens.append(g)
            span = subgroup_generated(G, gens)
    return gens


def write_inputs(seed: int) -> None:
    """Write the files-roundtrip inputs, relabelled by permutations drawn
    from `seed`. Points and elements are renamed; operations are not."""
    import numpy as np
    from gyrolab.catalog import catalog_group
    from gyrolab.gyro import build_gyro

    rng = random.Random(seed)
    _INPUTS.mkdir(parents=True, exist_ok=True)

    def shuffled(n: int, fix_identity: bool = False):
        head = [0] if fix_identity else []
        rest = list(range(1 if fix_identity else 0, n))
        rng.shuffle(rest)
        return np.array(head + rest, dtype=np.int64)

    for stem, spec in TABLE_FILES.items():
        G = catalog_group(spec)
        table, names = _relabel_table(G.table.astype(np.int64), list(G.names), shuffled(G.order))
        _write_json_rows(_INPUTS / f"{stem}.json",
                         {"name": stem, "order": G.order, "names": names}, "table", table)

    for stem, spec in PERM_FILES.items():
        G = catalog_group(spec)
        point = shuffled(G.order)
        inv = np.empty(G.order, dtype=np.int64)
        inv[point] = np.arange(G.order)
        # left-regular image of g with points renamed: point[x] -> point[g*x]
        gens = [point[G.table[g].astype(np.int64)][inv] for g in _generating_set(G)]
        _write_json_rows(_INPUTS / f"{stem}.json",
                         {"name": stem, "degree": G.order}, "generators", gens)

    stem, spec = TWISTED_FILE
    L = build_gyro(catalog_group(spec)).loop
    table, names = _relabel_table(L.table.astype(np.int64), list(L.names),
                                  shuffled(L.order, fix_identity=True))
    _write_json_rows(_INPUTS / f"{stem}.json",
                     {"name": stem, "order": L.order, "names": names}, "table", table)
    catalog_group.cache_clear()
