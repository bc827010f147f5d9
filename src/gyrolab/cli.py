"""Command-line front end.

Subcommands: analyze, verify, search, export, catalog.  Exit codes: 0 on
success (verify: no check failed), 1 when at least one check failed, 2 for
usage and input errors, including an --out or --inputs path that cannot be
written or read.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ._version import __version__
from .catalog import CATALOG_HELP
from .checks import suite_check_ids, verify_suite
from .errors import GyrolabError, InvariantViolated
from .fileio import (
    dumps_json,
    export_text,
    gather_sources,
    group_descriptor,
    report_document,
    resolve_group,
    search_document,
)
from .groups import nilpotency_class
from .gyro import build_gyro, is_gyrogroup
from .invariants import invariant_bundle, loop_nilpotency_class
from .mappings import inner_mapping_group, multiplication_group
from .report import summarize
from .search import search_scan

ANALYSIS_SCHEMA = "gyrolab-analysis/1"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_analyze(args) -> int:
    G = resolve_group(args.group)
    L = build_gyro(G).loop
    doc = {
        "schema": ANALYSIS_SCHEMA,
        "tool": {"name": "gyrolab", "version": __version__},
        "group": group_descriptor(G, args.group),
        "group_class": nilpotency_class(G),
        "is_right_loop": L.is_right_loop,
        "is_loop": L.is_loop,
    }
    if L.is_loop:
        bundle = invariant_bundle(L)
        doc["invariants"] = bundle.to_dict()
        doc["invariant_names"] = {
            key: [G.names[i] for i in idx]
            for key, idx in bundle.to_dict().items()
        }
        doc["loop_class"] = loop_nilpotency_class(L)
        inn = inner_mapping_group(L)
        wit = inn.generator_commuting_violation()
        doc["inner_mapping_abelian"] = wit is None
        if wit is not None:
            doc["inner_mapping_witness"] = list(wit)
        # two independent chains: Mlt from the translations, Inn from R, L, T
        mlt, inn_order = multiplication_group(L).order(), inn.order()
        if mlt != L.order * inn_order:
            raise InvariantViolated(f"|Mlt| = {mlt} but |L| * |Inn| = {L.order} * {inn_order}")
        doc.update(multiplication_group_order=mlt, inner_mapping_group_order=inn_order)
        doc["gyro_axioms"] = is_gyrogroup(L, source=G).to_dict()
    _emit(dumps_json(doc), args.out)
    return 0


def _cmd_verify(args) -> int:
    G = resolve_group(args.group)
    selection = [s.strip() for s in args.checks.split(",")] if args.checks else None
    reports = verify_suite(G, selection)
    doc = report_document(G, reports, source=args.group)
    _emit(dumps_json(doc), args.out)
    if args.out:
        counts = summarize(reports)
        print(f"{args.group}: {counts['pass']} passed, {counts['fail']} failed, "
              f"{counts['skipped']} skipped -> {args.out}")
    return 1 if any(r.status == "fail" for r in reports) else 0


def _cmd_search(args) -> int:
    sources = gather_sources(args.inputs)
    summary = search_scan(sources, jobs=args.jobs, max_order=args.max_order)
    _emit(dumps_json(search_document(summary.to_dict())), args.out)
    if args.out:
        print(f"scanned {summary.scanned}: {summary.count('hit')} hits, "
              f"{summary.count('miss')} misses, {summary.count('skipped')} skipped, "
              f"{summary.count('error')} errors -> {args.out}")
    return 0


def _cmd_export(args) -> int:
    G = resolve_group(args.group)
    _emit(export_text(G, args.what, args.format), args.out)
    return 0


def _cmd_catalog(args) -> int:
    for spec, desc in CATALOG_HELP:
        print(f"{spec:20s} {desc}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gyrolab",
        description="Twisted-loop workbench for finite groups "
                    "(x*y = y^-1 x y^2 on a group table).")
    parser.add_argument("--version", action="version", version=f"gyrolab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="invariant bundle of the twisted loop")
    p.add_argument("--group", required=True,
                   help="catalog spec (see 'gyrolab catalog') or file:PATH")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", help="run the check suite on one group")
    p.add_argument("--group", required=True)
    p.add_argument("--checks", help="comma-separated check ids (default: all); "
                   f"known ids: {', '.join(suite_check_ids())}")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="scan group sources for the open-problem conditions")
    p.add_argument("--inputs", required=True,
                   help="directory of .json group files, or a text file with one "
                        "source spec per line")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.add_argument("--max-order", type=int, default=None,
                   help="skip groups larger than this")
    p.add_argument("--out", help="write the JSON summary here instead of stdout")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("export", help="dump derived tables")
    p.add_argument("--group", required=True)
    p.add_argument("--what", required=True,
                   choices=["circ-table", "gyration-table", "factor-set"])
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.add_argument("--out", help="write here instead of stdout")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("catalog", help="list available catalog spec strings")
    p.set_defaults(func=_cmd_catalog)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GyrolabError, ValueError, OSError) as exc:   # OSError: --out or --inputs
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
