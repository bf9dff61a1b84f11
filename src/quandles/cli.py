"""Command-line front end.

Subcommands: check, analyze, enumerate, verify, report, construct. Tables
come from files (plain or GAP-matrix text, sniffed), from "-" for standard
input, or from construction specs like "dihedral:5", "affine:9,4",
"example:Q9_4". Results go to standard output; diagnostics to standard
error. Exit codes: 0 success, 1 validation or check failure, 2 usage,
including a malformed or unknown construction spec.

Each command imports the modules it runs when it runs, so a process loads
only those: ``constructions`` for spec inputs and ``construct``,
``catalog`` for file and standard-input tables and ``report``,
``enumeration`` for ``enumerate`` and ``verify``, ``checks`` for
``analyze`` and ``verify``, and ``json`` for ``--format records``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .orbits import is_connected
from .quandle import Quandle, serialize_table

_SPEC_KINDS = ("dihedral", "affine", "example", "conjugation")
# The names of ``enumeration.PREDICATES`` and its two default guards, as
# literals, so that building the parser does not import ``enumeration``.
_FILTERS = ("connected", "distinct-lengths", "latin", "unique-fixed-point")
_LABELED_ORDER_GUARD = 7
_ISO_ORDER_GUARD = 8


def _load_input(arg: str) -> Quandle:
    """The table named by a construction spec, "-" (standard input) or a file.

    KIND:ARGS naming no existing file is a spec even for an unknown KIND, so
    that a mistyped spec is a usage error rather than a missing file.
    """
    if arg.split(":", 1)[0] in _SPEC_KINDS or (":" in arg and not os.path.exists(arg)):
        from .constructions import build_from_spec

        return build_from_spec(arg)
    from .catalog import parse_table

    if arg == "-":
        return parse_table(sys.stdin.read(), "auto")
    with open(arg) as f:
        return parse_table(f.read(), "auto")


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _emit(line: str) -> None:
    print(line)


def _emit_record(record: dict) -> None:
    import json

    _emit(json.dumps(record))


def cmd_check(args) -> int:
    try:
        q = _load_input(args.input)
    except (ValueError, OSError) as e:
        from .constructions import ConstructionSpecError

        if isinstance(e, ConstructionSpecError):
            raise
        if args.format == "records":
            _emit_record({"command": "check", "valid": False, "error": str(e)})
        else:
            print(f"invalid: {e}", file=sys.stderr)
        return 1
    if args.format == "records":
        _emit_record({"command": "check", "valid": True, "order": q.n})
    else:
        _emit(f"valid quandle of order {q.n}")
    return 0


def cmd_analyze(args) -> int:
    from . import checks

    q = _load_input(args.input)
    connected = is_connected(q)
    sufficiency = checks.check_latin_sufficiency(q)
    hayashi = checks.check_regular_cycle(q)
    fields = {
        "order": q.n,
        "connected": _yn(connected),
        "latin": _yn(q.is_latin),
        "unique-fixed-point": _yn(q.has_unique_fixed_points),
        "profile": str(q.profile()),
        "hayashi": "pass" if hayashi.consistent else "fail",
        "theorem-hypothesis": _yn(sufficiency.hypothesis_holds),
        "theorem-conclusion": _yn(sufficiency.conclusion_holds),
        "theorem-consistent": _yn(sufficiency.consistent),
    }
    if args.format == "records":
        _emit_record({"command": "analyze", **fields})
    else:
        _emit(" ".join(f"{k}={v}" for k, v in fields.items()))
    return 0


def cmd_enumerate(args) -> int:
    from . import enumeration

    task = enumeration.EnumerationTask(
        order=args.order,
        up_to_iso=args.iso,
        predicate_filter=args.filter,
        order_guard=args.guard,
    )
    stream = enumeration._parallel_quandles(task, args.jobs)
    count = 0
    for q in stream:
        count += 1
        if args.tables:
            if args.format == "records":
                _emit_record({"order": q.n, "rows": [list(r) for r in q.rows]})
            else:
                _emit(serialize_table(q, "plain"))
    if not args.tables:
        if args.format == "records":
            _emit_record({
                "command": "enumerate", "order": args.order, "iso": args.iso,
                "filter": args.filter, "count": count,
            })
        else:
            _emit(f"{count} quandles")
    return 0


def cmd_verify(args) -> int:
    """Run every checker on every quandle of each order up to ``max_order``.

    Every printed count is a sum over labeled tables of something that
    relabeling does not change, so each order checks one table per
    isomorphism class and counts it n!/|Aut(Q)| times: the searched table
    that is its class's column-major least labeling, whose test counts
    |Aut(Q)| too, so no canonical form is built. The classes with an
    inconsistent report are kept, and their labeled tables, merged in
    labeled search order, name the inconsistent tables on stderr;
    relabeling keeps a report's consistency, so these are all of them.
    The cycle-shift verdict depends only on a column's cycle structure,
    so one is decided per structure for the whole run: every
    ``all_checks`` call, the re-check of inconsistent classes included,
    is passed one verdict dict.
    """
    from . import checks, enumeration

    inconsistencies = 0
    candidates = 0
    # Every task is made first, so an order above the guard stops the run
    # before any order is searched.
    tasks = [enumeration.EnumerationTask(order=n, up_to_iso=True, order_guard=args.guard)
             for n in range(1, args.max_order + 1)]
    verdicts = {}
    for task in tasks:
        n = task.order
        tables = 0
        reports = 0
        bad = 0
        bad_classes = []
        # One class at a time: its table is checked and screened, then
        # dropped unless it has an inconsistent report.
        for q, labelings in enumeration._class_tables(task):
            class_reports = checks.all_checks(q, _verdicts=verdicts)
            class_bad = sum(not report.consistent for report in class_reports)
            tables += labelings
            reports += labelings * len(class_reports)
            bad += labelings * class_bad
            candidates += labelings * len(checks.search_nonconnected_refinement((q,)))
            if class_bad:
                bad_classes.append(q)
        for entries in enumeration._labeled_tables(n, bad_classes):
            q = Quandle._of_entries(entries, n)
            for report in checks.all_checks(q, _verdicts=verdicts):
                if not report.consistent:
                    print(f"INCONSISTENT {report.name} on order-{n} table {q.rows}", file=sys.stderr)
        inconsistencies += bad
        if args.format == "records":
            _emit_record({
                "command": "verify", "order": n, "tables": tables,
                "reports": reports, "inconsistent": bad,
            })
        else:
            _emit(f"order {n}: {tables} quandles, {reports} reports, {bad} inconsistent")
    if args.format == "records":
        _emit_record({
            "command": "verify", "ok": inconsistencies == 0,
            "nonconnected_refinement_candidates": candidates,
        })
    else:
        _emit(f"nonconnected refinement candidates: {candidates}")
        _emit("all checks consistent" if inconsistencies == 0 else f"{inconsistencies} INCONSISTENT reports")
    return 0 if inconsistencies == 0 else 1


def cmd_report(args) -> int:
    from . import catalog

    entries = catalog.load_catalog(args.directory)
    stats = catalog.catalog_stats(entries)
    rows5, rows6 = catalog.appendix_tables(entries)
    if args.format == "records":
        _emit_record({
            "command": "report",
            "stats": catalog.stats_record(stats),
            **catalog.appendix_records(rows5, rows6),
        })
    else:
        _emit(catalog.render_stats(stats))
        _emit("")
        _emit(catalog.render_appendix(rows5, rows6))
    return 0


def cmd_construct(args) -> int:
    from .constructions import build_from_spec

    q = build_from_spec(args.spec)
    if args.format == "records":
        _emit_record({"command": "construct", "order": q.n,
                      "rows": [list(r) for r in q.rows]})
    else:
        _emit(serialize_table(q, "plain").rstrip("\n"))
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quandles",
        description="Finite quandle toolkit: validate, analyze, enumerate, verify, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "records"), default="text",
                       help="records = one JSON object per line")

    p = sub.add_parser("check", help="validate a table against the three axioms")
    p.add_argument("input", help="file, '-' for stdin, or a construction spec")
    add_format(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("analyze", help="print the structural facts of one quandle")
    p.add_argument("input", help="file, '-' for stdin, or a construction spec")
    add_format(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("enumerate", help="enumerate all quandles of one order")
    p.add_argument("order", type=_positive_int)
    p.add_argument("--iso", action="store_true", help="one canonical table per isomorphism class")
    p.add_argument("--filter", choices=_FILTERS, default=None)
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes, at most one per CPU; >1 splits the search by its"
                        " first column and prints what one job prints")
    p.add_argument("--tables", action="store_true", help="print the tables instead of a count")
    p.add_argument("--guard", type=_positive_int, default=None,
                   help=f"largest order the search will accept (default {_LABELED_ORDER_GUARD},"
                        f" or {_ISO_ORDER_GUARD} with --iso)")
    add_format(p)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("verify", help="run every checker on every quandle up to an order")
    p.add_argument("max_order", type=_positive_int)
    p.add_argument("--guard", type=_positive_int, default=None,
                   help=f"largest order the search will accept (default {_ISO_ORDER_GUARD})")
    add_format(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("report", help="catalog statistics and survey tables for a directory")
    p.add_argument("directory")
    add_format(p)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("construct", help="emit a constructed table in plain format")
    p.add_argument("spec", help='e.g. "dihedral:5", "affine:9,4", "example:Q9_4"')
    add_format(p)
    p.set_defaults(fn=cmd_construct)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:
        from .constructions import ConstructionSpecError

        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, ConstructionSpecError) else 1


def entrypoint() -> None:
    sys.exit(main())
