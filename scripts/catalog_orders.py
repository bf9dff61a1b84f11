"""Time the catalog path stage by stage: parsing with validation, each checker, the records, ``report``.

    python3 scripts/catalog_orders.py [--max-order 47] [--rounds 7] [--label NAME] [--src DIR] [--out FILE]

Runs in process, stdlib only, and takes about 5 s at the default order.
The tables are those of a catalog of connected quandles: Aff(Z_n, t)
(i*j = t*i + (1-t)*j mod n) for every odd n from 3 up to the largest
order, one t per cycle type of x -> t*x (the least such t with t and 1-t
units mod n), and the conjugation quandles of the transpositions of
S_4, S_5, ... up to that order. They are written as text, half in the
plain format and half as gap matrices, alternating.

Each round parses every text again, so no table keeps what an earlier
round computed, and then runs the checkers one at a time over all tables,
in the order ``all_checks`` runs them, so each one pays for the per-table
caches it fills first. The cycle-shift stage checks each table in the
block ``all_checks`` checks it in, so each cycle structure is checked
once per table. Then every report is rendered as its
``report_record`` JSON (``records_s``): reading a cycle-shift report's
details builds its relabeling, so that cost shows here, not in
``cycle_shift_s``. ``report`` runs last, through ``cli.main`` over a
directory holding the texts. Every stage is timed with ``perf_counter``;
the median over the rounds is recorded. Every report must be consistent
and ``report`` must exit 0; otherwise the script exits 1. Three sha256
are recorded, so two checkouts can be seen to answer alike: of the
rendered reports of all tables, of their ``report_record`` JSON, which
holds every detail too (the cycle-shift relabelings, the regular-cycle
orders), and of ``report``'s standard output. At the default order they
must equal the values recorded in ``DIGESTS``.

Results are merged into FILE (default ``BENCH_catalog.json`` at the
repository root) under NAME (default ``current``), so runs of two
checkouts, chosen with ``--src``, sit side by side. The committed file
holds, on 2 vCPUs with Python 3.11.7 and ``--rounds 11``, the last of
three alternating runs a side: ``point-loops``, the checkout that
validated tables and decided left refinement point by point, against
``byte-screens``, which screens them with ``bytes`` and ``set``
operations; then ``fixed-sets``, which checks cycle-length division as
the closure of each Fix(f^m), against a fresh ``byte-screens`` run; then
``orbit-screen``, which tests distributivity in full only at columns 1
and 2 and at the columns outside their orbit, against its parent
``parent-3851f07``, which tested every column; then ``orbit-links``,
which walks the cycles of one column per orbit and fills the others'
cycle data by conjugation, against its parent ``parent-466854b``, which
walked every column; then ``lazy-relabeling``, whose cycle-shift reports
build their relabelings only when their details are read and screen
each verdict a cycle at a time, against its parent ``parent-709cf1e``,
which built every relabeling in ``check_cycle_shift`` and tested every
pair; then ``byte-entries``, which decodes each text once into the bytes
of its entries, hands them to the table's screen without an ``int()``
per token, reads the table predicates from the byte rows and builds the
column structures from one translation per orbit, against its parent
``parent-67ca651``, which read every entry with ``int()`` and scanned
its type before the screen; then ``loop-powers``, whose ``__pow__``
rotates cycles point by point at every degree and which shares cycle
labels and division screens whenever it shares cycle data, against its
parent ``parent-ead7e80``, which took one ``bytes.maketrans`` for a
power of a permutation with few cycles for its degree; then
``orbit-verdicts``, whose checkers decide each per-column verdict on the
first column of each orbit, against its parent ``parent-799d5a3``, which
copied cycle data along the orbit links so that each checker could test
every column; then ``column-verdicts``, which decides left refinement's
byte verdict once per table and walks a row only to name a witness its
report shows, reads the regular-cycle details from fields cached on the
shared cycle structures and writes each report field by field, against
its parent ``parent-8dfac22``, which decided the byte verdict again at
every bijective column.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# The helper beside this script; package_source stays importable from here.
sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_file import add_run_options, merge_run, package_source  # noqa: E402,F401

DEFAULT_MAX_ORDER = 47
# sha256 of the rendered reports and of `report`'s stdout at the default
# order, recorded before the byte screens were added, and of the report
# records, recorded before one column per orbit was walked.
DIGESTS = {
    "reports_sha256": "516ef6261543d7a7545deeaaf0cf16fe314a63fba3c8a6a7c01a70dceef0821e",
    "records_sha256": "51024ba16af4b0e0c218197d0076b438b2abdd685987ab6945c88570532db835",
    "report_stdout_sha256": "d39fe7d55ad1c35c81e42ad0a2f353ab95fc8810b8f397ba6e2b3d7f4e397cb9",
}

# The checkers in the order ``all_checks`` runs them; the per-element ones
# run for every element of every table.
TABLE_CHECKERS = (
    ("conjugation_identity", "check_conjugation_identity"),
    ("cycle_length_division", "check_cycle_length_division"),
    ("latin_sufficiency", "check_latin_sufficiency"),
    ("latin_necessary_conditions", "check_latin_necessary_conditions"),
    ("regular_cycle", "check_regular_cycle"),
)


def catalog_texts(max_order: int) -> list[tuple[str, str]]:
    """(file name, table text) for every table of the catalog up to ``max_order``."""
    from quandles import Permutation, affine, conjugation, serialize_table

    tables = []
    for n in range(3, max_order + 1, 2):
        types = {}
        for t in range(2, n):
            if math.gcd(t, n) == 1 and math.gcd(1 - t, n) == 1:
                column = Permutation([t * x % n + 1 for x in range(n)])
                types.setdefault(column.cycle_structure(), t)
        for m, t in enumerate(types.values(), 1):
            tables.append((f"Q_{n}_{m}", affine(n, t)))
    k = 4
    while k * (k - 1) // 2 <= max_order:
        swap = Permutation.from_cycles(k, [(1, 2)])
        rotate = Permutation.from_cycles(k, [tuple(range(1, k + 1))])
        tables.append((f"T_{k}", conjugation([swap, rotate], swap)))
        k += 1
    return [(name, serialize_table(q, ("plain", "gap_matrix")[i % 2]))
            for i, (name, q) in enumerate(tables)]


def one_round(texts: list[tuple[str, str]],
              directory: Path) -> tuple[dict[str, float], list[str], list[str], str, int]:
    """(seconds per stage, rendered reports, report records as JSON, report stdout, exit code) of one round."""
    from quandles import checks
    from quandles.catalog import parse_table
    from quandles.cli import main

    times = {}
    start = perf_counter()
    tables = [parse_table(text, "auto") for _, text in texts]
    times["parse_s"] = perf_counter() - start

    reports: list[list] = [[] for _ in tables]
    for stage, name in TABLE_CHECKERS:
        checker = getattr(checks, name)
        start = perf_counter()
        for q, out in zip(tables, reports):
            out.append(checker(q))
        times[f"{stage}_s"] = perf_counter() - start
    start = perf_counter()
    for q, out in zip(tables, reports):
        out.extend(checks.check_left_refinement(q, i) for i in range(1, q.n + 1))
    times["left_refinement_s"] = perf_counter() - start
    start = perf_counter()
    for q, out in zip(tables, reports):
        with checks._cycle_shift_memo():
            out.extend(checks.check_cycle_shift(q._right_translation(i)) for i in range(1, q.n + 1))
    times["cycle_shift_s"] = perf_counter() - start
    times["checkers_s"] = sum(times[f"{stage}_s"] for stage, _ in TABLE_CHECKERS) + (
        times["left_refinement_s"] + times["cycle_shift_s"])

    start = perf_counter()
    records = [json.dumps(checks.report_record(r), sort_keys=True) for out in reports for r in out]
    times["records_s"] = perf_counter() - start

    stdout = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(stdout):
        code = main(["report", str(directory)])
    times["report_s"] = perf_counter() - start
    times["total_s"] = times["parse_s"] + times["checkers_s"] + times["records_s"] + times["report_s"]

    rendered = [checks.render_report(r) for out in reports for r in out]
    inconsistent = sum(not r.consistent for out in reports for r in out)
    return times, rendered, records, stdout.getvalue(), code if inconsistent == 0 else 1


def measure(max_order: int = DEFAULT_MAX_ORDER, rounds: int = 7) -> dict:
    texts = catalog_texts(max_order)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        for name, text in texts:
            (directory / f"{name}.qdl").write_text(text)
        runs = [one_round(texts, directory) for _ in range(rounds)]
    times, rendered, records, stdout, code = runs[-1]
    result = {
        "tables": len(texts),
        "rounds": rounds,
        "exit_code": max(run[-1] for run in runs),
        "reports": len(rendered),
        "reports_sha256": hashlib.sha256("\n".join(rendered).encode()).hexdigest(),
        "records_sha256": hashlib.sha256("\n".join(records).encode()).hexdigest(),
        "report_stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
    }
    for stage in times:
        result[stage] = round(statistics.median(run[0][stage] for run in runs), 4)
    result["answers_unchanged"] = result["exit_code"] == 0 and (
        max_order != DEFAULT_MAX_ORDER
        or all(result[key] == digest for key, digest in DIGESTS.items())
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER)
    parser.add_argument("--rounds", type=int, default=7)
    add_run_options(parser, "BENCH_catalog.json")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src))

    result = measure(args.max_order, args.rounds)
    print(" ".join(f"{k}={v}" for k, v in result.items() if not k.endswith("sha256")), flush=True)
    run = {"python": platform.python_version(), "cpus": os.cpu_count(), "max_order": args.max_order, **result}
    merge_run(args.out, args.label, run)
    if not result["answers_unchanged"]:
        print("a report is inconsistent, report failed, or the digests differ", file=sys.stderr)
    return 0 if result["answers_unchanged"] else 1


if __name__ == "__main__":
    sys.exit(main())
