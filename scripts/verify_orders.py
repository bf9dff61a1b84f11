"""Time ``quandles verify N`` at orders 6 and 7, or up to 8.

    python3 scripts/verify_orders.py [--orders 6 7] [--label NAME] [--src DIR] [--out FILE]

Runs ``cli.main(["verify", N])`` in process, stdlib only, one order after
the other, and records its wall time, the process's peak resident set
(``ru_maxrss``, which only grows, so a later order's covers the earlier
ones), exit code, the counts of its last order line and the sha256 of its
standard output. The output must be the per-order lines of the labeled
counts (1, 1, 5, 36, 404, 6658, 152,900 and 5,225,916 tables; 5 + 2n
reports per table; nothing inconsistent); a mismatch exits 1. Order 8
takes about 25 s.

After the timed run, each order N also records, per checker, on how many
classes of order N, and on how many labeled tables they stand for, some
report of the checker holds its hypothesis (``hypotheses``): a checker
whose hypothesis never holds cannot fail, and ``verify`` prints the same
lines whether it holds or not. At orders 3-7 the latin-sufficiency
hypothesis holds on 1, 1, 2, 0 and 2 classes (1, 2, 12, 0 and 240
tables).

Results are merged into FILE (default ``BENCH_verify.json`` at the
repository root) under NAME (default ``current``), so runs of two
checkouts, chosen with ``--src``, sit side by side. The committed file
holds, on 2 vCPUs with Python 3.11.7: ``labeled``, the checkout in which
``verify`` checked every labeled table; ``orbit-counting``, which
checks one table per isomorphism class and counts it n!/|Aut(Q)| times;
``screened-scan``, the same with the faster canonical-form scan that
gives |Aut(Q)|; ``iso-guard``, a ``verify 8`` run, which the
``--iso`` guard that ``verify`` takes admits by default; and, at orders
6, 7 and 8, ``parent-5cdc964``, which took |Aut(Q)| from a canonical
form per class, against ``least-labelings``, which takes it from the
class test and builds no canonical form; then ``parent-ed49345``, whose
class test read the n! relabeling table, against ``one-stabiliser``,
which reads the centraliser from the search's column-1 candidates; then
``parent-0aaa07a`` against ``stabiliser-screen``, whose search tries for
each branching column only the candidates that commute with the
stabiliser of its index; then, at orders 6 and 7, the last of three
alternating runs a side, ``parent-453f92b``, whose enumeration shared
one pool of right translations among its tables, against
``own-translations``, in which each table builds its own; then, at
orders 3-7 and with the hypothesis tallies, ``parent-3b1d4b4`` against
``block-scans``, whose class test visits only the relabelings that keep
the leading identity columns first; then, the same way,
``parent-26a6794`` against ``identity-block``, whose search prunes by
every relabeling that permutes the leading identity columns; then
``parent-249e1a7`` against ``run-memo``, whose ``verify`` decides one
cycle-shift verdict per cycle structure for the whole run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

# The helper beside this script; package_source stays importable from here.
sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_file import add_run_options, merge_run, package_source  # noqa: E402,F401

LABELED_COUNTS = {1: 1, 2: 1, 3: 5, 4: 36, 5: 404, 6: 6658, 7: 152900, 8: 5225916}


def expected_lines(n: int) -> list[str]:
    lines = [
        f"order {k}: {LABELED_COUNTS[k]} quandles, {LABELED_COUNTS[k] * (5 + 2 * k)} reports, 0 inconsistent"
        for k in range(1, n + 1)
    ]
    return lines + ["nonconnected refinement candidates: 0", "all checks consistent"]


def hypothesis_tallies(n: int) -> dict:
    """Per checker, the classes of order n, and the labeled tables they stand for, on which it holds its hypothesis.

    A class counts when some report of the checker on its table holds it.
    """
    from quandles import checks, enumeration

    tallies: dict[str, dict[str, int]] = {}
    for q, labelings in enumeration._class_tables(enumeration.EnumerationTask(n, up_to_iso=True)):
        reports = checks.all_checks(q)
        for name in dict.fromkeys(r.name for r in reports):
            tally = tallies.setdefault(name, {"classes": 0, "tables": 0})
            if any(r.hypothesis_holds for r in reports if r.name == name):
                tally["classes"] += 1
                tally["tables"] += labelings
    return tallies


def measure(n: int) -> dict:
    from quandles.cli import main

    out = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(["verify", str(n)])
    elapsed = perf_counter() - start

    stdout = out.getvalue()
    last = stdout.splitlines()[n - 1].split()
    result = {
        "exit_code": code,
        "wall_s": round(elapsed, 3),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "tables": int(last[2]),
        "reports": int(last[4]),
        "inconsistent": int(last[6]),
        "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "stdout_unchanged": code == 0 and stdout.splitlines() == expected_lines(n),
    }
    result["hypotheses"] = hypothesis_tallies(n)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--orders", type=int, nargs="+", default=[6, 7], choices=sorted(LABELED_COUNTS))
    add_run_options(parser, "BENCH_verify.json")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src))

    run = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "orders": {},
    }
    ok = True
    for n in args.orders:
        result = measure(n)
        run["orders"][str(n)] = result
        ok = ok and result["stdout_unchanged"]
        print(f"order {n}: " + " ".join(f"{k}={v}" for k, v in result.items()
                                         if k not in ("stdout_sha256", "hypotheses")), flush=True)
        print("  hypothesis holds on classes/tables: " + " ".join(
            f"{name}={t['classes']}/{t['tables']}" for name, t in result["hypotheses"].items()), flush=True)

    merge_run(args.out, args.label, run)
    if not ok:
        print("verify printed other counts than the labeled ones", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
