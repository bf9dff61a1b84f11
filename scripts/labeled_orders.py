"""Time the labeled stream, as ``enumerate N`` builds it, at orders 6 and 7.

    python3 scripts/labeled_orders.py [--label NAME] [--src DIR] [--out FILE]

Runs in process, stdlib only. Each order consumes
``enumerate_quandles(EnumerationTask(n))`` to the end and reports the
table count, the wall seconds and the process's peak resident set
(``ru_maxrss``, which only grows, so order 7's covers order 6's too). The
count must equal the labeled count recorded for the order
(Σ n!/|Aut(Q)| over the classes), or the script exits 1. Order 8 is not
run: its 5,225,916 tables would be held in memory before the first is
yielded. These numbers set ``enumeration.LABELED_ORDER_GUARD``.

Results are merged into FILE (default ``BENCH_labeled.json`` at the
repository root) under NAME (default ``current``). ``--src`` measures
another checkout's package, e.g. the parent commit's.
"""

from __future__ import annotations

import argparse
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

# The helper beside this script; package_source stays importable from here.
sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_file import add_run_options, merge_run, package_source  # noqa: E402,F401

LABELED_COUNTS = {6: 6658, 7: 152900}


def measure(n: int) -> dict:
    from quandles.enumeration import EnumerationTask, enumerate_quandles

    start = perf_counter()
    tables = sum(1 for _ in enumerate_quandles(EnumerationTask(n)))
    wall = perf_counter() - start
    return {
        "tables": tables,
        "wall_s": round(wall, 3),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    add_run_options(parser, "BENCH_labeled.json")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src))

    run = {"python": platform.python_version(), "cpus": os.cpu_count(), "orders": {}}
    ok = True
    for n, expected in LABELED_COUNTS.items():
        result = measure(n)
        run["orders"][str(n)] = result
        ok = ok and result["tables"] == expected
        print(f"order {n}: " + " ".join(f"{k}={v}" for k, v in result.items()), flush=True)

    merge_run(args.out, args.label, run)
    if not ok:
        print("a labeled count differs from the recorded one", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
