"""Time the labeled search, the one ``enumerate N`` and ``verify N`` run, at orders 6 to 8.

    python3 scripts/labeled_orders.py [--label NAME] [--src DIR] [--out FILE]

Runs in process, stdlib only, and takes about two and a half minutes. Orders
6 and 7 run ``_raw_tables`` without the orderly pruning to the end and
report the table count and the search seconds; the count must equal the
labeled count recorded for the order (Σ n!/|Aut(Q)| over the classes), or
the script exits 1. Order 8 stops after ``ORDER_8_CAP_S`` (60) seconds and
reports the tables found so far and how many of its 5040 first columns
were finished. The search emits tables in lex order of their columns, so
the first column of the last table shows how far it got; the identity
column comes first and holds the most tables, so the fraction done says
little about the time left. These numbers set
``enumeration.LABELED_ORDER_GUARD``.

Results are merged into FILE (default ``BENCH_labeled.json`` at the
repository root) under NAME (default ``current``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]

LABELED_COUNTS = {6: 6658, 7: 152900}
ORDER_8_CAP_S = 60.0


def measure(n: int, cap: float) -> dict:
    from quandles import enumeration

    first_columns = enumeration._candidate_columns(n)[0]
    tables = 0
    last = None
    start = perf_counter()
    elapsed = 0.0
    complete = True
    for rows in enumeration._raw_tables(n):
        tables += 1
        last = rows
        elapsed = perf_counter() - start
        if elapsed > cap:
            complete = False
            break
    else:
        elapsed = perf_counter() - start
    result = {
        "tables": tables,
        "search_s": round(elapsed, 3),
        "complete": complete,
    }
    if not complete:
        current = bytes(row[0] - 1 for row in last)
        result["first_columns"] = len(first_columns)
        result["first_columns_done"] = first_columns.index(current)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="current")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the package source to measure")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_labeled.json")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))

    run = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "order_8_cap_s": ORDER_8_CAP_S,
        "orders": {},
    }
    ok = True
    for n in (6, 7, 8):
        result = measure(n, ORDER_8_CAP_S if n == 8 else float("inf"))
        run["orders"][str(n)] = result
        if n in LABELED_COUNTS:
            ok = ok and result["tables"] == LABELED_COUNTS[n]
        print(f"order {n}: " + " ".join(f"{k}={v}" for k, v in result.items()), flush=True)

    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data[args.label] = run
    args.out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    if not ok:
        print("a labeled count differs from the recorded one", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
