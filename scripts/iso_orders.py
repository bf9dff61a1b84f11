"""Time the ``--iso`` enumeration stage by stage at orders 6 and 7.

    python3 scripts/iso_orders.py [--orders 6 7] [--label NAME] [--src DIR] [--out FILE]

Runs in process, stdlib only, and takes about 0.3 s (``--orders 8``
about 5 s, 2.5 s of it the search). For each order it streams the
stages of ``enumerate_quandles(EnumerationTask(n, up_to_iso=True))`` as
the enumeration does, one table at a time, and times each stage's own
steps: the orderly search (``_raw_tables``), validation of every
searched table, and the isomorphism reduction, of which it also reports
the shares of the class test, which keeps a table iff it is its own
column-major least labeling (``_column_major_ties``, reported as
``class_test_s``), and of the canonical-form scan (``_least_relabeling``, reported as
``canonical_form_s``), and the process's peak resident set
(``peak_rss_mb``, from ``ru_maxrss``, which only grows, so a later
order's covers the earlier ones; run ``--orders 8`` alone for order 8's
own). The reduced stream must hash to the sha256 recorded for it before
the orderly search; a mismatch exits 1.

Results are merged into FILE (default ``BENCH_iso.json`` at the repository
root) under NAME (default ``current``), so runs of two checkouts, chosen
with ``--src``, sit side by side. The committed file holds, all on
2 vCPUs with Python 3.11.7: ``first-column-rule``, the checkout before the
orderly search; ``orderly``, which prunes by the relabelings that fix the
branching column; ``orderly-moves``, which also prunes by those that
move a set column onto it; ``levels``, the same pruning with the
relabelings of each level kept in one list; ``screened-scan``, with
the canonical-form scan reading a cached relabeling table and dropping a
relabeling after its first row, at orders 6, 7 and 8; ``parent-5cdc964``,
the checkout that reduced by signature buckets and ``are_isomorphic``;
and ``least-labelings``, which keeps a table iff it is its own
column-major least labeling, both at orders 6, 7 and 8; then
``parent-ed49345`` against ``one-stabiliser``, whose search and class
test share one centraliser per first column, at the same orders; then
``parent-0aaa07a`` against ``stabiliser-screen``, whose search tries for
each branching column only the candidates that commute with the
stabiliser of its index, at the same orders; then ``parent-3b1d4b4``
against ``block-scans``, whose class test and canonical-form scan visit
only the relabelings that keep the leading identity columns, or the
constant rows, first, at the same orders; then ``parent-26a6794``
against ``identity-block``, whose search, while the leading columns are
all the identity, prunes by every relabeling that permutes them, at the
same orders; then ``parent-8ed9789`` against ``one-store``, whose
canonical form, labeled tables and centralisers all read the block
relabelings, so that no n! relabeling table is built for ``--iso``, at
the same orders, and each again with ``--orders 8`` alone
(``parent-8ed9789-order8``, ``one-store-order8``) for order 8's peak
resident set; then ``parent-aa7b4f1``, whose harness held every searched
and every validated table of an order in lists, against ``streamed``,
this one, at the same orders and again at order 8 alone
(``parent-aa7b4f1-order8``, ``streamed-order8``).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

# The helper beside this script; package_source stays importable from here.
sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_file import add_run_options, merge_run, package_source  # noqa: E402,F401

# sha256 of repr([q.rows ...]) of the --iso stream. Orders 6 and 7 were
# recorded with the first-column restriction alone, before the orderly
# search; order 8 from the orderly stream, the same with one job and two.
STREAM_SHA256 = {
    6: "cc3abb372f1098dbc653d8601e2ddf23c269d1652464a8cc16d081c9087d8658",
    7: "0353b08b7bd450ccf096340e0c11467491d0a6e4addcbc09b794c138e38a9c4e",
    8: "19e7ce656a6598f120f73fab50f47f9be802721f9aeed8563d73f69dbdf61218",
}
CLASS_COUNTS = {6: 73, 7: 298, 8: 1581}
SCANS = ("_column_major_ties", "_least_relabeling")


def measure(n: int) -> dict:
    from quandles import enumeration
    from quandles.quandle import Quandle

    # Exclusive seconds per stage. The stages are streamed, as in
    # ``enumerate``: the reduction pulls each table through validation,
    # which pulls it from the search, so each stage times only its own
    # steps, and the reduction's seconds are what the other two leave.
    spent = dict.fromkeys(("search", *SCANS, "validation"), 0.0)
    searched = [0]

    def validated():
        tables = enumeration._raw_tables(n)
        while True:
            t = perf_counter()
            rows = next(tables, None)
            found = perf_counter()
            spent["search"] += found - t
            if rows is None:
                return
            searched[0] += 1
            q = Quandle(rows)
            spent["validation"] += perf_counter() - found
            yield q

    # The scans inside the reduction, each timed by a wrapper; a checkout
    # without the class test (``_column_major_ties``) reports 0 for it.
    scans = {name: getattr(enumeration, name) for name in SCANS if hasattr(enumeration, name)}

    def timed(name, scan):
        def timed_scan(q):
            t = perf_counter()
            try:
                return scan(q)
            finally:
                spent[name] += perf_counter() - t
        return timed_scan

    # The stream hashes as repr([q.rows ...]), fed one class at a time.
    digest = hashlib.sha256(b"[")
    classes = 0
    for name, scan in scans.items():
        setattr(enumeration, name, timed(name, scan))
    start = perf_counter()
    try:
        for r in enumeration._iso_reduce(validated()):
            # Older checkouts yield (canonical form, n!/|Aut(Q)|) pairs.
            q = r if isinstance(r, Quandle) else r[0]
            digest.update(((", " if classes else "") + repr(q.rows)).encode())
            classes += 1
    finally:
        for name, scan in scans.items():
            setattr(enumeration, name, scan)
    total = perf_counter() - start
    digest.update(b"]")

    sha = digest.hexdigest()
    return {
        "searched_tables": searched[0],
        "classes": classes,
        "search_s": round(spent["search"], 3),
        "validation_s": round(spent["validation"], 3),
        "iso_s": round(total - spent["search"] - spent["validation"], 3),
        "class_test_s": round(spent["_column_major_ties"], 3),
        "canonical_form_s": round(spent["_least_relabeling"], 3),
        "total_s": round(total, 3),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "stream_sha256": sha,
        "stream_unchanged": sha == STREAM_SHA256.get(n) and classes == CLASS_COUNTS.get(n),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--orders", type=int, nargs="+", default=[6, 7], choices=sorted(STREAM_SHA256))
    add_run_options(parser, "BENCH_iso.json")
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
        ok = ok and result["stream_unchanged"]
        print(f"order {n}: " + " ".join(f"{k}={v}" for k, v in result.items() if k != "stream_sha256"),
              flush=True)

    merge_run(args.out, args.label, run)
    if not ok:
        print("the --iso stream differs from the recorded one", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
