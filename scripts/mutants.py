"""Run named mutants of the package against the tests that must kill them.

    python3 scripts/mutants.py [--out FILE]

Each mutant is one edit of one file under ``src/``: its exact old text,
the new text and the pytest node ids that must fail once it is made.
Before anything runs, every old text must occur exactly once in its file
of this checkout, and every node id must name a test that pytest
collects against the unmutated ``src/``; otherwise the script names the
stale mutants, or prints pytest's collection errors, and exits 2, so a
mutant cannot go stale in silence. Then, one mutant at a time, ``src/``
is copied to a temporary directory, the edit is applied there, and
pytest runs the named tests, from this checkout's ``tests``, against the
copy: one pytest process at a time, stopping at the first failure. A
mutant survives when every named test passes; any other pytest exit,
a failure, an error or a package that no longer imports, kills it.
Stdlib only, plus pytest, which the tests need anyway.

The results, with each mutant's seconds, are written to FILE (default
``BENCH_mutants.json`` at the repository root). The script exits 1 if a
mutant survives. The seeded ten take 14-20 s on 2 vCPUs with
Python 3.11.7.

The mutants restate, on today's code, the faults each fast path was
checked against when it was added: a verdict decided once per table or
per orbit and taken by the other columns, a screen that decides without
walking points, a witness list that is capped. Each new fast path adds
its own.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    why: str


CHECKS = "quandles/checks.py"
QUANDLE = "quandles/quandle.py"
PERM = "quandles/perm.py"
SHARED = "tests/test_shared_cycle_data.py"

MUTANTS = (
    Mutant(
        "left-verdict-not-reset", QUANDLE,
        "        self._left_refines: Optional[bool] = None\n",
        "        self._left_refines: Optional[bool] = True\n",
        (f"{SHARED}::TestTableVerdictsOnceEach::test_left_refinement_reads_column_1_once_per_table",
         "tests/test_checks.py::TestLeftRefinementAgainstOracle"),
        "every table starts with a left-refinement verdict instead of deciding its own",
    ),
    Mutant(
        "walk-skip-inverted", CHECKS,
        "        walk = hypothesis\n",
        "        walk = not hypothesis\n",
        (f"{SHARED}::TestTableVerdictsOnceEach::test_a_non_bijective_row_is_walked_only_to_show_its_witness",
         f"{SHARED}::TestSharedCycleData::test_an_inconsistent_verdict_is_checked_at_every_linked_column"),
        "a non-bijective row is scanned exactly when no witness is shown",
    ),
    Mutant(
        "longest-from-order", CHECKS,
        '"column_longest": tuple(map(_LONGEST_CYCLE_LENGTH, structures)),',
        '"column_longest": tuple(map(_ORDER, structures)),',
        (f"{SHARED}::TestCachedStructureFields::test_regular_cycle_details_equal_each_columns_cycles",),
        "regular cycle reports each column's order as its longest cycle",
    ),
    Mutant(
        "no-direct-check-on-inconsistent-verdict", CHECKS,
        "        walk = hypothesis and not conclusion\n",
        "        walk = False\n",
        ("tests/test_checks.py::TestLeftRefinementAgainstOracle::test_a_split_cycle_keeps_its_witnesses",
         f"{SHARED}::TestSharedCycleData::test_an_inconsistent_verdict_is_checked_at_every_linked_column"),
        "a bijective row whose column-1 verdict would be inconsistent is not checked directly",
    ),
    Mutant(
        "left-verdict-from-row-n", QUANDLE,
        "self._row_bytes[0].translate(labels)",
        "self._row_bytes[-1].translate(labels)",
        ("tests/test_checks.py::TestLeftRefinementAgainstOracle",),
        "the table's verdict reads row n against R_1's labels, the wrong row",
    ),
    Mutant(
        "witness-cap-off-by-one", CHECKS,
        "return tuple(failures[:DEFAULT_WITNESS_CAP]), len(failures)",
        "return tuple(failures[:DEFAULT_WITNESS_CAP - 1]), len(failures)",
        ("tests/test_checks.py",),
        "reports keep one witness fewer than the cap",
    ),
    Mutant(
        "division-screen-drops-m-1", PERM,
        "                    if m % order:\n",
        "                    if m % order and m > 1:\n",
        ("tests/test_checks.py::TestCycleLengthDivisionKernel::test_screen_pairs_each_needed_set_with_the_rows_it_tests",
         "tests/test_checks.py::TestCycleLengthDivisionKernel::test_arbitrary_tables_and_permutations"),
        "the cycle-length division screen leaves out Fix(f), the set of m = 1",
    ),
    Mutant(
        "orbit-screen-under-r0-r2", QUANDLE,
        "            for y in (col0[x], col1[x]):\n",
        "            for y in (col0[x], cols[2][x]):\n",
        ("tests/test_quandle.py",),
        "axiom (iii) is taken on the orbit of {1, 2} under R_1 and R_3, one of them untested",
    ),
    Mutant(
        "links-to-orbit-start", QUANDLE,
        "links.extend([(y, x, column[y]) for y in new])",
        "links.extend([(y, start, column[y]) for y in new])",
        (f"{SHARED}::TestSharedCycleData::test_links_reach_every_other_point_of_each_orbit",),
        "every point of an orbit is linked to the orbit's first point, the wrong parent",
    ),
    Mutant(
        "later-translations-take-column-1-structure", QUANDLE,
        "                p._structure = self._structures[j - 1]\n",
        "                p._structure = self._structures[0]\n",
        (f"{SHARED}::TestPredicatesAgainstPointWalks::test_translations_built_later_take_their_own_structures",),
        "a translation built after the structures are known takes column 1's",
    ),
)


def stale(mutants, src: Path) -> list[str]:
    """The names of the mutants whose old text does not occur exactly once in their file under ``src``."""
    return [m.name for m in mutants if (src / m.path).read_text().count(m.old) != 1]


def run_pytest(src: Path, *args: str) -> subprocess.CompletedProcess:
    """pytest with ``args``, from the repository root, importing the package from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-o", f"pythonpath={src}", *args]
    return subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)


def uncollected(mutants, src: Path) -> str:
    """pytest's output if some node id of the mutants collects no test against ``src``, else ''."""
    done = run_pytest(src, "--collect-only", *dict.fromkeys(t for m in mutants for t in m.tests))
    return "" if done.returncode == 0 else done.stdout + done.stderr


def run_one(mutant: Mutant, src: Path) -> dict:
    """Apply the mutant to a copy of ``src`` and run its tests against the copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = copy / mutant.path
        target.write_text(target.read_text().replace(mutant.old, mutant.new, 1))
        start = perf_counter()
        done = run_pytest(copy, "-x", *mutant.tests)
        seconds = perf_counter() - start
    lines = done.stdout.strip().splitlines()
    return {"name": mutant.name, "file": mutant.path, "why": mutant.why, "tests": list(mutant.tests),
            "killed": done.returncode != 0, "seconds": round(seconds, 2),
            "pytest": lines[-1] if lines else ""}


def run(mutants, src: Path) -> dict:
    """Every mutant in turn; the summary and one record per mutant."""
    start = perf_counter()
    results = []
    for mutant in mutants:
        result = run_one(mutant, src)
        print(f"{mutant.name}: {'killed' if result['killed'] else 'SURVIVED'} "
              f"({result['seconds']} s) {result['pytest']}", flush=True)
        results.append(result)
    killed = sum(r["killed"] for r in results)
    return {"python": platform.python_version(), "cpus": os.cpu_count(), "mutants": len(results),
            "killed": killed, "survived": len(results) - killed,
            "seconds": round(perf_counter() - start, 1), "results": results}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_mutants.json")
    args = parser.parse_args(argv)
    src = ROOT / "src"
    gone = stale(MUTANTS, src)
    if gone:
        print("stale mutants, whose old text does not occur exactly once: " + ", ".join(gone), file=sys.stderr)
        return 2
    errors = uncollected(MUTANTS, src)
    if errors:
        print("node ids that collect no test:\n" + errors, file=sys.stderr)
        return 2
    summary = run(MUTANTS, src)
    print(f"killed={summary['killed']} survived={summary['survived']} seconds={summary['seconds']}")
    args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if summary["survived"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
