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
mutant survives. The thirty-three take about 40-55 s on 2 vCPUs with Python
3.11.7.

The mutants restate, on today's code, the faults each fast path was
checked against when it was added: a verdict decided once per table or
per orbit and taken by the other columns, a screen that decides without
walking points, a witness list that is capped, a scan that keeps a block
of the table first, a table built without its screen, and the orderly
search's levels and screens, the class test's prechecks, the pruning
of ``are_isomorphic``, the canonical form's fronts, the plain parser's
byte lookup, and a verdict or structure kept by the wrong key. Each new
fast path adds its own.
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
ENUMERATION = "quandles/enumeration.py"
CATALOG = "quandles/catalog.py"
SHARED = "tests/test_shared_cycle_data.py"
SEARCH = "tests/test_enumeration.py::TestSymmetryBreaking"
PARSE = "tests/test_catalog.py::TestParseTable"

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
        "division-screen-drops-m-1", CHECKS,
        "            if m % order:\n",
        "            if m % order and m > 1:\n",
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
        "column-structures-from-one-orbit", QUANDLE,
        "                structure = self._right_translation(min(block)).cycle_structure()\n",
        "                structure = self._right_translation(min(self._orbits[0])).cycle_structure()\n",
        (f"{SHARED}::TestSharedCycleData::test_each_column_takes_its_own_orbits_structure",),
        "every column takes the cycle structure of the first orbit's first column, not its own orbit's",
    ),
    Mutant(
        "later-translations-take-column-1-structure", QUANDLE,
        "                p._structure = self._structures[j - 1]\n",
        "                p._structure = self._structures[0]\n",
        (f"{SHARED}::TestPredicatesAgainstPointWalks::test_translations_built_later_take_their_own_structures",),
        "a translation built after the structures are known takes column 1's",
    ),
    Mutant(
        "class-test-block-fixes-identity-columns", ENUMERATION,
        "        return _scan_ties(_block_relabelings(n, k), maps, cols, k) or 0\n",
        "        return _scan_ties(_block_relabelings(n, k)[:math.factorial(n - k)], maps, cols, k) or 0\n",
        ("tests/test_enumeration.py::TestColumnMajorTies",),
        "the class test's block scan fixes the identity columns pointwise, so |Aut(Q)| is undercounted",
    ),
    Mutant(
        "canonical-block-scan-halved", ENUMERATION,
        "        for tab, inv in _block_relabelings(n, len(front)):\n",
        "        for tab, inv in _block_relabelings(n, len(front))[::2]:\n",
        ("tests/test_enumeration.py::TestCanonicalForm::test_table_and_witness_match_the_plain_scan",),
        "the canonical-form scan visits every other relabeling that keeps a front first",
    ),
    Mutant(
        "canonical-first-front-only", ENUMERATION,
        "    for front in fronts:\n",
        "    for front in fronts[:1]:\n",
        ("tests/test_enumeration.py::TestCanonicalForm::test_rows_tied_for_the_most_fixes_match_the_oracles[3-None]",),
        "the canonical-form scan visits the first of several rows tied for the most fixes, not each",
    ),
    Mutant(
        "canonical-form-columns-from-rows", QUANDLE,
        "tuple([table[c::n] for c in range(n)])",
        "tuple([table[c * n:c * n + n] for c in range(n)])",
        ("tests/test_enumeration.py::TestCanonicalForm::test_each_canonical_form_is_built_as_its_validated_table",),
        "a canonical form, built with no screen, keeps its rows as its byte columns",
    ),
    # Taking the block level when only column j is the identity is an
    # equivalent mutant, so it is not listed: an identity column after a
    # non-identity column k is always cut at level k, by the transposition
    # that moves it onto column k, before a level after it is built.
    Mutant(
        "search-block-one-point-short", ENUMERATION,
        "            for tab, inv in _block_relabelings(n, j + 1):\n",
        "            for tab, inv in _block_relabelings(n, j):\n",
        (f"{SEARCH}::test_keeps_exactly_the_tables_meeting_the_rule",),
        "the search's block level leaves column j out of the block, so its members can move column j",
    ),
    Mutant(
        "search-block-on-column-0-alone", ENUMERATION,
        "        if cols[:j + 1].count(identity) == j + 1:\n",
        "        if cols[0] == identity:\n",
        (f"{SEARCH}::test_first_table_of_each_class_is_its_least_labeling",),
        "the search's block level is taken whenever column 0 is the identity, and cuts least labelings",
    ),
    Mutant(
        "undercut-on-ties", ENUMERATION,
        "            if inv.translate(ptab).translate(tab) < target:\n",
        "            if inv.translate(ptab).translate(tab) <= target:\n",
        (f"{SEARCH}::test_keeps_exactly_the_tables_meeting_the_rule",),
        "the orderly rule cuts a branch when a relabeling ties it, not only when it undercuts",
    ),
    Mutant(
        "trail-skips-level-j", ENUMERATION,
        "        for i in range(1, j + 1):\n",
        "        for i in range(1, j):\n",
        (f"{SEARCH}::test_keeps_exactly_the_tables_meeting_the_rule",),
        "the columns a branch sets are not tested against the level of the branching column",
    ),
    Mutant(
        "trail-skips-every-level", ENUMERATION,
        "        for i in range(1, j + 1):\n",
        "        for i in range(1, 1):\n",
        (f"{SEARCH}::test_keeps_exactly_the_tables_meeting_the_rule",),
        "the columns a branch sets are tested by cycle type alone",
    ),
    Mutant(
        "stabiliser-precut-off", ENUMERATION,
        "            if group and undercut(group, p + tail, p):\n",
        "            if False and undercut(group, p + tail, p):\n",
        (f"{SEARCH}::test_keeps_exactly_the_tables_meeting_the_rule",),
        "a branching column is never screened by the stabiliser of its index, G_j",
    ),
    Mutant(
        "one-schreier-generator", ENUMERATION,
        "                if s != identity:\n",
        "                if s != identity and not found:\n",
        ("tests/test_enumeration.py::TestStabiliserScreen::test_generators_and_candidates_on_every_subquandle",),
        "the stabiliser screen keeps only the first Schreier generator",
    ),
    Mutant(
        "stabiliser-screen-off", ENUMERATION,
        "    generators = _stabiliser_generators(columns, j)\n",
        "    generators = set()\n",
        ("tests/test_enumeration.py::TestStabiliserScreen::test_the_unscreened_search_emits_the_same_stream",),
        "every candidate for a branching column is tried, none screened by the quandle's own symmetry",
    ),
    Mutant(
        "class-test-without-type-precheck", ENUMERATION,
        "    if min(types) < first_type:\n",
        "    if False:\n",
        ("tests/test_enumeration.py::TestColumnMajorTies::test_every_labeled_table",),
        "the class test keeps a table although a column of a smaller cycle type could come first",
    ),
    Mutant(
        "class-test-identity-shortcut-for-any-first-column", ENUMERATION,
        "                    if least < cols[1] and first_is_identity:\n",
        "                    if least < cols[1]:\n",
        ("tests/test_enumeration.py::TestColumnMajorTies::test_every_orderly_table_of_order_6",),
        "the class test's shortcut for R_1 = id rejects tables whose R_1 is not the identity",
    ),
    Mutant(
        "isomorphism-skips-trivial-points", ENUMERATION,
        "                if trivial_tried:\n",
        "                if True:\n",
        ("tests/test_enumeration.py::TestAreIsomorphic::test_shuffled_trivial_points_are_matched",),
        "are_isomorphic tries no unassigned trivial point, not one of them",
    ),
    Mutant(
        "isomorphism-first-point-one-orbit", ENUMERATION,
        "sorted(map(min, orbits(b)))",
        "sorted(map(min, orbits(b)))[:1]",
        ("tests/test_enumeration.py::TestAreIsomorphic::test_agrees_with_naive_search",),
        "are_isomorphic sends its first point into the first orbit of b only",
    ),
    Mutant(
        "entry-bytes-take-a-leading-zero", CATALOG,
        "_ENTRY_BYTES = {str(v): v for v in range(256)}\n",
        '_ENTRY_BYTES = {**{str(v): v for v in range(256)}, **{f"0{v}": v for v in range(10)}}\n',
        (f"{PARSE}::test_which_texts_take_the_entry_bytes",),
        "the plain parser's byte lookup holds \"07\", a spelling it must leave to the int() path",
    ),
    Mutant(
        "entry-bytes-take-256", CATALOG,
        "_ENTRY_BYTES = {str(v): v for v in range(256)}\n",
        "_ENTRY_BYTES = {str(v): v % 256 for v in range(257)}\n",
        (f"{PARSE}::test_lookup_and_int_paths_agree",),
        "the plain parser's byte lookup reads \"256\" as 0 instead of leaving it to the int() path",
    ),
    Mutant(
        "ragged-rows-take-the-byte-path", CATALOG,
        "        if decoded is not None and set(map(len, decoded)) == {n}:\n",
        "        if decoded is not None and sum(map(len, decoded)) == n * n:\n",
        (f"{PARSE}::test_lookup_and_int_paths_agree",),
        "plain rows of uneven widths that hold n * n entries in all are read as a table",
    ),
    Mutant(
        "latin-sufficiency-hypothesis-to-order-5", CHECKS,
        "    hypothesis = has_repeat_free_profile(q)\n",
        "    hypothesis = has_repeat_free_profile(q) and q.n <= 5\n",
        ("tests/test_checks.py::TestHypothesisTallies::test_each_order_pins_its_tallies",),
        "the latin-sufficiency hypothesis holds only up to order 5, so orders 6 and up test nothing",
    ),
    Mutant(
        "cycle-shift-memo-by-degree", CHECKS,
        "    verdict = None if _verdicts is None else _verdicts.get(structure)\n"
        "    if verdict is None:\n"
        "        counted, failures = _cycle_shift_failures(_consecutive_form(structure))\n"
        "        verdict = (counted, *_capped(failures))\n"
        "        if _verdicts is not None:\n"
        "            _verdicts[structure] = verdict\n",
        "    verdict = None if _verdicts is None else _verdicts.get(structure.degree)\n"
        "    if verdict is None:\n"
        "        counted, failures = _cycle_shift_failures(_consecutive_form(structure))\n"
        "        verdict = (counted, *_capped(failures))\n"
        "        if _verdicts is not None:\n"
        "            _verdicts[structure.degree] = verdict\n",
        ("tests/test_checks.py::TestVerdictsAcrossTables::test_a_passed_store_keeps_its_verdicts_across_calls",
         "tests/test_cli.py::TestVerify::test_one_cycle_shift_verdict_per_structure_per_run"),
        "the cycle-shift verdicts are keyed by degree, so structures of one degree share a verdict",
    ),
    Mutant(
        "all-checks-ignores-the-passed-store", CHECKS,
        "    if _verdicts is None:\n"
        "        _verdicts = {}\n",
        "    _verdicts = {}\n",
        ("tests/test_cli.py::TestVerify::test_one_cycle_shift_verdict_per_structure_per_run",),
        "all_checks keeps a fresh verdict dict per call, so verify decides each structure once per table",
    ),
    Mutant(
        "structures-kept-by-length-set", PERM,
        "        kept = _KEPT_STRUCTURES.get(entries)\n"
        "        if kept is None:\n"
        "            kept = _KEPT_STRUCTURES[entries] = cls(entries)\n",
        "        key = tuple(length for length, _ in entries)\n"
        "        kept = _KEPT_STRUCTURES.get(key)\n"
        "        if kept is None:\n"
        "            kept = _KEPT_STRUCTURES[key] = cls(entries)\n",
        ("tests/test_perm.py::TestCycleStructure::test_from_lengths_keeps_one_instance_per_structure",
         "tests/test_cli.py::TestVerify::test_order6_output_is_unchanged"),
        "from_lengths keeps one instance per set of lengths, so (1^2,2) is returned for (1,2)",
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
