import hashlib
import json
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

import quandles
from quandles import checks, cli, constructions, enumeration, perm
from quandles.catalog import serialize_table
from quandles.cli import main
from quandles.orbits import orbits
from quandles.perm import CycleStructure
from quandles.quandle import MAX_TABLE_ORDER, Quandle

# The child process imports the same package as this one, installed or not.
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, (str(Path(quandles.__file__).parents[1]), os.environ.get("PYTHONPATH")))
))

# sha256 of the standard output of `quandles verify 6 [--format records]`,
# recorded while verify still checked every labeled table.
VERIFY6_SHA256 = {
    "text": "d77ef349574baea89c83d4f5122eb921dfb01725619d1e96a1b655475e7bc6a5",
    "records": "6c73caf0a68f73cea44619fbeb04aecc29d7232c6f6f5545b49e0a943fa6e928",
}
# sha256 of the standard output of `quandles verify 7`, recorded the same way.
VERIFY7_SHA256 = "4426d366d244b23b5d236134cadac24b1db8422b51d08ee48a3ea80f6afd81e5"


def _inconsistent_on_latin(monkeypatch):
    # Inconsistent on exactly the latin tables, a property relabeling keeps.
    def check(q):
        return checks.CheckReport(name="latin-sufficiency", hypothesis_holds=True,
                                  conclusion_holds=not q.is_latin, counted_instances=1)

    monkeypatch.setattr(checks, "check_latin_sufficiency", check)


def _inconsistent_on_two_orbits(monkeypatch):
    # Inconsistent on the tables with exactly two orbits: 0, 1, 1, 3 and 5
    # classes at orders 1-5, against 1, 0, 1, 1 and 3 latin ones.
    def check(q):
        return checks.CheckReport(name="regular-cycle", hypothesis_holds=True,
                                  conclusion_holds=len(orbits(q)) != 2, counted_instances=1)

    monkeypatch.setattr(checks, "check_regular_cycle", check)


INCONSISTENT_ON = {"latin": _inconsistent_on_latin, "two-orbits": _inconsistent_on_two_orbits}


def run_cli(*args, stdin=""):
    proc = subprocess.run(
        [sys.executable, "-m", "quandles", *args],
        input=stdin, capture_output=True, text=True, env=CHILD_ENV,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestCheck:
    def test_valid_file(self, tmp_path, q62):
        path = tmp_path / "q.qdl"
        path.write_text(serialize_table(q62, "plain"))
        code, out, _ = run_cli("check", str(path))
        assert code == 0
        assert out.strip() == "valid quandle of order 6"

    def test_invalid_table(self, tmp_path):
        path = tmp_path / "bad.qdl"
        path.write_text("[[1,2],[1,2]]")
        code, out, err = run_cli("check", str(path))
        assert code == 1
        assert "column 1" in err

    def test_stdin(self, q94):
        code, out, _ = run_cli("check", "-", stdin=serialize_table(q94, "plain"))
        assert code == 0
        assert "order 9" in out

    def test_records(self):
        code, out, _ = run_cli("check", "example:Q6_2", "--format", "records")
        assert code == 0
        assert json.loads(out) == {"command": "check", "valid": True, "order": 6}


class TestAnalyze:
    def test_q62_line(self):
        code, out, _ = run_cli("analyze", "example:Q6_2")
        assert code == 0
        line = out.strip()
        for token in ("connected=yes", "latin=no", "profile=(1^2,4)", "theorem-hypothesis=no"):
            assert token in line

    def test_q94_line(self):
        code, out, _ = run_cli("analyze", "example:Q9_4")
        assert code == 0
        for token in ("latin=yes", "profile=(1,2,6)", "theorem-hypothesis=yes", "hayashi=pass"):
            assert token in out

    def test_byte_identical_across_runs(self):
        outputs = {run_cli("analyze", "example:Q9_4")[1] for _ in range(2)}
        assert len(outputs) == 1

    def test_records(self):
        code, out, _ = run_cli("analyze", "dihedral:5", "--format", "records")
        record = json.loads(out)
        assert record["latin"] == "yes"
        assert record["profile"] == "(1,2^2)"
        assert record["theorem-hypothesis"] == "no"


class TestEnumerate:
    def test_count_line(self):
        code, out, _ = run_cli("enumerate", "3", "--iso")
        assert code == 0
        assert out.strip() == "3 quandles"

    def test_tables_stream_parses_back(self):
        code, out, _ = run_cli("enumerate", "3", "--tables")
        assert code == 0
        blocks = [b for b in out.strip().split("\n\n") if b]
        assert len(blocks) == 5

    def test_filter(self):
        code, out, _ = run_cli("enumerate", "4", "--filter", "latin", "--format", "records")
        record = json.loads(out)
        assert record["filter"] == "latin"
        assert record["count"] >= 1

    def test_jobs_agree(self):
        _, serial, _ = run_cli("enumerate", "4", "--iso", "--jobs", "1", "--tables")
        _, parallel, _ = run_cli("enumerate", "4", "--iso", "--jobs", "3", "--tables")
        assert set(serial.split("\n\n")) == set(parallel.split("\n\n"))

    @pytest.mark.parametrize("predicate", [None, *sorted(enumeration.PREDICATES)])
    @pytest.mark.parametrize("iso", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_two_jobs_print_what_one_job_prints(self, n, iso, predicate, capsys):
        argv = ["enumerate", str(n), "--tables"] + (["--iso"] if iso else [])
        argv += ["--filter", predicate] if predicate else []
        outputs = []
        for jobs in ("1", "2"):
            assert main(argv + ["--jobs", jobs]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_guard(self):
        code, _, err = run_cli("enumerate", "9")
        assert code == 1
        assert "guard" in err


class TestVerify:
    def test_small_orders_pass(self):
        code, out, _ = run_cli("verify", "3")
        assert code == 0
        assert "order 3: 5 quandles" in out
        assert "all checks consistent" in out

    def test_verify_five_exits_zero(self):
        code, out, _ = run_cli("verify", "5")
        assert code == 0
        assert "order 5: 404 quandles" in out

    def test_records(self):
        code, out, _ = run_cli("verify", "2", "--format", "records")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records[-1]["ok"] is True

    def test_one_cycle_shift_verdict_per_structure_per_run(self, enumerated, monkeypatch, capsys):
        calls = []
        compute = checks._cycle_shift_failures
        monkeypatch.setattr(checks, "_cycle_shift_failures", lambda f: calls.append(f) or compute(f))
        assert main(["verify", "5"]) == 0
        assert "all checks consistent" in capsys.readouterr().out
        # one verdict per distinct cycle structure over the whole run, every order
        structures = {cs for n in range(1, 6) for q in enumerated(n, True) for cs in q.column_structures()}
        assert len(calls) == len(structures)
        assert {f.cycle_structure() for f in calls} == structures

    def test_order6_builds_one_cycle_structure_per_structure(self, monkeypatch, capsys):
        # Counted from an empty kept dict: the run's memo keeps each structure it met alive.
        built = []
        init = CycleStructure.__init__
        monkeypatch.setattr(perm, "_KEPT_STRUCTURES", weakref.WeakValueDictionary())
        monkeypatch.setattr(CycleStructure, "__init__", lambda cs, entries: built.append(entries) or init(cs, entries))
        assert main(["verify", "6"]) == 0
        assert "all checks consistent" in capsys.readouterr().out
        assert len(built) == len(set(built)) == 19

    def test_one_table_alive_at_a_time(self, monkeypatch, capsys):
        refs = []
        most_alive = 0
        class_tables = enumeration._class_tables

        def watched(task):
            nonlocal most_alive
            for q, labelings in class_tables(task):
                refs.append(weakref.ref(q))
                most_alive = max(most_alive, sum(r() is not None for r in refs))
                yield q, labelings

        monkeypatch.setattr(enumeration, "_class_tables", watched)
        assert main(["verify", "5"]) == 0
        assert "all checks consistent" in capsys.readouterr().out
        # one class representative per isomorphism class
        assert len(refs) == 1 + 1 + 3 + 7 + 22
        # the table being yielded and the one the caller still names
        assert most_alive <= 3

    @pytest.mark.parametrize("fmt", sorted(VERIFY6_SHA256))
    def test_order6_output_is_unchanged(self, fmt, capsys):
        assert main(["verify", "6", "--format", fmt]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == VERIFY6_SHA256[fmt]

    def test_verify_builds_no_canonical_form_and_tests_no_isomorphism(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("called")

        monkeypatch.setattr(enumeration, "_least_relabeling", refuse)
        monkeypatch.setattr(enumeration, "are_isomorphic", refuse)
        monkeypatch.setattr(Quandle, "iso_signature", refuse)
        assert main(["verify", "6"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == VERIFY6_SHA256["text"]

    def test_verify_reads_no_relabeling_table(self, relabelings_read, capsys):
        assert main(["verify", "6"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == VERIFY6_SHA256["text"]
        # The centralisers read the (n-1)! relabelings fixing 0; only the
        # labeled tables of an inconsistent class would read all n!.
        assert (6, 1) in relabelings_read and (6, 0) not in relabelings_read

    def test_order7_counts_every_labeled_table(self, capsys):
        assert main(["verify", "7"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[6:] == [
            "order 7: 152900 quandles, 2905100 reports, 0 inconsistent",
            "nonconnected refinement candidates: 0",
            "all checks consistent",
        ]
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY7_SHA256

    @pytest.mark.parametrize("patch", sorted(INCONSISTENT_ON))
    def test_an_inconsistent_class_prints_what_a_labeled_loop_prints(self, patch, monkeypatch, capsys):
        INCONSISTENT_ON[patch](monkeypatch)
        out, err = [], []
        total = candidates = 0
        for n in range(1, 6):
            tables = reports = bad = 0
            for q in enumeration.enumerate_quandles(enumeration.EnumerationTask(n)):
                tables += 1
                for report in checks.all_checks(q):
                    reports += 1
                    if not report.consistent:
                        bad += 1
                        err.append(f"INCONSISTENT {report.name} on order-{n} table {q.rows}\n")
                candidates += len(checks.search_nonconnected_refinement((q,)))
            total += bad
            out.append(f"order {n}: {tables} quandles, {reports} reports, {bad} inconsistent\n")
        out.append(f"nonconnected refinement candidates: {candidates}\n")
        out.append(f"{total} INCONSISTENT reports\n")
        assert total > 0

        assert main(["verify", "5"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("".join(out), "".join(err))

    def test_an_inconsistent_run_searches_each_order_once(self, monkeypatch, capsys):
        INCONSISTENT_ON["latin"](monkeypatch)
        calls = []
        raw_tables = enumeration._raw_tables
        monkeypatch.setattr(enumeration, "_raw_tables", lambda *a: calls.append(a) or raw_tables(*a))
        assert main(["verify", "5"]) == 1
        assert "INCONSISTENT" in capsys.readouterr().err
        assert calls == [(n,) for n in range(1, 6)]


class TestReport:
    def test_directory_report(self, tmp_path, q62, q94):
        (tmp_path / "Q_6_2.qdl").write_text(serialize_table(q62, "plain"))
        (tmp_path / "Q_9_4.qdl").write_text(serialize_table(q94, "plain"))
        code, out, _ = run_cli("report", str(tmp_path))
        assert code == 0
        assert "connected:" in out and "2" in out
        assert "(2,6)" in out

    def test_records(self, tmp_path, q94):
        (tmp_path / "Q_9_4.qdl").write_text(serialize_table(q94, "plain"))
        code, out, _ = run_cli("report", str(tmp_path), "--format", "records")
        record = json.loads(out)
        assert record["stats"]["latin"] == 1
        assert record["repeat_free"] == [{"n": 9, "m": [4], "profile": "(2,6)"}]

    def test_missing_directory_or_a_file_is_an_error(self, tmp_path, q94, capsys):
        table = tmp_path / "Q_9_4.qdl"
        table.write_text(serialize_table(q94, "plain"))
        for path, reason in ((tmp_path / "missing", "No such file or directory"),
                             (table, "Not a directory")):
            assert main(["report", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and reason in captured.err


class TestConstruct:
    def test_dihedral(self):
        code, out, _ = run_cli("construct", "dihedral:3")
        assert code == 0
        assert out == "3\n1 3 2\n3 2 1\n2 1 3\n"

    def test_roundtrip_through_check(self, tmp_path):
        code, out, _ = run_cli("construct", "affine:9,4")
        path = tmp_path / "t.qdl"
        path.write_text(out)
        assert run_cli("check", str(path))[0] == 0

    def test_bad_spec_is_usage_error(self):
        code, _, err = run_cli("construct", "banana:3")
        assert code == 2

    def test_bad_unit_is_validation_error(self):
        code, _, err = run_cli("construct", "affine:4,2")
        assert code == 1
        assert "unit" in err


# The transpositions of S_50: a closure of 1225 members, past the cap.
OVERSIZED_SPEC = "conjugation:50;(1 2);(" + " ".join(map(str, range(1, 51))) + "),(1 2)"


class TestConjugationCap:
    @pytest.mark.parametrize("command", ["check", "analyze", "construct"])
    def test_oversized_closure_stops_at_once(self, command, capsys):
        start = time.perf_counter()
        assert main([command, OVERSIZED_SPEC]) == 1
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "conjugation closure exceeds 256 members" in err

    def test_transpositions_of_s10_still_build(self, capsys):
        spec = "conjugation:10;(1 2);(1 2),(" + " ".join(map(str, range(1, 11))) + ")"
        assert main(["construct", spec]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "45" and len(lines) == 46


class TestTableOrderCap:
    @pytest.mark.parametrize("command", ["check", "analyze", "construct"])
    @pytest.mark.parametrize("spec", ["dihedral:3000", "affine:301,2", f"dihedral:{MAX_TABLE_ORDER + 1}"])
    def test_oversized_table_stops_at_once(self, command, spec, capsys):
        start = time.perf_counter()
        assert main([command, spec]) == 1
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"exceeds {MAX_TABLE_ORDER} (MAX_TABLE_ORDER)" in err


class TestOrderGuards:
    @pytest.mark.parametrize("argv", [
        ["verify", "9"],
        ["verify", "3", "--guard", "2"],
        ["enumerate", str(enumeration.LABELED_ORDER_GUARD + 1)],
        ["enumerate", str(enumeration.ISO_ORDER_GUARD + 1), "--iso", "--jobs", "2"],
        ["enumerate", str(enumeration.ISO_ORDER_GUARD + 1), "--iso"],
    ])
    def test_an_order_above_the_guard_stops_before_any_work(self, argv, capsys):
        start = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "guard" in err

    def test_verify_takes_the_iso_guard(self, monkeypatch, capsys):
        # With no classes to check, the run is the guard and the printing.
        monkeypatch.setattr(enumeration, "_class_tables", lambda task: iter(()))
        start = time.perf_counter()
        assert main(["verify", str(enumeration.ISO_ORDER_GUARD)]) == 0
        assert time.perf_counter() - start < 1
        out = capsys.readouterr().out.splitlines()
        assert out[enumeration.ISO_ORDER_GUARD - 1] == (
            f"order {enumeration.ISO_ORDER_GUARD}: 0 quandles, 0 reports, 0 inconsistent"
        )
        assert out[-1] == "all checks consistent"

    def test_the_parsers_literals_equal_their_sources(self):
        # The parser is built without importing enumeration, from copies.
        assert cli._FILTERS == tuple(sorted(enumeration.PREDICATES))
        assert cli._LABELED_ORDER_GUARD == enumeration.LABELED_ORDER_GUARD
        assert cli._ISO_ORDER_GUARD == enumeration.ISO_ORDER_GUARD


class TestUsage:
    def test_no_command(self):
        assert run_cli()[0] == 2

    def test_unknown_command(self):
        assert run_cli("frobnicate")[0] == 2

    @pytest.mark.parametrize("argv, argument", [
        (["enumerate", "0"], "order"),
        (["verify", "0"], "max_order"),
        (["enumerate", "3", "--jobs", "0"], "--jobs"),
        (["enumerate", "3", "--jobs", "-2"], "--jobs"),
        (["enumerate", "3", "--guard", "0"], "--guard"),
        (["verify", "2", "--guard", "-1"], "--guard"),
    ])
    def test_nonpositive_integer_is_usage_error(self, argv, argument):
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert f"argument {argument}: must be a positive integer" in err

    @pytest.mark.parametrize("command", ["check", "analyze", "construct"])
    @pytest.mark.parametrize("spec", ["dihedral:0", "affine:0,1", "example:", "example:nope", "banana:3", "affine:x",
                                      "conjugation:-2;;"])
    def test_bad_spec_is_usage_error(self, command, spec, capsys):
        assert main([command, spec]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("command", ["check", "analyze", "construct"])
    def test_degree_above_the_cap_is_usage_error(self, command, capsys):
        degree = constructions.MAX_CONJUGATION_DEGREE + 1
        assert main([command, f"conjugation:{degree};(1 2);(1 2 3)"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: degree {degree} exceeds {degree - 1} (MAX_CONJUGATION_DEGREE)\n"

    @pytest.mark.parametrize("command", ["check", "analyze", "construct"])
    def test_non_unit_is_validation_error(self, command, capsys):
        assert main([command, "affine:4,2"]) == 1
        assert "not a unit" in capsys.readouterr().err

    def test_main_callable_in_process(self, capsys):
        assert main(["analyze", "example:nonlatin3"]) == 0
        out = capsys.readouterr().out
        assert "connected=no" in out
        assert "profile=[(1^3),(1^3),(1,2)]" in out


def loaded_modules(*argv) -> set[str]:
    """The package's modules, ``dataclasses`` and ``json`` that a fresh process holds
    after importing the CLI and, given arguments, running ``quandles argv``."""
    code = ("import sys, quandles.cli\n"
            "if sys.argv[1:]: quandles.cli.main(sys.argv[1:])\n"
            "print(*(m for m in sys.modules if m.startswith('quandles.') or m in ('dataclasses', 'json')),"
            " file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


class TestStartup:
    def test_the_cli_import_loads_no_command_module(self):
        loaded = loaded_modules()
        assert not loaded & {"dataclasses", "json", "quandles.catalog", "quandles.constructions", "quandles.checks",
                             "quandles.enumeration"}

    def test_the_parser_names_the_enumeration_filters_and_guards(self, capsys):
        for argv in (["enumerate", "--help"], ["verify", "--help"]):
            with pytest.raises(SystemExit):
                main(argv)
        text = " ".join(capsys.readouterr().out.split())
        labeled, iso = enumeration.LABELED_ORDER_GUARD, enumeration.ISO_ORDER_GUARD
        assert f"--filter {{{','.join(sorted(enumeration.PREDICATES))}}}" in text
        assert f"(default {labeled}, or {iso} with --iso)" in text
        assert f"(default {iso})" in text

    def test_the_package_import_loads_only_the_orbits_function(self):
        code = "import sys, quandles; print(*sorted(m for m in sys.modules if m.startswith('quandles.')))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV)
        assert proc.stdout.split() == ["quandles._value", "quandles.orbits", "quandles.perm", "quandles.quandle"]

    def test_no_module_loads_dataclasses(self):
        code = "import sys; from quandles import *; import quandles.cli; print('dataclasses' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV)
        assert (proc.stdout, proc.stderr) == ("False\n", "")

    def test_enumerate_loads_no_checker_or_construction(self):
        loaded = loaded_modules("enumerate", "6", "--iso", "--tables")
        assert "quandles.enumeration" in loaded
        assert not loaded & {"dataclasses", "quandles.catalog", "quandles.checks", "quandles.constructions"}

    def test_verify_loads_no_catalog_or_construction(self):
        loaded = loaded_modules("verify", "6")
        assert "quandles.checks" in loaded
        assert not loaded & {"dataclasses", "quandles.catalog", "quandles.constructions"}

    def test_the_cli_does_not_load_the_process_pool(self):
        # Only `enumerate --jobs J` with J > 1 starts workers, and it imports the pool itself.
        code = ("import quandles.cli, sys;"
                " print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
