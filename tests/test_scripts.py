"""The timing scripts under scripts/ call private search functions; run them at small orders."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_iso_orders_measures_the_orderly_search():
    result = load("iso_orders").measure(6)
    assert result["stream_unchanged"]
    assert result["searched_tables"] == 113
    assert result["peak_rss_mb"] > 0


def test_labeled_orders_measures_the_labeled_search():
    result = load("labeled_orders").measure(6)
    assert result["tables"] == 6658
    assert result["wall_s"] > 0 and result["peak_rss_mb"] > 0


def test_verify_orders_measures_verify():
    result = load("verify_orders").measure(4)
    assert result["stdout_unchanged"]
    assert (result["tables"], result["reports"], result["inconsistent"]) == (36, 468, 0)


def test_mutants_are_fresh_and_one_survives_a_weak_test_list():
    mutants = load("mutants")
    src = SCRIPTS.parent / "src"
    assert mutants.stale(mutants.MUTANTS, src) == []
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    strong = next(m for m in mutants.MUTANTS if m.name == "walk-skip-inverted")
    weak = strong._replace(name="weak", tests=("tests/test_values.py::TestDefaults::test_check_report",))
    # A package that no longer imports fails at conftest: killed, whatever the tests.
    unimportable = weak._replace(name="unimportable", new="        walk = (\n")
    summary = mutants.run([strong, weak, unimportable], src)
    assert [(r["name"], r["killed"]) for r in summary["results"]] == [
        ("walk-skip-inverted", True), ("weak", False), ("unimportable", True)]
    assert (summary["killed"], summary["survived"]) == (2, 1)


def test_mutants_exit_2_on_a_stale_text_or_misnamed_tests(monkeypatch, tmp_path):
    mutants = load("mutants")
    mutant = mutants.MUTANTS[0]
    out = tmp_path / "mutants.json"
    monkeypatch.setattr(mutants, "MUTANTS", (mutant._replace(old="no such text\n"),))
    assert mutants.main(["--out", str(out)]) == 2
    monkeypatch.setattr(mutants, "MUTANTS", (mutant._replace(tests=("tests/test_values.py::no_such_test",)),))
    assert mutants.main(["--out", str(out)]) == 2
    assert not out.exists()


def test_catalog_orders_times_every_stage():
    result = load("catalog_orders").measure(11, rounds=1)
    assert result["answers_unchanged"] and result["exit_code"] == 0
    # Aff(Z_n, t) by cycle type: 1, 2, 3, 2, 3 tables at n = 3..11; S_4 and S_5
    assert result["tables"] == 13
    # the digests of the point-by-point checkout at this order
    assert result["reports_sha256"].startswith("21c5fe34a218")
    assert result["report_stdout_sha256"].startswith("d23c2e753ae5")
    # the report records, details included, of the checkout that walked every column
    assert result["records_sha256"].startswith("a83fe3527823")
    stages = ("parse_s", "conjugation_identity_s", "left_refinement_s", "cycle_shift_s", "records_s", "report_s")
    assert all(result[stage] > 0 for stage in stages)


def test_startup_orders_runs_each_command_in_a_fresh_process():
    result = load("startup_orders").measure(repeats=1)
    assert list(result) == ["check", "analyze", "enumerate", "verify", "report", "construct"]
    assert all(row["exit_code"] == 0 and 0 < row["import_s"] < row["wall_s"] for row in result.values())
    assert not any("dataclasses" in row["modules"] for row in result.values())
    loads = {name: {m.removeprefix("quandles.") for m in row["modules"]} for name, row in result.items()}
    assert loads["verify"] >= {"checks", "enumeration"} and not loads["verify"] & {"catalog", "constructions"}
    assert "enumeration" in loads["enumerate"] and not loads["enumerate"] & {"catalog", "checks", "constructions"}
    assert "constructions" in loads["analyze"] and "catalog" not in loads["analyze"]
    assert not loads["check"] & {"checks", "constructions"}


@pytest.mark.parametrize("name, argv", [
    ("iso_orders", ["--orders", "6"]),
    ("verify_orders", ["--orders", "4"]),
    ("catalog_orders", ["--max-order", "11", "--rounds", "1"]),
])
def test_main_merges_each_label_into_the_file(name, argv, tmp_path, monkeypatch):
    # main() puts --src on sys.path; the copy is restored afterwards.
    monkeypatch.setattr(sys, "path", sys.path[:])
    out = tmp_path / "bench.json"
    main = load(name).main
    for label in ("parent", "change"):
        assert main(argv + ["--label", label, "--out", str(out)]) == 0
    assert sorted(json.loads(out.read_text())) == ["change", "parent"]


SCRIPT_NAMES = ["catalog_orders", "iso_orders", "labeled_orders", "startup_orders", "verify_orders"]


@pytest.mark.parametrize("name", SCRIPT_NAMES)
def test_src_takes_a_checkout_or_its_src_directory(name):
    package_source = load(name).package_source
    root = SCRIPTS.parent
    assert package_source(str(root)) == package_source(str(root / "src")) == root / "src"


@pytest.mark.parametrize("name", SCRIPT_NAMES)
def test_src_holding_no_package_fails_before_any_run(name, tmp_path, capsys):
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as stop:
        load(name).main(["--src", str(tmp_path), "--out", str(out)])
    assert stop.value.code == 2 and not out.exists()
    assert "holds neither src/quandles nor quandles" in capsys.readouterr().err


def test_main_measures_a_checkout_root(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", sys.path[:])
    out = tmp_path / "bench.json"
    assert load("verify_orders").main(["--orders", "4", "--src", str(SCRIPTS.parent), "--out", str(out)]) == 0
    assert sys.path[0] == str(SCRIPTS.parent / "src")
    assert json.loads(out.read_text())["current"]["orders"]["4"]["stdout_unchanged"]
