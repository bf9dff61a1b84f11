"""Tests of the benchmark itself, on reduced sizes.

    python3 -m pytest bench/test_bench.py

They check that tracing and the speed probe change no answer (orders up to
5 and a handful of catalog tables), that every metric of BENCHMARK.json is
emitted with its unit, that the correctness gates catch wrong output, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import seeded_catalog  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def make_run(tmp_path: Path, workload: str, order: int, seed: int = 3) -> run.Run:
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0.0, trace=1, order=order)
    return run.Run(args, tmp_path)


def traced_cli(argv: list[str]) -> tuple[Tracer, tuple[int, str]]:
    tracer, _, result = run.traced(lambda t: run.in_process_cli(argv))
    return tracer, result


@pytest.mark.parametrize("argv", [
    ["verify", "5"],
    ["enumerate", "5", "--iso", "--jobs", "2", "--tables"],
    ["enumerate", "4", "--tables"],
])
def test_tracing_changes_no_cli_output(argv):
    untraced = run.in_process_cli(argv)
    tracer, traced = traced_cli(argv)
    assert traced == untraced
    assert len(tracer.name) > 0


def test_tracing_changes_no_catalog_answer(tmp_path):
    check = run.CatalogCheck(make_run(tmp_path, "catalog-check", order=11))
    check.generate()
    assert 5 <= len(check.requests) <= 12
    untraced = check.in_process()[1]
    tracer, _, (_, traced) = run.traced(check.in_process)
    assert traced == untraced
    assert check.run.failed == 0
    assert set(tracer.run) == set(range(len(check.requests) + 1))


def test_uninstall_restores_every_original():
    import quandles
    from quandles import checks, perm, quandle

    before = (checks.check_cycle_shift, quandles.is_connected, checks.orbits,
              quandle.Quandle.__init__, perm.Permutation.__pow__)
    tracer = Tracer()
    tracer.install()
    try:
        assert checks.check_cycle_shift is not before[0]
        assert checks.orbits is not before[2]
        assert quandle.Quandle.__init__ is not before[3]
    finally:
        tracer.uninstall()
    after = (checks.check_cycle_shift, quandles.is_connected, checks.orbits,
             quandle.Quandle.__init__, perm.Permutation.__pow__)
    assert after == before


def test_self_time_excludes_children():
    from quandles import builtin_example, checks

    q = builtin_example("Q9_4")
    tracer, _, _ = run.traced(lambda t: checks.all_checks(q))
    spans = tracer.summary()
    calls, total, own = spans["checks.check_cycle_shift"]
    assert calls == 9
    assert 0 < own < total
    assert spans["perm.Permutation.__pow__"][0] > 0


def test_layer_counts_match_the_enumeration():
    from tracer import layer_metrics

    tracer, (code, _) = traced_cli(["verify", "4"])
    metrics = layer_metrics(tracer)
    tables = sum(run.LABELED_COUNTS[n] for n in range(1, 5))
    assert code == 0
    assert metrics["enumeration.tables"] == metrics["checks.all_checks_calls"] == tables
    assert metrics["checks.reports"] == sum(run.LABELED_COUNTS[n] * (5 + 2 * n) for n in range(1, 5))

    tracer, _ = traced_cli(["enumerate", "4", "--iso", "--jobs", "2", "--tables"])
    metrics = layer_metrics(tracer)
    assert metrics["enumeration.tables"] == metrics["enumeration.parallel_rows_merged"] == 36
    assert metrics["enumeration.canonical_form_calls"] == run.CLASS_COUNTS[4]


@pytest.mark.parametrize("argv", [["verify", "4"], ["enumerate", "0"], ["enumerate", "4", "--iso", "--jobs", "2"]])
def test_speed_probe_changes_no_output(tmp_path, argv):
    probed = make_run(tmp_path, "verify-all", order=4).program(argv)
    plain = subprocess.run([sys.executable, "-m", "quandles", *argv], cwd=ROOT, capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert probed[3:] == (plain.returncode, plain.stdout)
    assert probed[1] > 0


def test_speed_probe_samples_while_started(tmp_path):
    probe = SpeedProbe()
    probe.start()
    try:
        start = perf_counter()
        while perf_counter() - start < 0.3:
            pass
    finally:
        probe.stop()
    assert len(probe.took) >= 3
    assert probe.factor(start, start + 0.1) > 0
    probe.save(tmp_path / "samples.txt")
    loaded = SpeedProbe.load(tmp_path / "samples.txt")
    assert (loaded.at, loaded.took) == (probe.at, probe.took)


def run_benchmark(workload: str, trace: int, order: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--order", str(order)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


REDUCED = {"enumerate-iso": 4, "verify-all": 4, "catalog-check": 9}


@pytest.mark.parametrize("workload", sorted(REDUCED))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_benchmark(workload, trace, REDUCED[workload])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in listed
    }
    for name, metric in result["metrics"].items():
        assert f"# {name} = " in proc.stdout
        if not trace:
            assert metric["value"] > 0


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        proc = run_benchmark("catalog-check", 1, 11)
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["checks.cycle_shift_calls"] > 0


def test_exhaustive_gates_catch_wrong_output(tmp_path):
    enumerate_iso = run.EnumerateIso(make_run(tmp_path, "enumerate-iso", order=4))
    code, stdout = run.in_process_cli(enumerate_iso.argv())
    assert enumerate_iso.check(code, stdout) is None
    blocks = run.table_blocks(stdout)
    assert enumerate_iso.check(code, "\n\n".join(blocks[:-1]) + "\n\n") is not None
    assert enumerate_iso.check(code, stdout + " ") is not None
    assert enumerate_iso.check(1, stdout) is not None

    verify = run.VerifyAll(make_run(tmp_path, "verify-all", order=4))
    code, stdout = run.in_process_cli(verify.argv())
    assert verify.check(code, stdout) is None
    assert verify.check(code, stdout.replace("36 quandles", "35 quandles")) is not None
    assert verify.check(1, stdout) is not None


def test_wrong_catalog_answers_count_as_failures(tmp_path):
    check = run.CatalogCheck(make_run(tmp_path, "catalog-check", order=9))
    check.generate()
    path, expected = check.requests[0]
    check.requests[0] = (path, seeded_catalog.Expected(**{**expected.__dict__, "latin": not expected.latin}))
    check.in_process()
    assert check.run.failed == 1
    assert check.run.attempted == len(check.requests) + 1


def test_catalog_is_seeded_and_balanced(tmp_path):
    a = seeded_catalog.write_catalog(tmp_path / "a", seed=7)
    b = seeded_catalog.write_catalog(tmp_path / "b", seed=7)
    c = seeded_catalog.write_catalog(tmp_path / "c", seed=8)
    text = lambda files: [p.read_text() for p, _ in files]  # noqa: E731
    assert text(a) == text(b)
    assert text(a) != text(c)
    assert [s.column_type for _, s in a] == [s.column_type for _, s in c]
    assert len(a) >= 99
    gap = sum(t.startswith("[") for t in text(a))
    assert abs(2 * gap - len(a)) <= 1


def test_expected_values_by_brute_force():
    # Aff(Z_7, 3): x -> 3x has cycle type (1,6); latin, so connected.
    rows = [[(3 * i - 2 * j) % 7 + 1 for j in range(7)] for i in range(7)]
    text = "7\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n"
    e = seeded_catalog.expected_for(text)
    assert (e.connected, e.latin, e.profile, e.hypothesis, e.hayashi) == (True, True, "(1,6)", True, True)
    # Transpositions of S_4 under conjugation: connected, not latin, two fixed points per column.
    spec = seeded_catalog.catalog_specs(random.Random(0), max_order=6)[-1]
    q = seeded_catalog.build_table(spec)
    e = seeded_catalog.expected_for(json.dumps([list(r) for r in q.rows]))
    assert (e.order, e.connected, e.latin, e.unique_fixed_point) == (6, True, False, False)
    assert e.profile == "(1^2,2^2)"
    seeded_catalog.check_against_spec(e, spec)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_benchmark("verify-all", 0, 4, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
