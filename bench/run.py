"""Benchmark runner for the quandles toolkit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--order N]

Run from anywhere; the program is imported from ``src/`` next to this
directory, with nothing installed. Workloads:

* ``enumerate-iso`` -- ``quandles enumerate 6 --iso --jobs 1 --tables``, each
  repetition in a fresh process (a closed loop of one).
* ``verify-all`` -- ``quandles verify 6``, each repetition in a fresh process.
* ``catalog-check`` -- a seeded catalog of connected quandles up to order 47
  (see ``seeded_catalog.py``); a closed loop with one client reads each file,
  parses it, runs ``all_checks`` and computes the analyze fields, then runs
  ``quandles report`` over the directory. One pass over the catalog is one
  operation.

The two exhaustive workloads accept ``--seed`` and ignore it. ``--order``
lowers the largest table order (6, or 47 for catalog-check) for quick tests.

With ``--trace 0`` the run repeats operations while one more fits in
``--seconds`` (at least three operations, and at least 250 requests on
catalog-check) and reports the end-to-end metrics, with operation times
scaled to a reference CPU speed by ``speed.py``. With ``--trace 1`` it runs
one untraced warm-up operation, then alternates untraced operations and
operations traced by ``tracer.py`` three times, all inside this process, and
reports the per-layer metrics; enumerate-iso adds the task with two jobs
after each untraced operation for the fan-out metrics. Every output is
checked; a wrong one counts as failed and the run goes on.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name and unit, the machine's ``nproc`` and the Python
version.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from pathlib import Path
from time import perf_counter

from speed import BOOTSTRAP, SpeedProbe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

JOBS = 2
EXHAUSTIVE_ORDER = 6
CATALOG_ORDER = 47
LABELED_COUNTS = {1: 1, 2: 1, 3: 5, 4: 36, 5: 404, 6: 6658}
CLASS_COUNTS = {1: 1, 2: 1, 3: 3, 4: 7, 5: 22, 6: 73}
# sha256 of the standard output of `quandles enumerate N --iso --jobs 1 --tables`,
# recorded when this benchmark was added.
ENUMERATE_DIGESTS = {
    4: "06c11360c143409970abe857998e3620f09c4ccb771b8f18a5e3c93e36db60c8",
    5: "aea96492d6c9f8ce5f4e76d5565bd44ccc0dd8985e45b915c2374265910ef0ba",
    6: "aae41c3de12ed7569fb3ab6ec43a3b0e84f6516f80546c129b0ba909dd86ad20",
}
IMPORT_REPEATS = 30
CATALOG_REPEATS = 7
TRACE_ROUNDS = 3
MIN_OPS = 3
# Three passes over the full catalog of 99 tables: around the median, one
# rank moves the latency by about 4%, so p50 needs more than two passes.
MIN_REQUESTS = 250
RUN_BUDGET_S = 170.0

FAN_OUT_METRICS = (
    "enumeration.parallel_subtasks",
    "enumeration.parallel_rows_merged",
    "enumeration.parallel_wait_s",
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
}

def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_us_per_call"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_efficiency")):
        return "ratio"
    return "count"


def percentile_ms(values: list[float], pct: int) -> float:
    """The pct-th percentile of durations in seconds, in ms (inclusive interpolation)."""
    if len(values) == 1:
        return values[0] * 1000
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1] * 1000


class Run:
    """One benchmark run: its work directory, deadline and failure count."""

    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.started = perf_counter()
        self.attempted = 0
        self.failed = 0
        self.lines: list[str] = []

    def remaining(self) -> float:
        return RUN_BUDGET_S - (perf_counter() - self.started)

    def keep_going(self, loop_start: float, done: int, minimum: int, last: float) -> bool:
        """Whether to start another operation.

        Yes until the minimum is done; after that, only if one more operation
        as long as the last one still ends within --seconds of loop_start.
        """
        if self.remaining() <= 0:
            return False
        return done < minimum or perf_counter() - loop_start + last <= self.args.seconds

    def record(self, problem: str | None, what: str) -> None:
        """Count one operation; a non-empty problem marks it failed."""
        self.attempted += 1
        if problem:
            self.failed += 1
            print(f"check failed: {what}: {problem}", file=sys.stderr)

    def python(self, argv: list[str]) -> tuple[float, float, int, str]:
        """Run the interpreter on argv in a fresh process.

        Returns wall seconds, the peak resident set in MB of the process and
        every child it waited for, the exit code, and the standard output.
        """
        out_path = self.workdir / "stdout.txt"
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
        with open(out_path, "wb") as out, open(self.workdir / "stderr.txt", "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=env, cwd=ROOT)
            timer = threading.Timer(max(1.0, self.remaining()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024, proc.returncode, out_path.read_text()

    def program(self, argv: list[str]) -> tuple[float, float, float, int, str]:
        """Run `quandles argv` in a fresh process under a speed probe.

        Returns its wall seconds, the speed factor that scales them to the
        reference speed, then the peak MB, exit code and standard output.
        """
        samples = self.workdir / "speed.txt"
        samples.unlink(missing_ok=True)
        wall, peak, code, stdout = self.python(["-c", BOOTSTRAP, str(BENCH), str(samples), *argv])
        probe = SpeedProbe.load(samples) if samples.exists() else SpeedProbe()
        return wall, probe.factor(), peak, code, stdout


def in_process_cli(argv: list[str]) -> tuple[int, str]:
    """quandles.cli.main(argv) in this process, with its standard output captured."""
    cli = importlib.import_module("quandles.cli")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def traced(fn):
    """Call fn(tracer) with a fresh tracer installed; returns the tracer, the seconds and fn's result."""
    from tracer import Tracer

    importlib.import_module("quandles.cli")
    tracer = Tracer()
    tracer.install()
    start = perf_counter()
    try:
        result = fn(tracer)
    finally:
        seconds = perf_counter() - start
        tracer.uninstall()
    return tracer, seconds, result


def pass_seconds(intervals: list[tuple[float, float]]) -> float:
    return sum(end - start for start, end in intervals)


class Workload:
    """What every workload shares: the traced run."""

    name = ""

    def __init__(self, run: Run):
        self.run = run

    def in_process(self, tracer=None) -> tuple[list[tuple[float, float]], object]:
        """One operation inside this process: the (start, end) of its timed parts, and its output."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Work a traced run does before its first operation."""

    def alongside(self, output) -> None:
        """Work a traced run does after each untraced operation, given its output."""

    def extra_metrics(self, serial: list[float]) -> dict[str, float]:
        """Metrics beyond the tracer's, given the unscaled seconds of the untraced operations."""
        return {"enumeration.parallel_serial_s": 0.0, "enumeration.parallel_efficiency": 0.0}

    def traced_run(self) -> dict[str, float]:
        """Per-layer metrics of a traced operation, and the tracer's overhead.

        One untraced operation warms the imports and caches and is not
        measured. Then an untraced and a traced operation alternate
        TRACE_ROUNDS times, all in this process, under one speed probe. The
        per-layer metrics come from the first traced operation;
        trace.overhead_s is the median traced seconds minus the median
        untraced seconds, both scaled to the reference speed.
        """
        from tracer import layer_metrics

        self.prepare()
        self.in_process()
        untraced, traced_s, serial = [], [], []
        first = None
        probe = SpeedProbe()
        probe.start()
        try:
            for _ in range(TRACE_ROUNDS):
                intervals, output = self.in_process()
                untraced.append(probe.scaled(intervals))
                serial.append(pass_seconds(intervals))
                self.alongside(output)
                tracer, _, (intervals, _) = traced(self.in_process)
                traced_s.append(probe.scaled(intervals))
                if first is None:
                    first = tracer
        finally:
            probe.stop()
        self.run.lines.append(f"scaled untraced seconds: {' '.join(f'{s:.3f}' for s in untraced)}")
        self.run.lines.append(f"scaled traced seconds: {' '.join(f'{s:.3f}' for s in traced_s)}")
        metrics = layer_metrics(first)
        metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced)
        metrics.update(self.extra_metrics(serial))
        first.write(WORK / f"spans-{self.name}.tsv.gz")
        return metrics


# ---------------------------------------------------------------------------
# Exhaustive workloads: one CLI invocation per operation, in a fresh process.


class Exhaustive(Workload):
    """A workload whose operation is one CLI command over every table of an order."""

    def __init__(self, run: Run):
        super().__init__(run)
        self.order = run.args.order or EXHAUSTIVE_ORDER
        if self.order not in CLASS_COUNTS:
            raise SystemExit(f"--order must be one of {sorted(CLASS_COUNTS)} for {self.name}")

    def argv(self) -> list[str]:
        raise NotImplementedError

    def check(self, code: int, stdout: str) -> str | None:
        raise NotImplementedError

    def fresh_operation(self) -> tuple[float, float, float]:
        """One timed operation in a fresh process: its wall seconds, the speed factor and the peak MB."""
        wall, factor, peak, code, stdout = self.run.program(self.argv())
        self.run.record(self.check(code, stdout), " ".join(self.argv()))
        return wall, factor, peak

    def setup(self) -> float:
        """Median seconds of a cold ``import quandles.cli`` in a fresh process.

        Unscaled: the speed probe's loop does not track the import's time
        (see README.md).
        """
        code = "import time; t = time.perf_counter(); import quandles.cli; print(time.perf_counter() - t)"
        self.run.python(["-c", code])  # compiles the bytecode cache; not timed
        times = []
        for _ in range(IMPORT_REPEATS):
            wall, _, exit_code, stdout = self.run.python(["-c", code])
            if exit_code != 0:
                self.run.record(f"exit code {exit_code}", "import quandles.cli")
                stdout = str(wall)
            times.append(float(stdout))
        return statistics.median(times)

    def timed(self) -> tuple[dict[str, float], int]:
        setup = self.setup()
        raw, scaled, peaks = [], [], []
        loop_start = perf_counter()
        while self.run.keep_going(loop_start, len(raw), MIN_OPS, raw[-1] if raw else 0.0):
            wall, factor, peak = self.fresh_operation()
            raw.append(wall)
            scaled.append(wall * factor)
            peaks.append(peak)
        self.run.lines.append(f"operations: {len(raw)}, each `quandles {' '.join(self.argv())}` in a fresh process")
        self.run.lines.append(f"unscaled wall seconds: {' '.join(f'{w:.3f}' for w in raw)}")
        return {
            "setup_s": setup,
            "wall_s": statistics.median(scaled),
            "peak_rss_mb": max(peaks),
            "request_p50_ms": percentile_ms(scaled, 50),
            "request_p90_ms": percentile_ms(scaled, 90),
        }, len(raw)

    def in_process(self, tracer=None) -> tuple[list[tuple[float, float]], str | None]:
        """One operation inside this process: its (start, end), and its output, or None if it raised."""
        what = ("traced " if tracer else "in-process ") + " ".join(self.argv())
        start = perf_counter()
        try:
            code, stdout = in_process_cli(self.argv())
        except Exception:
            traceback.print_exc()
            self.run.record("raised", what)
            return [(start, perf_counter())], None
        intervals = [(start, perf_counter())]
        self.run.record(self.check(code, stdout), what)
        return intervals, stdout


def table_blocks(stdout: str) -> list[str]:
    return [block for block in stdout.split("\n\n") if block.strip()]


class EnumerateIso(Exhaustive):
    """The timed operation uses one job: with two jobs on a shared two-vCPU host
    the wall time swung between 6 and 9 s from run to run. The traced run
    adds two-job operations for the fan-out metrics."""

    name = "enumerate-iso"

    def __init__(self, run: Run):
        super().__init__(run)
        self.parallel: list[float] = []
        self.one_job = ""

    def argv(self, jobs: int = 1) -> list[str]:
        return ["enumerate", str(self.order), "--iso", "--jobs", str(jobs), "--tables"]

    def check(self, code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        count = len(table_blocks(stdout))
        if count != CLASS_COUNTS[self.order]:
            return f"{count} tables, expected {CLASS_COUNTS[self.order]}"
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        expected = ENUMERATE_DIGESTS.get(self.order)
        if expected is not None and digest != expected:
            return f"output digest {digest} differs from the recorded one"
        return None

    def two_jobs(self, tracer=None) -> None:
        """The task with two jobs in this process, checked against the last one-job output."""
        argv = self.argv(jobs=JOBS)
        start = perf_counter()
        code, stdout = in_process_cli(argv)
        if tracer is None:
            self.parallel.append(perf_counter() - start)
        problem = f"exit code {code}" if code else None
        if not problem and sorted(table_blocks(stdout)) != sorted(table_blocks(self.one_job)):
            problem = "two jobs printed other tables than one job"
        self.run.record(problem, ("traced " if tracer else "") + " ".join(argv))

    def alongside(self, output) -> None:
        self.one_job = output or ""
        self.two_jobs()

    def extra_metrics(self, serial: list[float]) -> dict[str, float]:
        """Fan-out metrics from a traced two-job operation; efficiency from the untraced ones.

        The one-job and two-job seconds are unscaled: the speed probe runs in
        this process, which waits while the workers run.
        """
        from tracer import layer_metrics

        tracer, _, _ = traced(self.two_jobs)
        fan_out = layer_metrics(tracer)
        self.run.lines.append(f"unscaled two-job seconds: {' '.join(f'{s:.3f}' for s in self.parallel)}")
        return {
            **{name: fan_out[name] for name in FAN_OUT_METRICS},
            "enumeration.parallel_serial_s": statistics.median(serial),
            "enumeration.parallel_efficiency": statistics.median(serial) / (JOBS * statistics.median(self.parallel)),
        }


class VerifyAll(Exhaustive):
    name = "verify-all"

    def argv(self) -> list[str]:
        return ["verify", str(self.order)]

    def check(self, code: int, stdout: str) -> str | None:
        expected = [
            f"order {n}: {LABELED_COUNTS[n]} quandles, {LABELED_COUNTS[n] * (5 + 2 * n)} reports, 0 inconsistent"
            for n in range(1, self.order + 1)
        ]
        expected += ["nonconnected refinement candidates: 0", "all checks consistent"]
        if stdout.splitlines() != expected:
            return "output differs from the expected per-order counts"
        if code != 0:
            return f"exit code {code}"
        return None


# ---------------------------------------------------------------------------
# catalog-check: a closed loop with one client over a seeded catalog.

_TOTAL_RE = re.compile(r"^([a-z][a-z -]*?):\s+(\d+)$")


class CatalogCheck(Workload):
    name = "catalog-check"

    def __init__(self, run: Run):
        super().__init__(run)
        self.order = run.args.order or CATALOG_ORDER
        self.directory = run.workdir / "catalog"
        self.requests: list[tuple[Path, object]] = []
        self.totals: dict[str, int] = {}

    def generate(self) -> tuple[float, float]:
        """Write the seeded catalog; returns when it started and ended."""
        import seeded_catalog

        start = perf_counter()
        files = seeded_catalog.write_catalog(self.directory, self.run.args.seed, self.order)
        end = perf_counter()
        self.requests = []
        for path, spec in files:
            try:
                expected = seeded_catalog.expected_for(path.read_text())
                seeded_catalog.check_against_spec(expected, spec)
            except ValueError as e:
                self.run.record(str(e), f"generated {path.name}")
                continue
            self.requests.append((path, expected))
        random.Random(f"order-{self.run.args.seed}").shuffle(self.requests)
        self.totals = seeded_catalog.expected_totals([e for _, e in self.requests])
        return start, end

    def prepare(self) -> None:
        self.generate()

    @staticmethod
    def analyze(path: Path) -> tuple[list, dict[str, object]]:
        """One request: read, parse, run every checker, compute the analyze fields."""
        catalog = importlib.import_module("quandles.catalog")
        checks = importlib.import_module("quandles.checks")
        orbits = importlib.import_module("quandles.orbits")
        q = catalog.parse_table(path.read_text(), "auto")
        reports = checks.all_checks(q)
        sufficiency = checks.check_latin_sufficiency(q)
        hayashi = checks.check_regular_cycle(q)
        fields = {
            "order": q.n,
            "connected": orbits.is_connected(q),
            "latin": q.is_latin,
            "unique-fixed-point": q.has_unique_fixed_points,
            "profile": str(q.profile()),
            "hayashi": hayashi.consistent,
            "theorem-hypothesis": sufficiency.hypothesis_holds,
            "theorem-conclusion": sufficiency.conclusion_holds,
            "theorem-consistent": sufficiency.consistent,
        }
        return reports, fields

    def in_process(self, tracer=None) -> tuple[list[tuple[float, float]], list]:
        """One pass: every request once, then one report.

        Returns the (start, end) of every request and of the report, last,
        and the answers.
        """
        intervals = []
        answers = []
        for i, (path, expected) in enumerate(self.requests):
            if tracer is not None:
                tracer.run_id = i + 1
            start = perf_counter()
            try:
                reports, fields = self.analyze(path)
            except Exception as e:  # a crash is a failed request; the loop goes on
                intervals.append((start, perf_counter()))
                self.run.record(f"raised {e!r}", path.name)
                answers.append(None)
                continue
            intervals.append((start, perf_counter()))
            problem = None
            if not all(r.consistent for r in reports):
                problem = "inconsistent checker report"
            elif fields != expected.analyze_fields():
                problem = f"analyze fields {fields} differ from {expected.analyze_fields()}"
            self.run.record(problem, path.name)
            answers.append((fields, [(r.name, r.consistent) for r in reports]))
        if tracer is not None:
            tracer.run_id = 0
        start = perf_counter()
        try:
            code, stdout = in_process_cli(["report", str(self.directory)])
        except Exception as e:
            code, stdout = None, repr(e)
        intervals.append((start, perf_counter()))
        totals = {m.group(1): int(m.group(2)) for m in map(_TOTAL_RE.match, stdout.splitlines()) if m}
        problem = None
        if code != 0:
            problem = f"exit code {code}"
        elif totals != self.totals:
            problem = f"report totals {totals} differ from {self.totals}"
        self.run.record(problem, "report")
        answers.append(stdout)
        return intervals, answers

    def timed(self) -> tuple[dict[str, float], int]:
        raw: list[float] = []
        walls: list[float] = []
        latencies: list[float] = []
        probe = SpeedProbe()
        probe.start()
        try:
            generated = [self.generate() for _ in range(CATALOG_REPEATS)]
            setup = statistics.median(probe.scaled([interval]) for interval in generated)
            loop_start = perf_counter()
            while self.run.keep_going(loop_start, len(latencies), MIN_REQUESTS, raw[-1] if raw else 0.0):
                intervals = self.in_process()[0]
                raw.append(pass_seconds(intervals))
                scaled = [probe.scaled([interval]) for interval in intervals]
                walls.append(sum(scaled))
                latencies.extend(scaled[:-1])
        finally:
            probe.stop()
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        unscaled_setup = statistics.median(end - start for start, end in generated)
        self.run.lines.append(f"unscaled setup seconds: median {unscaled_setup:.4f} of {len(generated)} generations")
        self.run.lines.append(f"passes: {len(walls)} over {len(self.requests)} tables")
        self.run.lines.append(f"unscaled pass seconds: {' '.join(f'{w:.3f}' for w in raw)}")
        return {
            "setup_s": setup,
            "wall_s": statistics.median(walls),
            "peak_rss_mb": peak,
            "request_p50_ms": percentile_ms(latencies, 50),
            "request_p90_ms": percentile_ms(latencies, 90),
        }, len(latencies)


WORKLOADS = {w.name: w for w in (EnumerateIso, VerifyAll, CatalogCheck)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--order", type=int, default=None,
                        help="largest table order (default 6, or 47 for catalog-check)")
    args = parser.parse_args(argv)
    if not (SRC / "quandles" / "__init__.py").is_file():
        print(f"error: no quandles sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        run = Run(args, Path(tmp))
        workload = WORKLOADS[args.workload](run)
        header = (
            f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
            f" nproc={len(os.sched_getaffinity(0))} python={platform.python_version()}"
        )
        if args.trace:
            values = workload.traced_run()
            units = {name: layer_unit(name) for name in values}
        else:
            values, samples = workload.timed()
            units = END_TO_END_UNITS
    print(header)
    for line in run.lines:
        print("# " + line)
    for name, value in values.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    if not args.trace:
        print(f"# request samples = {samples}")
    print(f"# error_rate = {run.failed / max(run.attempted, 1):g} ({run.failed} of {run.attempted} operations failed)")
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
