"""Run the benchmark over several seeds and summarise its spread.

    python3 bench/sweep.py [--traced] [--out bench/baseline.json]

For every workload of BENCHMARK.json, this runs ``bench/run.py --trace 0``
once for each of the seeds 1 to 10 with the file's ``run_seconds`` and
prints every end-to-end metric by name and unit: its median, quartiles and
the quartile distance as a share of the median, next to the metric's bound.
A spread above a third of its bound is flagged ``WIDE``. With ``--traced``
it then makes two traced runs per workload on seed 1, checks that every
count repeats exactly, and prints the per-layer metrics. ``--out`` writes everything as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; returns its result object."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "run_seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run_once(workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
        entry = {
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "end_to_end": {},
        }
        print(f"{workload}: {entry['failed']} of {entry['attempted']} operations failed"
              f" over {len(results)} runs")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            stats = spread([r["metrics"][name]["value"] for r in results])
            stats["unit"] = metric["unit"]
            stats["bound"] = metric["bound"]
            stats["values"] = [r["metrics"][name]["value"] for r in results]
            entry["end_to_end"][name] = stats
            flag = "" if stats["spread"] <= metric["bound"] / 3 else "  WIDE"
            print(f"  {name:16} {stats['median']:12.6g} {metric['unit']:3}"
                  f"  q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}"
                  f"  spread {stats['spread']:.3f} (bound {metric['bound']}){flag}")
        if args.traced:
            first = run_once(workload, SEEDS[0], spec["run_seconds"], 1)
            second = run_once(workload, SEEDS[0], spec["run_seconds"], 1)
            layer = {}
            for metric in spec["per_layer"]:
                name = metric["name"]
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                layer[name] = {"value": a, "unit": metric["unit"]}
                repeat = ""
                if metric["unit"] == "count":
                    repeat = "  repeats" if a == b else f"  DIFFERS ({b})"
                print(f"  {name:44} {a:12.6g} {metric['unit']}{repeat}")
            entry["traced"] = layer
            entry["traced_correct"] = first["correct"] and second["correct"]
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
