"""Time the CLI's start-up and each command's whole run, each in a fresh process.

    python3 scripts/startup_orders.py [--repeats 11] [--label NAME] [--src DIR] [--out FILE]

Stdlib only; takes about 15 s at the default repeat count. Each of the
commands below runs ``--repeats`` times, interleaved, in a fresh
``python3`` process that imports the package from DIR, a checkout or its
``src`` directory (default the checkout holding this script), and writes
no bytecode cache, so with no ``__pycache__`` beside the package every
process compiles each package module it imports, as when the cache cannot
be written (whether there is a cache is recorded as ``cached_bytecode``). In each process the script records:

* ``import_s``: the seconds of ``import quandles.cli``, timed inside it;
* ``wall_s``: the seconds of the whole process, timed around it, which
  include the interpreter's own start;
* the modules of the package and ``dataclasses`` that it holds at exit,
  the command's exit code and the sha256 of its standard output.

The medians over the repeats are recorded; two checkouts answer alike when
their exit codes and digests match. Results are merged into FILE (default
``BENCH_startup.json`` at the repository root) under NAME (default
``current``). The committed file holds, on 2 vCPUs with Python 3.11.7,
``eager-imports``, the checkout whose package imported every module and
whose value classes were dataclasses, against ``lazy-imports``, where each
command imports only the modules it runs; and ``parent-5cdc964``, whose
argument parser imported ``enumeration``, against ``least-labelings``,
where only ``enumerate`` and ``verify`` load it; then ``parent-0aaa07a``,
whose ``enumerate --tables`` and ``construct`` loaded ``catalog`` to print
tables, against ``stabiliser-screen``, where they load no ``catalog``;
then ``parent-799d5a3``, whose tables copied cycle data along their orbit
links, against ``orbit-verdicts``, where the checkers decide one column
per orbit and ``quandle`` compiles about 45 fewer lines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]

# The helper beside this script; package_source stays importable from here.
sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_file import add_run_options, merge_run, package_source  # noqa: E402,F401

# Name -> arguments; {table} is a plain table file, {catalog} a directory of them.
COMMANDS = {
    "check": ["check", "{table}"],
    "analyze": ["analyze", "example:Q9_4"],
    "enumerate": ["enumerate", "6", "--iso", "--tables"],
    "verify": ["verify", "6"],
    "report": ["report", "{catalog}"],
    "construct": ["construct", "dihedral:5"],
}

# Run in each fresh process: time the import, run the command with its
# output captured, and print what was loaded as one JSON line. Only the
# interpreter's own start precedes the timed import.
CHILD = """\
import sys, time
start = time.perf_counter()
import quandles.cli
import_s = time.perf_counter() - start
import contextlib, io
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = quandles.cli.main(sys.argv[1:])
modules = sorted(m for m in sys.modules if m.startswith("quandles.") or m == "dataclasses")
import hashlib, json
print(json.dumps({
    "import_s": import_s, "exit_code": code, "modules": modules,
    "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
}))
"""

# Two catalog tables, Q_{6,2} and Q_{9,4}, in the plain format.
TABLES = {
    "Q_6_2": "6\n1 5 1 6 4 2\n6 2 5 2 1 3\n3 6 3 5 2 4\n5 4 6 4 3 1\n2 3 4 1 5 5\n4 1 2 3 6 6\n",
    "Q_9_4": ("9\n1 3 2 9 8 7 6 5 4\n3 2 1 8 7 9 5 4 6\n2 1 3 7 9 8 4 6 5\n7 9 8 4 6 5 1 3 2\n"
              "9 8 7 6 5 4 3 2 1\n8 7 9 5 4 6 2 1 3\n5 4 6 2 1 3 7 9 8\n4 6 5 1 3 2 9 8 7\n"
              "6 5 4 3 2 1 8 7 9\n"),
}


def run_once(argv: list[str], env: dict[str, str]) -> dict:
    """One fresh process running ``quandles argv``: its record plus ``wall_s``."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True, text=True, env=env)
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"`quandles {' '.join(argv)}` failed: {proc.stderr.strip()}")
    return {**json.loads(proc.stdout), "wall_s": wall}


def measure(src: Path = ROOT / "src", repeats: int = 11) -> dict:
    """Per command: median import and wall seconds over fresh processes, and what it loaded."""
    with tempfile.TemporaryDirectory() as tmp:
        catalog = Path(tmp, "catalog")
        catalog.mkdir()
        for name, text in TABLES.items():
            (catalog / f"{name}.qdl").write_text(text)
        env = dict(os.environ, PYTHONPATH=str(src.resolve()), PYTHONDONTWRITEBYTECODE="1")
        fill = {"table": str(catalog / "Q_9_4.qdl"), "catalog": str(catalog)}
        argvs = {name: [arg.format(**fill) for arg in args] for name, args in COMMANDS.items()}
        runs: dict[str, list[dict]] = {name: [] for name in COMMANDS}
        for _ in range(repeats):
            for name, argv in argvs.items():
                runs[name].append(run_once(argv, env))
    result = {}
    for name, records in runs.items():
        last = records[-1]
        result[name] = {
            "argv": " ".join(COMMANDS[name]),
            "import_s": round(statistics.median(r["import_s"] for r in records), 4),
            "wall_s": round(statistics.median(r["wall_s"] for r in records), 4),
            "exit_code": max(r["exit_code"] for r in records),
            "stdout_sha256": last["stdout_sha256"],
            "modules": last["modules"],
        }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=11)
    add_run_options(parser, "BENCH_startup.json")
    args = parser.parse_args(argv)

    result = measure(args.src, args.repeats)
    for name, row in result.items():
        loaded = " ".join(m.removeprefix("quandles.") for m in row["modules"])
        print(f"{name}: import_s={row['import_s']} wall_s={row['wall_s']} exit={row['exit_code']}"
              f" loaded={loaded}", flush=True)
    run = {"python": platform.python_version(), "cpus": os.cpu_count(), "repeats": args.repeats,
           "cached_bytecode": (args.src / "quandles" / "__pycache__").exists(), "commands": result}
    merge_run(args.out, args.label, run)
    return 0


if __name__ == "__main__":
    sys.exit(main())
