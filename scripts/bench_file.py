"""The options and the output file that the ``scripts/*_orders.py`` timing scripts share.

Each script measures the ``quandles`` package of one checkout, chosen with
``--src`` (a checkout root or its ``src`` directory, default the checkout
holding this file), and merges its run into FILE under NAME, so runs of
two checkouts sit side by side.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def package_source(path: str) -> Path:
    """The directory holding the ``quandles`` package: ``path``, a checkout root or its ``src``."""
    for src in (Path(path) / "src", Path(path)):
        if (src / "quandles" / "__init__.py").is_file():
            return src.resolve()
    raise argparse.ArgumentTypeError(f"{path} holds neither src/quandles nor quandles")


def add_run_options(parser: argparse.ArgumentParser, out_name: str) -> None:
    """Add ``--label NAME`` (default ``current``), ``--src DIR`` and ``--out FILE`` (default ``ROOT/out_name``)."""
    parser.add_argument("--label", default="current")
    parser.add_argument("--src", type=package_source, default=str(ROOT),
                        help="the checkout, or its src directory, to measure")
    parser.add_argument("--out", type=Path, default=ROOT / out_name)


def merge_run(out: Path, label: str, run: dict) -> None:
    """Write ``run`` into the JSON object in ``out`` under ``label``, keeping the other labels."""
    data = json.loads(out.read_text()) if out.exists() else {}
    data[label] = run
    out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
