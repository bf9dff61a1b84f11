"""Seeded stand-in for the connected-quandle catalog, and its expected values.

The catalog holds, for every odd n from 7 to 47, one affine quandle
Aff(Z_n, t) (i*j = t*i + (1-t)*j mod n, with t and 1-t units) per cycle type
of x -> t*x. Every right translation of Aff(Z_n, t) is conjugate to that map,
so the cycle type fixes how much work the checkers do on the table; taking
one t from each type makes the work per catalog the same for every seed while
the seed still chooses which t. The catalog also holds the transposition
conjugation quandles of S_4 .. S_10, which are connected but not latin.

The seed chooses t within each cycle type, a relabeling of every table and
the file format (plain or gap_matrix, half of the files each). The tables are
built with the library's constructors, so generation exercises its table
validation; the expected values are computed here, from the file text alone,
without the library.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

AFFINE_ORDERS = tuple(range(7, 48, 2))
TRANSPOSITION_DEGREES = tuple(range(4, 11))


def affine_classes(n: int) -> dict[tuple[int, ...], list[int]]:
    """The t with t and 1-t units mod n, grouped by cycle type, in sorted order."""
    classes: dict[tuple[int, ...], list[int]] = {}
    for t in range(2, n):
        if math.gcd(t, n) == 1 and math.gcd(1 - t, n) == 1:
            # x -> t*x on Z_n, as images of 1..n
            column_type = tuple(cycle_lengths([t * x % n + 1 for x in range(n)]))
            classes.setdefault(column_type, []).append(t)
    return dict(sorted(classes.items()))


@dataclass(frozen=True)
class Spec:
    """One catalog table before relabeling: its family, parameters and expected column type."""

    name: str
    family: str  # "affine" or "transposition"
    n: int
    param: int  # t for affine, the degree of S_k for transposition
    column_type: tuple[int, ...]


def catalog_specs(rng: random.Random, max_order: int = 47) -> list[Spec]:
    """The tables of one catalog, named Q_<n>_<m>, t drawn from each cycle type by the rng."""
    specs = []
    index: dict[int, int] = {}

    def name(n: int) -> str:
        index[n] = index.get(n, 0) + 1
        return f"Q_{n}_{index[n]}"

    for n in AFFINE_ORDERS:
        if n > max_order:
            break
        for column_type, ts in affine_classes(n).items():
            specs.append(Spec(name(n), "affine", n, rng.choice(ts), column_type))
    for k in TRANSPOSITION_DEGREES:
        n = k * (k - 1) // 2
        if n > max_order:
            break
        fixed = 1 + (k - 2) * (k - 3) // 2
        specs.append(Spec(name(n), "transposition", n, k, (1,) * fixed + (2,) * (k - 2)))
    return specs


def build_table(spec: Spec):
    """The library quandle for a spec, before relabeling."""
    from quandles import Permutation, affine, conjugation

    if spec.family == "affine":
        return affine(spec.n, spec.param)
    k = spec.param
    swap = Permutation.from_cycles(k, [(1, 2)])
    rotate = Permutation.from_cycles(k, [tuple(range(1, k + 1))])
    return conjugation([swap, rotate], swap)


def write_catalog(directory: Path, seed: int, max_order: int = 47) -> list[tuple[Path, Spec]]:
    """Generate the seeded catalog into the directory; returns the files with their specs.

    Files left in the directory by an earlier catalog are removed first.
    """
    from quandles import Permutation, serialize_table

    rng = random.Random(seed)
    specs = catalog_specs(rng, max_order)
    formats = (["plain", "gap_matrix"] * len(specs))[: len(specs)]
    rng.shuffle(formats)
    directory.mkdir(parents=True, exist_ok=True)
    for old in directory.glob("*.qdl"):
        old.unlink()
    files = []
    for spec, fmt in zip(specs, formats):
        sigma = list(range(1, spec.n + 1))
        rng.shuffle(sigma)
        q = build_table(spec).relabel(Permutation(sigma))
        path = directory / f"{spec.name}.qdl"
        path.write_text(serialize_table(q, fmt))
        files.append((path, spec))
    return files


# ---------------------------------------------------------------------------
# Expected values, from the file text only.


def read_table(text: str) -> list[list[int]]:
    """Rows of a plain or gap_matrix table file."""
    body = "\n".join(line.split("#", 1)[0] for line in text.splitlines()).strip()
    if body.startswith("["):
        return json.loads(body)
    lines = [line.split() for line in body.splitlines() if line.strip()]
    n = int(lines[0][0])
    rows = [[int(v) for v in line] for line in lines[1:]]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("malformed plain table")
    return rows


def cycle_lengths(images: list[int]) -> list[int]:
    """Sorted cycle lengths of a permutation given by its 1-based images."""
    n = len(images)
    seen = [False] * (n + 1)
    lengths = []
    for start in range(1, n + 1):
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = images[x - 1]
            length += 1
        if length:
            lengths.append(length)
    return sorted(lengths)


def structure_text(lengths: list[int]) -> str:
    """Cycle-structure notation such as (1^2,4) for sorted cycle lengths."""
    terms = []
    for length in sorted(set(lengths)):
        mult = lengths.count(length)
        terms.append(f"{length}^{mult}" if mult > 1 else str(length))
    return "(" + ",".join(terms) + ")"


@dataclass(frozen=True)
class Expected:
    """What the toolkit must answer for one table file."""

    order: int
    connected: bool
    latin: bool
    unique_fixed_point: bool
    profile: str
    hayashi: bool
    hypothesis: bool
    column_types: tuple[tuple[int, ...], ...]

    def analyze_fields(self) -> dict[str, object]:
        """The fields the analyze command prints for this table."""
        return {
            "order": self.order,
            "connected": self.connected,
            "latin": self.latin,
            "unique-fixed-point": self.unique_fixed_point,
            "profile": self.profile,
            "hayashi": self.hayashi,
            "theorem-hypothesis": self.hypothesis,
            "theorem-conclusion": self.latin,
            "theorem-consistent": (not self.hypothesis) or self.latin,
        }


def expected_for(text: str) -> Expected:
    """Brute-force connectedness, latinity and the column cycle types of a table file."""
    rows = read_table(text)
    n = len(rows)
    columns = [[rows[i][j] for i in range(n)] for j in range(n)]
    types = [cycle_lengths(col) for col in columns]
    reached = {1}
    frontier = [1]
    while frontier:
        x = frontier.pop()
        for col in columns:
            y = col[x - 1]
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    connected = len(reached) == n
    if connected and any(t != types[0] for t in types):
        raise ValueError("connected table with differing column cycle types")
    return Expected(
        order=n,
        connected=connected,
        latin=all(len(set(row)) == n for row in rows),
        unique_fixed_point=all(t.count(1) == 1 for t in types),
        # Profile notation of a connected quandle: its one column structure.
        profile=structure_text(types[0]) if connected else "",
        hayashi=(not connected) or all(math.lcm(*t) == max(t) for t in types),
        hypothesis=all(len(set(t)) == len(t) for t in types),
        column_types=tuple(tuple(t) for t in types),
    )


def expected_totals(expected: list[Expected]) -> dict[str, int]:
    """The totals the report command prints for a directory of these tables."""
    latin = [e for e in expected if e.latin]
    return {
        "total entries": len(expected),
        "connected": sum(e.connected for e in expected),
        "latin": len(latin),
        "latin with repeat-free profile": sum(e.hypothesis for e in latin),
        "latin with repeats in profile": sum(not e.hypothesis for e in latin),
        "non-latin with unique fixed points": sum(
            e.connected and not e.latin and e.unique_fixed_point for e in expected
        ),
    }


def check_against_spec(expected: Expected, spec: Spec) -> None:
    """Raise if a generated file is not the table its spec describes."""
    if expected.order != spec.n or not expected.connected:
        raise ValueError(f"{spec.name}: expected a connected table of order {spec.n}")
    if expected.latin != (spec.family == "affine"):
        raise ValueError(f"{spec.name}: latinity does not match the {spec.family} family")
    if any(t != spec.column_type for t in expected.column_types):
        raise ValueError(f"{spec.name}: column cycle type is not {spec.column_type}")
