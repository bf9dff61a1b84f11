"""Generators of known quandle families and bundled example tables.

Conventions: residues 0..n-1 map to elements 1..n (residue r is element
r+1), and the affine operation is i*j = t*i + (1-t)*j so that right
translations (columns) are the affine automorphisms. The opposite
convention i*j = t*j + (1-t)*i is not a quandle in general and is
deliberately not offered.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .perm import DegreeMismatchError, Permutation
from .quandle import Quandle


class NotAUnitError(ValueError):
    def __init__(self, t: int, n: int):
        super().__init__(f"{t} is not a unit mod {n}: gcd = {math.gcd(t, n)}")


class UnknownExampleError(ValueError):
    def __init__(self, name: str):
        super().__init__(f"unknown example {name!r}; available: {', '.join(sorted(EXAMPLE_TABLES))}")


class ConstructionSpecError(ValueError):
    """Raised for malformed one-line construction specs."""


def dihedral(n: int) -> Quandle:
    """The Takasaki kei on Z_n: i*j = 2j - i mod n. Latin iff n is odd."""
    if n < 1:
        raise ValueError("order must be positive")
    rows = [
        [((2 * j - i) % n) + 1 for j in range(n)]
        for i in range(n)
    ]
    return Quandle(rows)


def affine(n: int, t: int) -> Quandle:
    """The Alexander quandle on Z_n: i*j = t*i + (1-t)*j mod n, gcd(t,n) = 1.

    Latin iff gcd(1-t, n) = 1; t = 1 gives the trivial quandle i*j = i.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if math.gcd(t, n) != 1:
        raise NotAUnitError(t, n)
    t %= n
    rows = [
        [((t * i + (1 - t) * j) % n) + 1 for j in range(n)]
        for i in range(n)
    ]
    return Quandle(rows)


def conjugation(generators: Sequence[Permutation], seed: Permutation) -> Quandle:
    """The conjugation quandle x*y = y^-1 x y on the closure of the seed.

    The closure starts from the seed and is taken under conjugation by the
    generators, their inverses, and the closure members themselves; the
    last part makes the operation total on the closure set. Elements are
    the closure members indexed 1..n in sorted image order.
    """
    degree = seed.n
    for g in generators:
        if g.n != degree:
            raise DegreeMismatchError(f"degree {g.n} != {degree}")
    members = {seed}
    while True:
        conjugators = list(generators) + [g.inverse() for g in generators] + list(members)
        new = {
            g.inverse() * x * g
            for x in members
            for g in conjugators
        } - members
        if not new:
            break
        members |= new
    ordered = sorted(members, key=lambda p: p.images)
    index = {p.images: i for i, p in enumerate(ordered, 1)}
    rows = []
    for x in ordered:
        row = []
        for y in ordered:
            row.append(index[(y.inverse() * x * y).images])
        rows.append(row)
    return Quandle(rows)


# Bundled fixture tables. Q6_2 and Q9_4 follow the RIG catalog naming
# Q_{n,m} (connected quandle number m of order n); nonlatin3 is the
# standard 3-element witness that a translation with distinct cycle
# lengths does not force left-invertibility once fixed points repeat.
EXAMPLE_TABLES: dict[str, tuple[tuple[int, ...], ...]] = {
    "Q6_2": (
        (1, 5, 1, 6, 4, 2),
        (6, 2, 5, 2, 1, 3),
        (3, 6, 3, 5, 2, 4),
        (5, 4, 6, 4, 3, 1),
        (2, 3, 4, 1, 5, 5),
        (4, 1, 2, 3, 6, 6),
    ),
    "Q9_4": (
        (1, 3, 2, 9, 8, 7, 6, 5, 4),
        (3, 2, 1, 8, 7, 9, 5, 4, 6),
        (2, 1, 3, 7, 9, 8, 4, 6, 5),
        (7, 9, 8, 4, 6, 5, 1, 3, 2),
        (9, 8, 7, 6, 5, 4, 3, 2, 1),
        (8, 7, 9, 5, 4, 6, 2, 1, 3),
        (5, 4, 6, 2, 1, 3, 7, 9, 8),
        (4, 6, 5, 1, 3, 2, 9, 8, 7),
        (6, 5, 4, 3, 2, 1, 8, 7, 9),
    ),
    "nonlatin3": (
        (1, 1, 1),
        (3, 2, 2),
        (2, 3, 3),
    ),
}


def builtin_example(name: str) -> Quandle:
    """One of the bundled tables, validated on construction."""
    try:
        rows = EXAMPLE_TABLES[name]
    except KeyError:
        raise UnknownExampleError(name) from None
    return Quandle(rows)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse cycle notation like "(1 2)(3 4 5)" into a permutation of the degree."""
    text = text.strip()
    if text in ("", "()"):
        return Permutation.identity(degree)
    pos = 0
    cycles = []
    for m in _CYCLE_RE.finditer(text):
        if text[pos:m.start()].strip():
            raise ConstructionSpecError(f"unexpected text in permutation: {text!r}")
        pos = m.end()
        body = m.group(1).strip()
        if body:
            try:
                cycles.append([int(tok) for tok in body.split()])
            except ValueError:
                raise ConstructionSpecError(f"bad cycle in permutation: {m.group(0)!r}") from None
    if text[pos:].strip():
        raise ConstructionSpecError(f"unexpected text in permutation: {text!r}")
    try:
        return Permutation.from_cycles(degree, cycles)
    except ValueError as e:
        raise ConstructionSpecError(str(e)) from None


@dataclass(frozen=True)
class ConstructionSpec:
    """A parsed one-line construction request, e.g. "dihedral:5" or "affine:9,4".

    Forms:
      dihedral:N
      affine:N,T
      example:NAME
      conjugation:DEGREE;SEED;GEN1,GEN2,...   (permutations in cycle notation)
    """

    kind: str
    order: int = 0
    unit: int = 0
    name: str = ""
    degree: int = 0
    seed: Permutation | None = None
    generators: tuple[Permutation, ...] = ()

    def __post_init__(self):
        if self.kind in ("dihedral", "affine") and self.order < 1:
            raise ConstructionSpecError(f"order must be positive, got {self.order}")
        if self.kind == "conjugation" and self.degree < 1:
            raise ConstructionSpecError(f"degree must be positive, got {self.degree}")
        if self.kind == "example" and self.name not in EXAMPLE_TABLES:
            raise ConstructionSpecError(str(UnknownExampleError(self.name)))

    @classmethod
    def parse(cls, text: str) -> "ConstructionSpec":
        head, sep, rest = text.partition(":")
        if not sep:
            raise ConstructionSpecError(f"expected KIND:ARGS, got {text!r}")
        head = head.strip()
        rest = rest.strip()
        try:
            if head == "dihedral":
                return cls(kind=head, order=int(rest))
            if head == "affine":
                n_text, _, t_text = rest.partition(",")
                return cls(kind=head, order=int(n_text), unit=int(t_text))
            if head == "example":
                return cls(kind=head, name=rest)
            if head == "conjugation":
                parts = rest.split(";")
                if len(parts) != 3:
                    raise ConstructionSpecError(
                        f"expected conjugation:DEGREE;SEED;GENS, got {text!r}")
                degree = int(parts[0])
                seed = parse_permutation(parts[1], degree)
                gens = tuple(
                    parse_permutation(g, degree) for g in _split_perm_list(parts[2])
                )
                return cls(kind=head, degree=degree, seed=seed, generators=gens)
        except ConstructionSpecError:
            raise
        except ValueError:
            raise ConstructionSpecError(f"bad arguments in construction spec {text!r}") from None
        raise ConstructionSpecError(f"unknown construction kind {head!r}")

    def build(self) -> Quandle:
        if self.kind == "dihedral":
            return dihedral(self.order)
        if self.kind == "affine":
            return affine(self.order, self.unit)
        if self.kind == "example":
            return builtin_example(self.name)
        assert self.kind == "conjugation" and self.seed is not None
        return conjugation(self.generators, self.seed)


def _split_perm_list(text: str) -> Iterable[str]:
    """Split "(1 2),(1 2 3)" on commas that sit outside parentheses."""
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [p for p in (p.strip() for p in parts) if p]


def build_from_spec(text: str) -> Quandle:
    """Parse and build in one step."""
    return ConstructionSpec.parse(text).build()
