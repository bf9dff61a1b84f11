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
from typing import Iterable, Sequence

from ._value import Value
from .perm import DegreeMismatchError, Permutation
from .quandle import MAX_TABLE_ORDER, Quandle, TableTooLargeError


class NotAUnitError(ValueError):
    def __init__(self, t: int, n: int):
        super().__init__(f"{t} is not a unit mod {n}: gcd = {math.gcd(t, n)}")


class UnknownExampleError(ValueError):
    def __init__(self, name: str):
        super().__init__(f"unknown example {name!r}; available: {', '.join(sorted(EXAMPLE_TABLES))}")


class ConstructionSpecError(ValueError):
    """Raised for malformed one-line construction specs."""


# Largest conjugation closure built, the largest order the checkers' byte
# kernels take. The table of the 253 transpositions of S_23 (n^2 products
# of degree-23 permutations) takes about 0.25 s on a 2-vCPU machine with
# Python 3.11, and the table's cost grows as n^2.
MAX_CLOSURE_MEMBERS = 256

# Largest degree of a conjugation spec, refused before any permutation is
# built: a closure costs its members^2 conjugations of this many points.
# On a 2-vCPU machine with Python 3.11, `construct` of the 255 reflections
# of the dihedral group of degree 255 takes 1.3 s, and the 253
# transpositions of S_23 take 0.2 s at degree 23, 1.1 s at degree 200 and
# 2.3 s at degree 400.
MAX_CONJUGATION_DEGREE = 256


class ClosureTooLargeError(ValueError):
    def __init__(self, cap: int):
        super().__init__(f"the conjugation closure exceeds {cap} members (MAX_CLOSURE_MEMBERS)")


def dihedral(n: int) -> Quandle:
    """The Takasaki kei on Z_n: i*j = 2j - i mod n. Latin iff n is odd."""
    if n < 1:
        raise ValueError("order must be positive")
    if n > MAX_TABLE_ORDER:
        raise TableTooLargeError(n)
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
    if n > MAX_TABLE_ORDER:
        raise TableTooLargeError(n)
    if math.gcd(t, n) != 1:
        raise NotAUnitError(t, n)
    t %= n
    rows = [
        [((t * i + (1 - t) * j) % n) + 1 for j in range(n)]
        for i in range(n)
    ]
    return Quandle(rows)


def _conjugate(x: tuple[int, ...], g: tuple[int, ...], g_inv: tuple[int, ...]) -> tuple[int, ...]:
    """The images of g^-1 x g, from the images of x, g and g^-1."""
    return tuple([g_inv[x[v - 1] - 1] for v in g])


def conjugation(generators: Sequence[Permutation], seed: Permutation) -> Quandle:
    """The conjugation quandle x*y = y^-1 x y on the closure of the seed.

    The closure starts from the seed and is taken under conjugation by the
    generators, their inverses, and the closure members themselves; the
    last part makes the operation total on the closure set. Elements are
    the closure members indexed 1..n in sorted image order. A closure that
    grows past ``MAX_CLOSURE_MEMBERS`` raises ``ClosureTooLargeError`` at once.

    Every member lies in the group G generated by the generators and the
    seed, and the G-orbit of the seed under conjugation is closed under
    conjugation by its own members, so the closure is that orbit: each
    member need only be conjugated by the generators and the seed.
    """
    degree = seed.n
    for g in generators:
        if g.n != degree:
            raise DegreeMismatchError(f"degree {g.n} != {degree}")
    conjugators = [(g.images, g.inverse().images) for g in (*generators, seed)]
    members = [seed.images]
    known = {seed.images}
    for x in members:  # grows while it is walked
        for g, g_inv in conjugators:
            y = _conjugate(x, g, g_inv)
            if y not in known:
                known.add(y)
                if len(known) > MAX_CLOSURE_MEMBERS:
                    raise ClosureTooLargeError(MAX_CLOSURE_MEMBERS)
                members.append(y)
    members.sort()
    index = {x: i for i, x in enumerate(members, 1)}
    inverses = [Permutation(y).inverse().images for y in members]
    rows = [[index[_conjugate(x, y, y_inv)] for y, y_inv in zip(members, inverses)] for x in members]
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


def _check_degree(degree: int) -> None:
    if degree < 1:
        raise ConstructionSpecError(f"degree must be positive, got {degree}")
    if degree > MAX_CONJUGATION_DEGREE:
        raise ConstructionSpecError(
            f"degree {degree} exceeds {MAX_CONJUGATION_DEGREE} (MAX_CONJUGATION_DEGREE)")


class ConstructionSpec(Value):
    """A parsed one-line construction request, e.g. "dihedral:5" or "affine:9,4".

    Forms:
      dihedral:N
      affine:N,T
      example:NAME
      conjugation:DEGREE;SEED;GEN1,GEN2,...   (permutations in cycle notation)
    """

    kind: str
    order: int
    unit: int
    name: str
    degree: int
    seed: Permutation | None
    generators: tuple[Permutation, ...]

    def __init__(self, kind: str, order: int = 0, unit: int = 0, name: str = "", degree: int = 0,
                 seed: Permutation | None = None, generators: tuple[Permutation, ...] = ()):
        if kind in ("dihedral", "affine"):
            if order < 1:
                raise ConstructionSpecError(f"order must be positive, got {order}")
        elif kind == "conjugation":
            _check_degree(degree)
            if seed is None:
                raise ConstructionSpecError("a conjugation spec needs a seed permutation")
        elif kind == "example":
            if name not in EXAMPLE_TABLES:
                raise ConstructionSpecError(str(UnknownExampleError(name)))
        else:
            raise ConstructionSpecError(f"unknown construction kind {kind!r}")
        self._init(kind, order, unit, name, degree, seed, generators)

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
                _check_degree(degree)
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
