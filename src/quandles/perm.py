"""Permutations on {1..n} and their cycle-level analysis.

Elements are 1-based everywhere: a permutation of degree n acts on the set
{1, .., n}. Cycle decompositions are kept in a canonical form (every cycle
starts at its minimal element, cycles sorted by minimal element) so that
string renderings and golden-file comparisons are deterministic.
"""

from __future__ import annotations

import functools
import math
import weakref
from itertools import chain
from typing import Iterable, Iterator, Sequence

from ._value import Value


class DegreeMismatchError(ValueError):
    """Raised when combining permutations of different degrees."""


@functools.total_ordering
class CycleStructure(Value):
    """Multiset of cycle lengths, stored as ascending (length, multiplicity) pairs.

    Renders in the usual compact notation: multiplicity-1 exponents are
    dropped, e.g. ``(1^2,4)`` for two fixed points and one 4-cycle.

    ``from_lengths`` keeps one instance per structure while anything holds
    it, so the permutations of one structure share its cached fields;
    equality, hash, repr and pickle are defined by ``entries`` alone, and
    the constructor always builds a new instance.
    """

    entries: tuple[tuple[int, int], ...]

    def __init__(self, entries: tuple[tuple[int, int], ...]):
        prev = 0
        for length, mult in entries:
            if length <= prev:
                raise ValueError(f"cycle lengths must be strictly increasing: {entries}")
            if mult < 1:
                raise ValueError(f"multiplicities must be positive: {entries}")
            prev = length
        self._init(entries)

    @classmethod
    def from_lengths(cls, lengths: Iterable[int]) -> "CycleStructure":
        """Aggregate raw cycle lengths into a structure, the kept instance for its entries if there is one."""
        counts: dict[int, int] = {}
        for length in lengths:
            counts[length] = counts.get(length, 0) + 1
        entries = tuple(sorted(counts.items()))
        kept = _KEPT_STRUCTURES.get(entries)
        if kept is None:
            kept = _KEPT_STRUCTURES[entries] = cls(entries)
        return kept

    @property
    def degree(self) -> int:
        """Number of points moved or fixed: sum of length * multiplicity."""
        return sum(length * mult for length, mult in self.entries)

    @property
    def cycle_count(self) -> int:
        return sum(mult for _, mult in self.entries)

    @functools.cached_property
    def has_distinct_lengths(self) -> bool:
        """True iff no two cycles have the same length; computed once per structure."""
        return all(mult == 1 for _, mult in self.entries)

    @functools.cached_property
    def order(self) -> int:
        """The order of a permutation of this structure, the lcm of its cycle lengths; computed once per structure."""
        return math.lcm(*[length for length, _ in self.entries])

    @functools.cached_property
    def longest_cycle_length(self) -> int:
        """The length of the longest cycle; computed once per structure."""
        return self.entries[-1][0]

    @functools.cached_property
    def has_regular_cycle(self) -> bool:
        """True iff some cycle is as long as the order; computed once per structure."""
        return self.order == self.entries[-1][0]

    @property
    def fixed_point_count(self) -> int:
        return self.entries[0][1] if self.entries and self.entries[0][0] == 1 else 0

    def lengths(self) -> tuple[int, ...]:
        """Every cycle length, repeated with multiplicity, ascending; computed once per structure."""
        return self._lengths

    @functools.cached_property
    def _lengths(self) -> tuple[int, ...]:
        return tuple(chain.from_iterable((length,) * mult for length, mult in self.entries))

    def __lt__(self, other: "CycleStructure") -> bool:
        # Total order used to sort quandle profiles: lexicographic on the
        # expanded ascending length sequences, so (1^3) sorts before (1,2).
        return self.lengths() < other.lengths()

    def __str__(self) -> str:
        terms = (f"{length}^{mult}" if mult > 1 else str(length) for length, mult in self.entries)
        return "(" + ",".join(terms) + ")"


# The instances ``CycleStructure.from_lengths`` returns, by entries; each
# is dropped once nothing else refers to it. Two threads may each build
# one for the same entries; the two are equal, so nothing depends on which.
_KEPT_STRUCTURES: weakref.WeakValueDictionary[tuple[tuple[int, int], ...], CycleStructure] = (
    weakref.WeakValueDictionary())


class Permutation:
    """A bijection on {1..n} with a cached cycle decomposition, cycle structure and order.

    The checkers' per-permutation data (the consecutive relabeling and the
    cycle-length division screen) is cached on it too.
    """

    __slots__ = ("images", "_cycles", "_structure", "_relabeling", "_screen", "_labels")

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        n = len(images)
        seen = [False] * (n + 1)
        for v in images:
            # A plain int pays one identity test; an int subclass other than bool passes.
            if ((type(v) is not int and (not isinstance(v, int) or isinstance(v, bool)))
                    or not 1 <= v <= n or seen[v]):
                raise ValueError(f"images are not a bijection of 1..{n}: {images}")
            seen[v] = True
        self._set(images)

    @classmethod
    def _of_bijection(cls, images: tuple[int, ...]) -> "Permutation":
        """The permutation with these images, which the caller has shown to be a bijection of 1..n."""
        p = cls.__new__(cls)
        p._set(images)
        return p

    def _set(self, images: tuple[int, ...]) -> None:
        self.images = images
        self._cycles: tuple[tuple[int, ...], ...] | None = None
        self._structure: CycleStructure | None = None
        self._relabeling: tuple[int, ...] | None = None
        self._screen: tuple[tuple[bytes, bytes], ...] | None = None
        self._labels: bytes | None = None

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Build a permutation of degree n from disjoint cycles; omitted points stay fixed."""
        images = list(range(1, n + 1))
        touched = set()
        for cycle in cycles:
            if not cycle:
                raise ValueError("cycles must be nonempty")
            for a, b in zip(cycle, tuple(cycle[1:]) + (cycle[0],)):
                if not isinstance(a, int) or isinstance(a, bool) or not 1 <= a <= n:
                    raise ValueError(f"cycle element {a!r} out of range 1..{n}")
                if a in touched:
                    raise ValueError(f"cycles are not disjoint at element {a}")
                touched.add(a)
                images[a - 1] = b
        return cls(images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= len(self.images):
            raise ValueError(f"element {i} out of range 1..{len(self.images)}")
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition (self * other)(x) = self(other(x)).

        A product, an inverse or a power of bijections is one, so these
        build their result without checking its images again.
        """
        if len(self.images) != len(other.images):
            raise DegreeMismatchError(f"degree {self.n} != {other.n}")
        s = self.images
        return Permutation._of_bijection(tuple([s[v - 1] for v in other.images]))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images, 1):
            inv[v - 1] = i
        return Permutation._of_bijection(tuple(inv))

    def __pow__(self, k: int) -> "Permutation":
        """k-fold composition; negative k uses the inverse. Each cycle is rotated by k."""
        images = [0] * len(self.images)
        for cycle in self.cycles():
            m = len(cycle)
            for pos, a in enumerate(cycle):
                images[a - 1] = cycle[(pos + k) % m]
        return Permutation._of_bijection(tuple(images))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles, each starting at its minimal element, sorted by that element."""
        if self._cycles is None:
            images = self.images
            seen = [False] * (len(images) + 1)
            cycles = []
            for start in range(1, len(images) + 1):
                if seen[start]:
                    continue
                cycle = [start]
                seen[start] = True
                nxt = images[start - 1]
                while nxt != start:
                    cycle.append(nxt)
                    seen[nxt] = True
                    nxt = images[nxt - 1]
                cycles.append(tuple(cycle))
            self._cycles = tuple(cycles)
        return self._cycles

    def cycle_structure(self) -> CycleStructure:
        if self._structure is None:
            self._structure = CycleStructure.from_lengths(len(c) for c in self.cycles())
        return self._structure

    def _consecutive_relabeling(self) -> tuple[int, ...]:
        """Old element x becomes relabeling[x-1]: cycles in consecutive blocks, shorter first.

        Cycles of equal length keep their order by minimal element.
        """
        if self._relabeling is None:
            relabeling = [0] * len(self.images)
            label = 0
            for cycle in sorted(self.cycles(), key=lambda c: (len(c), c[0])):
                for x in cycle:
                    label += 1
                    relabeling[x - 1] = label
            self._relabeling = tuple(relabeling)
        return self._relabeling

    def _cycle_labels(self) -> bytes:
        """A 256-byte translate table sending each 0-based point to a label of its cycle; cached.

        The labels are constant on each cycle and distinct across cycles;
        nothing else about them is promised: a cycle's label is its index
        among ``cycles()``. For degree at most 256 only. Bytes past the
        degree are zero.
        """
        if self._labels is None:
            labels = bytearray(256)
            for c, cycle in enumerate(self.cycles()):
                for x in cycle:
                    labels[x - 1] = c
            self._labels = bytes(labels)
        return self._labels

    def _division_screen(self) -> tuple[tuple[bytes, bytes], ...]:
        """The sets Fix(f^m) that the cycle-length division check needs closed, cached.

        m runs over lcm(a, b) for cycle lengths a, b of f, except the m that
        the order divides (their set is every point). Each entry pairs the
        set, the 0-based points whose cycle length divides m, with the points
        x that must be tested against it: those of a length a with
        m = lcm(a, b) for some length b, since a failing pair x, y fails at
        m = lcm(l_x, l_y). Both are bytes. For degree at most 256 only.
        """
        if self._screen is None:
            cycles = self.cycles()
            order = self.order
            lengths = {len(cycle) for cycle in cycles}
            row_lengths: dict[int, set[int]] = {}
            for a in lengths:
                for b in lengths:
                    m = math.lcm(a, b)
                    if m % order:
                        row_lengths.setdefault(m, set()).add(a)
            screen = []
            for m, needing in row_lengths.items():
                fixed = bytes([x - 1 for cycle in cycles if m % len(cycle) == 0 for x in cycle])
                # An m that is itself a length is needed by every length dividing it.
                tested = fixed if m in lengths else bytes(
                    [x - 1 for cycle in cycles if len(cycle) in needing for x in cycle])
                screen.append((fixed, tested))
            self._screen = tuple(screen)
        return self._screen

    def fixed_points(self) -> frozenset[int]:
        return frozenset(i for i, v in enumerate(self.images, 1) if v == i)

    @property
    def order(self) -> int:
        """Least k >= 1 with self**k equal to the identity: the order of its cycle structure."""
        return self.cycle_structure().order

    @property
    def longest_cycle_length(self) -> int:
        return self.cycle_structure().longest_cycle_length

    @property
    def has_regular_cycle(self) -> bool:
        """True iff some cycle is as long as the permutation's order."""
        return self.cycle_structure().has_regular_cycle

    def __iter__(self) -> Iterator[int]:
        return iter(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)!r})"

    def __str__(self) -> str:
        return "".join("(" + " ".join(map(str, c)) + ")" for c in self.cycles())
