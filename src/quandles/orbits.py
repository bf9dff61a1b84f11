"""Orbits of the right multiplication group, connectedness, connected profiles.

The right multiplication group is generated by all right translations. A
quandle is connected when that group acts transitively, i.e. when the orbit
partition has a single block.
"""

from __future__ import annotations

from .perm import CycleStructure, Permutation
from .quandle import Quandle


class NotConnectedError(ValueError):
    def __init__(self, blocks: int):
        super().__init__(f"quandle is not connected: {blocks} orbits")
        self.blocks = blocks


def orbits(q: Quandle) -> tuple[frozenset[int], ...]:
    """Orbit partition of {1..n} under the group generated by the right translations.

    Each orbit is grown from its least point by set operations on rows,
    as row x is {x*s : s}, the points one right translation away from x.
    On a finite set each translation has finite order, so its inverse is
    one of its powers, and a set closed under the translations is closed
    under the whole group. The partition is computed once per table and
    kept on it (``Quandle._find_orbits``).
    """
    if q._orbits is None:
        q._find_orbits()
    return q._orbits


def is_connected(q: Quandle) -> bool:
    return len(orbits(q)) == 1


def connected_profile(q: Quandle) -> CycleStructure:
    """The common cycle structure of all right translations of a connected quandle.

    All n structures are recomputed from each column's own cycles and
    compared instead of trusting that they agree (``column_structures``
    walks one column per orbit); a disagreement on a connected quandle
    indicates a bug in table validation and raises RuntimeError.
    """
    blocks = orbits(q)
    if len(blocks) != 1:
        raise NotConnectedError(len(blocks))
    structures = [Permutation._of_bijection(col).cycle_structure() for col in q.columns()]
    first = structures[0]
    for j, cs in enumerate(structures, 1):
        if cs != first:
            raise RuntimeError(
                f"connected quandle with disagreeing cycle structures: column 1 has {first}, column {j} has {cs}"
            )
    return first
