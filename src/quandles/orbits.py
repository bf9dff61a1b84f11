"""Orbits of the right multiplication group, connectedness, connected profiles.

The right multiplication group is generated by all right translations. A
quandle is connected when that group acts transitively, i.e. when the orbit
partition has a single block.
"""

from __future__ import annotations

from .perm import CycleStructure
from .quandle import Quandle


class NotConnectedError(ValueError):
    def __init__(self, blocks: int):
        super().__init__(f"quandle is not connected: {blocks} orbits")
        self.blocks = blocks


def orbits(q: Quandle) -> tuple[frozenset[int], ...]:
    """Orbit partition of {1..n} under the group generated by the right translations.

    Only the translations themselves are walked. On a finite set each one
    has finite order, so its inverse is one of its powers, and a set closed
    under the translations is closed under the whole group. The partition is
    computed once per table and kept on it.
    """
    if q._orbits is not None:
        return q._orbits
    n = q.n
    cols = q.columns()
    seen = [False] * (n + 1)
    blocks = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        block = []
        stack = [start]
        seen[start] = True
        while stack:
            x = stack.pop()
            block.append(x)
            for col in cols:
                y = col[x - 1]
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        blocks.append(frozenset(block))
    q._orbits = tuple(blocks)
    return q._orbits


def is_connected(q: Quandle) -> bool:
    return len(orbits(q)) == 1


def connected_profile(q: Quandle) -> CycleStructure:
    """The common cycle structure of all right translations of a connected quandle.

    All n structures are recomputed and compared instead of trusting that
    they agree; a disagreement on a connected quandle indicates a bug in
    table validation and raises RuntimeError.
    """
    blocks = orbits(q)
    if len(blocks) != 1:
        raise NotConnectedError(len(blocks))
    structures = q.column_structures()
    first = structures[0]
    for j, cs in enumerate(structures, 1):
        if cs != first:
            raise RuntimeError(
                f"connected quandle with disagreeing cycle structures: column 1 has {first}, column {j} has {cs}"
            )
    return first
