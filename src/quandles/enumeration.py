"""Exhaustive generation of all quandles of a small order.

The search fills the table column by column. Candidate columns are the
permutations fixing the column index (idempotency pins the diagonal,
right-invertibility makes columns permutations), tried in lex order, and
right self-distributivity is enforced incrementally through its equivalent
translation form R_k R_j R_k^-1 = R_{j*k}: whenever two columns are known,
the column of their product is forced, so each guess propagates. Every
table of the requested order is emitted exactly once; with ``up_to_iso``
the stream is reduced to one canonical representative per isomorphism
class, the canonical form of the first table of the class in the stream.

Columns are held 0-based as ``bytes`` together with their inverses and
256-byte translate tables, so each conjugation is two ``bytes.translate``
calls: R_k R_m R_k^-1 is ``inv_k.translate(tab_m).translate(tab_k)``.

Symmetry breaking under ``up_to_iso``: relabeling by sigma with
sigma(x) = 1 turns R_x into a conjugate of it fixing 1, and every
permutation fixing 1 with the cycle type of R_x on the other points is
reached that way. So every class has a labeling whose R_1 is the lex-least
permutation fixing 1 of its cycle type, e.g. (1)(2)(3 4)(5 6 7) for the
type 1+2+3 at n = 7, and column 1 only tries these p(n-1)
representatives. The order of the reduced stream is kept: column 1 is the
outermost choice, so the first table of a class in the full search has
the lex-least R_1 over all labelings of the class, which is one of the
representatives, and the search below column 1 is unchanged. The break
holds only for the lex-least representative of each type, and is off
under a first-row prefix, which constrains the labeling.

The tables of one ``enumerate_quandles`` call, and of one
``enumerate_parallel`` merge, take their right translations from one dict
owned by that call: equal columns in different tables share one
``Permutation``, so its cycles, cycle structure and order are computed once
(order 6 has 6658 tables with 39,948 columns but 455 distinct ones). Every
table is still validated in full. Nothing is shared between calls.

Worker partitions split the labeled search by a prefix of the first table
row and share nothing, so they can run in separate processes; a
deterministic result then requires sorting the merged output, which
``enumerate_parallel`` does.
"""

from __future__ import annotations

import functools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import permutations
from typing import Callable, Iterator, Optional

from .checks import has_repeat_free_profile
from .orbits import is_connected
from .perm import CycleStructure, Permutation
from .quandle import Quandle

DEFAULT_ORDER_GUARD = 8

PREDICATES: dict[str, Callable[[Quandle], bool]] = {
    "latin": lambda q: q.is_latin,
    "connected": is_connected,
    "distinct-lengths": has_repeat_free_profile,
    "unique-fixed-point": lambda q: q.has_unique_fixed_points,
}


class OrderTooLargeError(ValueError):
    def __init__(self, order: int, guard: int):
        super().__init__(
            f"order {order} exceeds the search guard {guard};"
            " raise order_guard explicitly to run anyway"
        )


@dataclass(frozen=True)
class EnumerationTask:
    """One enumeration request, optionally restricted to a first-row prefix."""

    order: int
    up_to_iso: bool = False
    predicate_filter: Optional[str] = None
    partition_prefix: tuple[int, ...] = ()
    order_guard: int = DEFAULT_ORDER_GUARD

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be positive")
        if self.predicate_filter is not None and self.predicate_filter not in PREDICATES:
            raise ValueError(
                f"unknown predicate {self.predicate_filter!r};"
                f" known: {', '.join(sorted(PREDICATES))}"
            )
        for v in self.partition_prefix:
            if not 1 <= v <= self.order:
                raise ValueError(f"prefix value {v} out of range 1..{self.order}")


@functools.lru_cache(maxsize=None)
def _candidate_columns(n: int) -> tuple[tuple[bytes, ...], ...]:
    """For each column index j (0-based), the permutations fixing j as 0-based bytes, in lex order."""
    all_perms = [bytes(p) for p in permutations(range(n))]
    return tuple(tuple(p for p in all_perms if p[j] == j) for j in range(n))


def _column1_representatives(n: int) -> list[bytes]:
    """The lex-least permutation fixing 0 of each cycle type, as 0-based bytes, in lex order.

    It fixes the smallest points and then closes cycles of increasing length
    on consecutive points, e.g. (0)(1)(2 3)(4 5 6) for the type 1+2+3 at n=7.
    """
    reps: dict[CycleStructure, bytes] = {}
    for p in _candidate_columns(n)[0]:
        reps.setdefault(Permutation([v + 1 for v in p]).cycle_structure(), p)
    return list(reps.values())


# x -> x + 1 on bytes, to turn 0-based columns into 1-based table entries.
_ONE_BASED = bytes(range(1, 256)) + b"\0"


def _raw_tables(
    n: int, prefix: tuple[int, ...], column1_representatives_only: bool = False,
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All valid tables of order n whose first row starts with the prefix, in search order.

    With column1_representatives_only, column 1 tries only
    ``_column1_representatives(n)``: the output is then the subsequence of
    the full search whose R_1 is one of them.
    """
    if len(prefix) > n:
        return
    # Columns are 0-based bytes: cols[k][x] is x*k. tabs[k] is cols[k] as a
    # bytes.translate table and invs[k] its inverse; both are read only
    # while cols[k] is set.
    options = list(_candidate_columns(n))
    if column1_representatives_only:
        options[0] = _column1_representatives(n)
    first_row = [v - 1 for v in prefix]
    for j, v in enumerate(first_row):
        options[j] = [p for p in options[j] if p[0] == v]
    identity = bytes(range(n))
    tail = bytes(range(n, 256))
    cols: list[Optional[bytes]] = [None] * n
    invs: list[Optional[bytes]] = [None] * n
    tabs: list[Optional[bytes]] = [None] * n
    klimit = len(prefix)

    def assign(j: int, p: bytes, trail: list[int]) -> bool:
        queue = [(j, p)]
        while queue:
            k, pk = queue.pop()
            existing = cols[k]
            if existing is not None:
                if existing != pk:
                    return False
                continue
            if pk[k] != k:
                return False
            if k < klimit and pk[0] != first_row[k]:
                return False
            invk = bytes.maketrans(pk, identity)[:n]
            tabk = pk + tail
            cols[k] = pk
            invs[k] = invk
            tabs[k] = tabk
            trail.append(k)
            for m in range(n):
                pm = cols[m]
                if pm is None or m == k:
                    continue
                tabm = tabs[m]
                # R_k R_m R_k^-1 = R_{m*k} and R_m R_k R_m^-1 = R_{k*m}.
                # A forced column that is already set is compared at once,
                # so a conflict ends the propagation before the queue grows.
                for t, pt in (
                    (pk[m], invk.translate(tabm).translate(tabk)),
                    (pm[k], invs[m].translate(tabk).translate(tabm)),
                ):
                    known = cols[t]
                    if known is None:
                        queue.append((t, pt))
                    elif known != pt:
                        return False
        return True

    def search() -> Iterator[tuple[tuple[int, ...], ...]]:
        try:
            j = cols.index(None)
        except ValueError:
            yield tuple(zip(*(c.translate(_ONE_BASED) for c in cols)))
            return
        for p in options[j]:
            trail: list[int] = []
            if assign(j, p, trail):
                yield from search()
            for t in trail:
                cols[t] = None

    yield from search()


def enumerate_quandles(task: EnumerationTask) -> Iterator[Quandle]:
    """Stream the quandles described by the task; deterministic for a fixed task."""
    if task.order > task.order_guard:
        raise OrderTooLargeError(task.order, task.order_guard)
    predicate = PREDICATES[task.predicate_filter] if task.predicate_filter else None
    # A prefix fixes part of the labeling, so only a free search may pick R_1's.
    raw = _raw_tables(
        task.order, task.partition_prefix, task.up_to_iso and not task.partition_prefix
    )
    translations: dict[tuple[int, ...], Permutation] = {}
    stream = (Quandle(rows, _pool=translations) for rows in raw)
    if predicate is not None:
        stream = (q for q in stream if predicate(q))
    if task.up_to_iso:
        stream = _iso_reduce(stream)
    return stream


def _iso_reduce(stream: Iterator[Quandle]) -> Iterator[Quandle]:
    """Keep one quandle per isomorphism class, emitted as its canonical form."""
    buckets: dict[tuple, list[Quandle]] = {}
    for q in stream:
        reps = buckets.setdefault(q.iso_signature(), [])
        if any(are_isomorphic(rep, q) is not None for rep in reps):
            continue
        reps.append(q)
        yield canonical_form(q)[0]


def are_isomorphic(a: Quandle, b: Quandle) -> Optional[Permutation]:
    """A relabeling sigma with sigma(x*y) = sigma(x)*'sigma(y), or None.

    Fast-rejects on order, profile and per-element invariant mismatches,
    then backtracks over invariant-compatible assignments.
    """
    if a.n != b.n:
        return None
    if a.profile() != b.profile():
        return None
    if a.iso_signature() != b.iso_signature():
        return None
    n = a.n
    inv_a = a.element_invariants()
    inv_b = b.element_invariants()
    candidates = [
        sorted(
            (y for y in range(1, n + 1) if inv_b[y - 1] == inv_a[x - 1]),
            key=lambda y: (y != x, y),
        )
        for x in range(1, n + 1)
    ]
    order = sorted(range(1, n + 1), key=lambda x: len(candidates[x - 1]))
    sigma = [0] * (n + 1)
    used = [False] * (n + 1)
    rows_a, rows_b = a.rows, b.rows

    def consistent_so_far(x: int, assigned: list[int]) -> bool:
        # Partial check: products already inside the assigned set must map
        # compatibly; the leaf check covers everything else.
        for p in assigned:
            for u, v in ((x, p), (p, x)):
                t = rows_a[u - 1][v - 1]
                st = sigma[t]
                if st and rows_b[sigma[u] - 1][sigma[v] - 1] != st:
                    return False
        return True

    def extend(k: int, assigned: list[int]) -> bool:
        if k == n:
            return all(
                sigma[rows_a[x - 1][y - 1]] == rows_b[sigma[x] - 1][sigma[y] - 1]
                for x in range(1, n + 1)
                for y in range(1, n + 1)
            )
        x = order[k]
        for y in candidates[x - 1]:
            if used[y]:
                continue
            sigma[x] = y
            used[y] = True
            if consistent_so_far(x, assigned):
                assigned.append(x)
                if extend(k + 1, assigned):
                    return True
                assigned.pop()
            sigma[x] = 0
            used[y] = False
        return False

    if extend(0, []):
        return Permutation(sigma[1:])
    return None


def canonical_form(q: Quandle) -> tuple[Quandle, Permutation]:
    """The lexicographically minimal relabeling of the table, with a witnessing map.

    Scans all n! relabelings with early row-by-row cutoff; meant for the
    small orders this package targets.
    """
    n = q.n
    rows = q.rows
    best: Optional[list[tuple[int, ...]]] = None
    best_sigma: Optional[tuple[int, ...]] = None
    for sigma in permutations(range(1, n + 1)):
        inv = [0] * n
        for i, v in enumerate(sigma, 1):
            inv[v - 1] = i
        cand: list[tuple[int, ...]] = []
        better = best is None
        worse = False
        for r in range(n):
            source_row = rows[inv[r] - 1]
            new_row = tuple(sigma[source_row[inv[c] - 1] - 1] for c in range(n))
            if not better:
                old_row = best[r]
                if new_row > old_row:
                    worse = True
                    break
                if new_row < old_row:
                    better = True
            cand.append(new_row)
        if worse or not better:
            continue
        best = cand
        best_sigma = sigma
    assert best is not None and best_sigma is not None
    return Quandle(best), Permutation(best_sigma)


def split_task(task: EnumerationTask, parts: int) -> list[EnumerationTask]:
    """Refine the task into share-nothing subtasks by extending the first-row prefix."""
    n = task.order
    prefixes = [task.partition_prefix]
    position = len(task.partition_prefix)
    while len(prefixes) < parts and position < n:
        position += 1
        if position == 1:
            values = [1]
        else:
            values = [v for v in range(1, n + 1) if v != position]
        prefixes = [p + (v,) for p in prefixes for v in values]
    return [replace(task, partition_prefix=p) for p in prefixes]


def _collect_rows(task: EnumerationTask) -> list[tuple[tuple[int, ...], ...]]:
    return [q.rows for q in enumerate_quandles(task)]


def enumerate_parallel(task: EnumerationTask, jobs: int) -> list[Quandle]:
    """Run the task over worker processes and merge deterministically.

    The merged output is sorted by table entries (canonical table entries
    when ``up_to_iso``), so any jobs count yields the same list.
    """
    if jobs <= 1:
        result = list(enumerate_quandles(task))
        result.sort(key=lambda q: q.rows)
        return result
    subtasks = split_task(replace(task, up_to_iso=False), jobs)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        row_lists = list(pool.map(_collect_rows, subtasks))
    translations: dict[tuple[int, ...], Permutation] = {}
    merged = (Quandle(rows, _pool=translations) for row_list in row_lists for rows in row_list)
    if task.up_to_iso:
        result = list(_iso_reduce(merged))
    else:
        result = list(merged)
    result.sort(key=lambda q: q.rows)
    return result


def falsify(
    property_pair: tuple[str, str],
    max_order: int,
    order_guard: int = DEFAULT_ORDER_GUARD,
) -> Optional[Quandle]:
    """First quandle (by order, then search order) where hypothesis holds but conclusion fails.

    Searches isomorphism-class representatives, which is exhaustive because
    both predicates are isomorphism-invariant. Returns None when every
    order up to max_order is clean.
    """
    hyp_name, concl_name = property_pair
    for name in (hyp_name, concl_name):
        if name not in PREDICATES:
            raise ValueError(f"unknown predicate {name!r}; known: {', '.join(sorted(PREDICATES))}")
    hyp = PREDICATES[hyp_name]
    concl = PREDICATES[concl_name]
    for n in range(1, max_order + 1):
        task = EnumerationTask(order=n, up_to_iso=True, order_guard=order_guard)
        for q in enumerate_quandles(task):
            if hyp(q) and not concl(q):
                return q
    return None
