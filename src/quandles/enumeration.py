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

Orderly search under ``up_to_iso`` (McKay's canonical augmentation, as
in Ho-Nelson's and Vendramin's column-by-column enumerations). The search
emits tables in lex order of their columns (R_1, .., R_n), so the first
table of a class in the stream is its column-major lex-least labeling.
Let H_j be the permutations that fix 1..j-1 and commute with
R_1..R_{j-1}. Relabeling by a sigma in H_j keeps those columns and puts
sigma R_x sigma^-1 at column j, for x = sigma^-1(j); if that is below R_j,
every completion has a smaller labeling and the branch is cut. Level j of
the search lists the members of H_j other than the identity by x, each as
a translate table and an inverse, so each test is two ``bytes.translate``
calls; the members with x = j form G_j, the stabiliser of j. One test,
"some listed sigma gives sigma p sigma^-1 below a target", serves twice:
G_j screens each candidate p for a branching column j before it is
assigned, and after the assignment every column x the branch set is
tested against the members listed under x at each level up to j. Level
j + 1 is the members of G_j that commute with R_j, listed by
sigma^-1(j + 1). H_1 is all of S_n and is never listed beyond G_1:
column 1 tries one permutation per cycle type, the lex-least one, e.g.
(1)(2)(3 4)(5 6 7) for the type 1+2+3 at n = 7, and a set column x cuts
the branch iff the least permutation fixing 1 of its cycle type is below
R_1. Columns set by propagation lie in the subquandle generated by the
branching columns, which every member of the later H_j fixes pointwise,
so they need no test of their own. The least labeling of every class
survives, so the reduced stream is unchanged; the order-6 search visits
277 tables instead of 6658, and order 7 1,996. The rule is off under a
first-row prefix, which constrains the labeling, so ``--jobs`` workers
still search and ship unpruned labeled tables.

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

# The largest orders searched without an explicit guard, from measured
# times on 2 vCPUs (scripts/labeled_orders.py writes BENCH_labeled.json):
# the labeled order-7 search finds 152,900 tables in about a minute, and
# in a minute the labeled order-8 search does not finish the first of its
# 5040 first columns, while ``enumerate 8 --iso`` finishes in about 3 min.
LABELED_ORDER_GUARD = 7
ISO_ORDER_GUARD = 8

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
    """One enumeration request, optionally restricted to a first-row prefix.

    A task above its guard is refused when it is made, before any search.
    Without an explicit ``order_guard`` the guard is ``ISO_ORDER_GUARD``
    for the orderly search and ``LABELED_ORDER_GUARD`` for a labeled one.
    """

    order: int
    up_to_iso: bool = False
    predicate_filter: Optional[str] = None
    partition_prefix: tuple[int, ...] = ()
    order_guard: Optional[int] = None

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be positive")
        if self.predicate_filter is not None and self.predicate_filter not in PREDICATES:
            raise ValueError(
                f"unknown predicate {self.predicate_filter!r};"
                f" known: {', '.join(sorted(PREDICATES))}"
            )
        if len(self.partition_prefix) > self.order:
            raise ValueError(
                f"prefix of length {len(self.partition_prefix)} is longer than the order {self.order}"
            )
        for v in self.partition_prefix:
            if not 1 <= v <= self.order:
                raise ValueError(f"prefix value {v} out of range 1..{self.order}")
        guard = self.order_guard
        if guard is None:
            guard = ISO_ORDER_GUARD if self.orderly else LABELED_ORDER_GUARD
        if self.order > guard:
            raise OrderTooLargeError(self.order, guard)

    @property
    def orderly(self) -> bool:
        """Whether the search prunes isomorphs: a prefix fixes part of the
        labeling, so only a free ``up_to_iso`` search may relabel."""
        return self.up_to_iso and not self.partition_prefix


@functools.lru_cache(maxsize=None)
def _candidate_columns(n: int) -> tuple[tuple[bytes, ...], ...]:
    """For each column index j (0-based), the permutations fixing j as 0-based bytes, in lex order."""
    all_perms = [bytes(p) for p in permutations(range(n))]
    return tuple(tuple(p for p in all_perms if p[j] == j) for j in range(n))


def _cycle_type(p: bytes) -> CycleStructure:
    return Permutation([v + 1 for v in p]).cycle_structure()


def _column1_representatives(n: int) -> list[bytes]:
    """The lex-least permutation fixing 0 of each cycle type, as 0-based bytes, in lex order.

    It fixes the smallest points and then closes cycles of increasing length
    on consecutive points, e.g. (0)(1)(2 3)(4 5 6) for the type 1+2+3 at n=7.
    """
    reps: dict[CycleStructure, bytes] = {}
    for p in _candidate_columns(n)[0]:
        reps.setdefault(_cycle_type(p), p)
    return list(reps.values())


# x -> x + 1 on bytes, to turn 0-based columns into 1-based table entries.
_ONE_BASED = bytes(range(1, 256)) + b"\0"


def _raw_tables(
    n: int, prefix: tuple[int, ...], orderly: bool = False,
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All valid tables of order n whose first row starts with the prefix, in search order.

    With orderly, the output is the subsequence of the full search that
    the orderly rule of the module docstring keeps; it still holds the
    column-major lex-least labeling of every isomorphism class.
    """
    # Columns are 0-based bytes: cols[k][x] is x*k. tabs[k] is cols[k] as a
    # bytes.translate table and invs[k] its inverse; both are read only
    # while cols[k] is set.
    options = list(_candidate_columns(n))
    identity = bytes(range(n))
    tail = bytes(range(n, 256))
    # levels[j][x] lists the members sigma of H_j other than the identity
    # with sigma^-1(j) = x, as (translate table, inverse) pairs; levels[j][j]
    # is G_j. Level 0 lists only G_0, the cycle-type rule stands in for the
    # rest of S_n, and G_{n-1} is trivial, so levels[n] stays empty.
    levels: list[dict[int, list[tuple[bytes, bytes]]]] = [{} for _ in range(n + 1)]
    if orderly:
        levels[0] = {0: [(s + tail, bytes.maketrans(s, identity)[:n])
                         for s in options[0] if s != identity]}
        options[0] = _column1_representatives(n)
        least_of_type = {_cycle_type(p): p for p in options[0]}
    # A column's least conjugate fixing 0, looked up once per call.
    least_conjugate: dict[bytes, bytes] = {}
    first_row = [v - 1 for v in prefix]
    for j, v in enumerate(first_row):
        options[j] = [p for p in options[j] if p[0] == v]
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

    def undercut(members: list[tuple[bytes, bytes]], ptab: bytes, target: bytes) -> bool:
        # Some sigma in members gives sigma p sigma^-1 < target, ptab being
        # p's translate table.
        for tab, inv in members:
            if inv.translate(ptab).translate(tab) < target:
                return True
        return False

    def trail_undercut(j: int, trail: list[int]) -> bool:
        # Some level i <= j moves a trail column x onto i below R_i. Level
        # 0 goes by cycle type, and the branching column j passed G_j
        # before assign.
        for x in trail:
            px = cols[x]
            rep = least_conjugate.get(px)
            if rep is None:
                rep = least_of_type[_cycle_type(px)]
                least_conjugate[px] = rep
            if rep < cols[0]:
                return True
        for i in range(1, j + 1):
            for x in trail:
                if x != i and undercut(levels[i].get(x, ()), tabs[x], cols[i]):
                    return True
        return False

    def refine(j: int) -> None:
        # levels[j + 1]: the members of G_j that commute with R_j.
        level: dict[int, list[tuple[bytes, bytes]]] = {}
        pj, tabj = cols[j], tabs[j]
        for tab, inv in levels[j].get(j, ()):
            if inv.translate(tabj).translate(tab) == pj:
                level.setdefault(inv[j + 1], []).append((tab, inv))
        levels[j + 1] = level

    def search(j: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        while j < n and cols[j] is not None:
            refine(j)
            j += 1
        if j == n:
            yield tuple(zip(*(c.translate(_ONE_BASED) for c in cols)))
            return
        group = levels[j].get(j)
        for p in options[j]:
            if group and undercut(group, p + tail, p):
                continue
            trail: list[int] = []
            if assign(j, p, trail) and not (orderly and trail_undercut(j, trail)):
                refine(j)
                yield from search(j + 1)
            for t in trail:
                cols[t] = None

    yield from search(0)


def enumerate_quandles(task: EnumerationTask) -> Iterator[Quandle]:
    """Stream the quandles described by the task; deterministic for a fixed task."""
    predicate = PREDICATES[task.predicate_filter] if task.predicate_filter else None
    raw = _raw_tables(task.order, task.partition_prefix, task.orderly)
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
    small orders this package targets. Row r of the relabeled table is
    sigma L_x sigma^-1 with x = sigma^-1(r), two ``bytes.translate`` calls
    on 0-based rows, which compare like the 1-based ones.
    """
    n = q.n
    identity = bytes(range(n))
    tail = bytes(range(n, 256))
    left = [bytes([v - 1 for v in row]) + tail for row in q.rows]
    best = [row[:n] for row in left]
    best_sigma = identity
    for images in permutations(identity):
        sigma = bytes(images)
        tab = sigma + tail
        inv = bytes.maketrans(sigma, identity)[:n]
        for r in range(n):
            new_row = inv.translate(left[inv[r]]).translate(tab)
            if new_row != best[r]:
                break
        else:
            continue  # the same table: the first witness stays
        if new_row < best[r]:
            best = [inv.translate(left[inv[r]]).translate(tab) for r in range(n)]
            best_sigma = sigma
    return (Quandle([row.translate(_ONE_BASED) for row in best]),
            Permutation(best_sigma.translate(_ONE_BASED)))


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
    when ``up_to_iso``), so any jobs count yields the same list. More than
    one job runs the labeled search in the workers and reduces in the
    parent, so it is checked against the labeled guard before any worker
    starts, and with ``up_to_iso`` it is slower than one job.
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
    order_guard: Optional[int] = None,
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
