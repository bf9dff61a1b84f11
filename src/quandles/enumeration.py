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
The canonical form is the least of all n! relabelings, and the relabelings
that give it form one coset of Aut(Q); counting them in the same scan
gives |Aut(Q)|, so each class comes with its size n!/|Aut(Q)|, the number
of labeled tables it stands for. ``verify`` checks one table per class
and counts its reports that many times.

The scan reads the relabelings of order n from one table, built once per
order: (sigma, translate table, inverse) for every sigma, in
``itertools.permutations`` order (1 ms to build at order 6; 0.05 s and
about 18 MB at order 8; above ``ISO_ORDER_GUARD`` no table is kept and
the relabelings are built as the scan goes). Each sigma builds the first
row of its table first and is dropped if that row is above the best
first row: its table is then above the best table. That is exact: a
sigma whose first row ties is still compared row by row to the end, so
every sigma giving the least table is counted, and the first of them in
``permutations`` order stays the witness. Most sigma cost two
``bytes.translate`` calls, not 2n.

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
G_j screens each candidate p for a branching column j > 1 before it is
assigned, and after the assignment every column x the branch set is
tested against the members listed under x at each level up to j. Level
j + 1 is the members of G_j that commute with R_j, listed by
sigma^-1(j + 1). H_1 is all of S_n and is never listed beyond G_1, which
is kept only to be refined: column 1 tries one permutation per cycle
type, the lex-least one, e.g. (1)(2)(3 4)(5 6 7) for the type 1+2+3 at
n = 7, which no member of G_1 conjugates below itself, and a set column
x cuts the branch iff the least permutation fixing 1 of its cycle type
is below R_1. Columns set by propagation lie in the subquandle generated
by the branching columns, which every member of the later H_j fixes
pointwise, so they need no test of their own. The least labeling of
every class survives, so the reduced stream is unchanged; the order-6
search visits 277 tables instead of 6658, and order 7 1,996.

One pipeline validates, filters and reduces the raw tables of a task,
for one job and for many. The tables it validates, and the canonical
forms it builds, take their right translations from one dict owned by
that call: equal columns in different tables share one ``Permutation``,
so its cycles, cycle structure and order are computed once (order 6 has
6658 tables with 39,948 columns but 455 distinct ones). Every table is
still validated in full. Nothing is shared between calls.

Column 1 is always the search's first branch and is never forced, so
either search splits by its first column into share-nothing units whose
outputs, in the order of their first columns, concatenate to the whole
search: one unit per permutation fixing 1 for the labeled search, and one
per column-1 representative, so one per cycle type, for the orderly one.
The orderly rule needs nothing from another unit: G_1 and the least
permutation of each cycle type are built before the unit's first column
is fixed. ``enumerate_parallel`` runs the units of the task's search in
worker processes and feeds their raw rows, in that order, to the same
pipeline, so any jobs count gives what one job gives.
"""

from __future__ import annotations

import functools
import math
import os
from itertools import chain, permutations
from typing import Callable, Iterable, Iterator, Optional

from ._value import Value
from .orbits import is_connected
from .perm import CycleStructure, Permutation
from .quandle import Quandle

# The largest orders searched without an explicit guard, from measured
# times on 2 vCPUs (scripts/labeled_orders.py writes BENCH_labeled.json):
# the labeled order-7 search finds 152,900 tables in about a minute, and
# in a minute the labeled order-8 search does not finish the first of its
# 5040 first columns, while ``enumerate 8 --iso`` finishes in about 2 min.
LABELED_ORDER_GUARD = 7
ISO_ORDER_GUARD = 8

PREDICATES: dict[str, Callable[[Quandle], bool]] = {
    "latin": lambda q: q.is_latin,
    "connected": is_connected,
    "distinct-lengths": lambda q: q.has_repeat_free_profile,
    "unique-fixed-point": lambda q: q.has_unique_fixed_points,
}


class OrderTooLargeError(ValueError):
    def __init__(self, order: int, guard: int):
        super().__init__(
            f"order {order} exceeds the search guard {guard};"
            " raise order_guard explicitly to run anyway"
        )


class EnumerationTask(Value):
    """One enumeration request.

    A task above its guard is refused when it is made, before any search.
    Without an explicit ``order_guard`` the guard is ``ISO_ORDER_GUARD``
    with ``up_to_iso`` and ``LABELED_ORDER_GUARD`` without.
    """

    order: int
    up_to_iso: bool
    predicate_filter: Optional[str]
    order_guard: Optional[int]

    def __init__(self, order: int, up_to_iso: bool = False,
                 predicate_filter: Optional[str] = None, order_guard: Optional[int] = None):
        if order < 1:
            raise ValueError("order must be positive")
        if predicate_filter is not None and predicate_filter not in PREDICATES:
            raise ValueError(
                f"unknown predicate {predicate_filter!r};"
                f" known: {', '.join(sorted(PREDICATES))}"
            )
        guard = order_guard
        if guard is None:
            guard = ISO_ORDER_GUARD if up_to_iso else LABELED_ORDER_GUARD
        if order > guard:
            raise OrderTooLargeError(order, guard)
        self._init(order, up_to_iso, predicate_filter, order_guard)


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
    n: int, orderly: bool = False, first: Optional[bytes] = None,
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All valid tables of order n in search order, or those whose first column is first.

    first is a permutation fixing 0, as 0-based bytes. With orderly, the
    output is the subsequence of the search that the orderly rule of the
    module docstring keeps; it still holds the column-major lex-least
    labeling of every isomorphism class.
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
    if first is not None:
        options[0] = [first]
    # A column's least conjugate fixing 0, looked up once per call.
    least_conjugate: dict[bytes, bytes] = {}
    cols: list[Optional[bytes]] = [None] * n
    invs: list[Optional[bytes]] = [None] * n
    tabs: list[Optional[bytes]] = [None] * n

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
        # No member of G_0 conjugates a column-0 candidate below itself, the
        # least permutation of its cycle type; levels[0] is only refined.
        group = levels[j].get(j) if j else None
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
    return (q for q, _ in _weighted_quandles(task))


def _weighted_quandles(task: EnumerationTask) -> Iterator[tuple[Quandle, int]]:
    """``enumerate_quandles(task)``, each quandle with the number of labeled tables it stands for."""
    return _pipeline(task, _raw_tables(task.order, task.up_to_iso))


def _pipeline(
    task: EnumerationTask, raw: Iterable[tuple[tuple[int, ...], ...]],
) -> Iterator[tuple[Quandle, int]]:
    """Validate the raw tables against one translation pool, filter and, with ``up_to_iso``, reduce them.

    Each table comes with the number of labeled tables it stands for: 1,
    or n!/|Aut(Q)| for a class representative, the size of its class.
    """
    predicate = PREDICATES[task.predicate_filter] if task.predicate_filter else None
    translations: dict[tuple[int, ...], Permutation] = {}
    stream = (Quandle(rows, _pool=translations) for rows in raw)
    if predicate is not None:
        stream = (q for q in stream if predicate(q))
    if task.up_to_iso:
        return _iso_reduce(stream, translations)
    return ((q, 1) for q in stream)


def _iso_reduce(
    stream: Iterator[Quandle], pool: Optional[dict[tuple[int, ...], Permutation]] = None,
) -> Iterator[tuple[Quandle, int]]:
    """One (canonical form, n!/|Aut(Q)|) per isomorphism class; the forms take translations from pool."""
    buckets: dict[tuple, list[Quandle]] = {}
    for q in stream:
        reps = buckets.setdefault(q.iso_signature(), [])
        if any(are_isomorphic(rep, q) is not None for rep in reps):
            continue
        reps.append(q)
        rows, _, automorphisms = _least_relabeling(q)
        yield Quandle(rows, _pool=pool), math.factorial(q.n) // automorphisms


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

    Scans all n! relabelings, read from a table cached per order up to
    ``ISO_ORDER_GUARD``; a relabeling whose first row is above the best
    first row is dropped after that row. Meant for the small orders this
    package targets; the witness is the first least relabeling in
    ``itertools.permutations`` order.
    """
    rows, sigma, _ = _least_relabeling(q)
    return Quandle(rows), Permutation(sigma)


def _relabelings(n: int) -> Iterator[tuple[bytes, bytes, bytes]]:
    """(sigma, its translate table, its inverse) for every sigma in S_n, 0-based bytes, in ``permutations`` order."""
    identity = bytes(range(n))
    tail = bytes(range(n, 256))
    for sigma in map(bytes, permutations(identity)):
        yield sigma, sigma + tail, bytes.maketrans(sigma, identity)[:n]


@functools.lru_cache(maxsize=None)
def _relabeling_table(n: int) -> tuple[tuple[bytes, bytes, bytes], ...]:
    """``_relabelings(n)`` kept for the life of the process; for n up to ``ISO_ORDER_GUARD``."""
    return tuple(_relabelings(n))


def _least_relabeling(q: Quandle) -> tuple[list[bytes], bytes, int]:
    """(least relabeled rows, the first sigma giving them, |Aut(Q)|); rows and sigma are 1-based bytes.

    Row r of the relabeled table is sigma L_x sigma^-1 with x = sigma^-1(r),
    two ``bytes.translate`` calls on 0-based rows, which compare like the
    1-based ones. Each sigma builds row 0 first and is dropped if that row
    is above the best row 0: its table is then above the best table. A
    sigma whose row 0 ties is compared row by row to the end, so every
    sigma that gives the least table is counted. They form one coset of
    Aut(Q), so the count is |Aut(Q)|.

    Up to ``ISO_ORDER_GUARD`` the relabelings are read from a table kept
    per order. Above it they are built as the scan goes: the table would
    hold about 160 MB at order 9 and ten times that at order 10.
    """
    n = q.n
    tail = bytes(range(n, 256))
    left = [bytes([v - 1 for v in row]) + tail for row in q.rows]
    best = [row[:n] for row in left]
    best0 = best[0]
    best_sigma = bytes(range(n))
    ties = 0
    relabelings = _relabeling_table(n) if n <= ISO_ORDER_GUARD else _relabelings(n)
    for sigma, tab, inv in relabelings:
        new_row = inv.translate(left[inv[0]]).translate(tab)
        if new_row > best0:
            continue
        if new_row == best0:
            for r in range(1, n):
                new_row = inv.translate(left[inv[r]]).translate(tab)
                if new_row != best[r]:
                    break
            else:
                ties += 1  # the same table: the first witness stays
                continue
            if new_row > best[r]:
                continue
        best = [inv.translate(left[inv[r]]).translate(tab) for r in range(n)]
        best0 = best[0]
        best_sigma = sigma
        ties = 1
    return [row.translate(_ONE_BASED) for row in best], best_sigma.translate(_ONE_BASED), ties


def _first_column_tables(n: int, orderly: bool, first: bytes) -> list[tuple[tuple[int, ...], ...]]:
    return list(_raw_tables(n, orderly, first))


def enumerate_parallel(task: EnumerationTask, jobs: int) -> list[Quandle]:
    """``list(enumerate_quandles(task))``, with the search spread over worker processes.

    More than one job splits the task's own search by its first column,
    one unit per permutation fixing 1, or per column-1 representative with
    ``up_to_iso``, and starts at most one worker per CPU. The workers
    return raw rows; the parent takes them in search order and validates,
    filters and reduces each table once, so the result equals one job's,
    order included.
    """
    if jobs <= 1:
        return list(enumerate_quandles(task))
    # Imported here, its only use: it loads multiprocessing, which a
    # one-job run does not need.
    from concurrent.futures import ProcessPoolExecutor

    n = task.order
    units = _column1_representatives(n) if task.up_to_iso else _candidate_columns(n)[0]
    workers = min(jobs, len(units), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        tables = pool.map(functools.partial(_first_column_tables, n, task.up_to_iso), units)
        return [q for q, _ in _pipeline(task, chain.from_iterable(tables))]


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
