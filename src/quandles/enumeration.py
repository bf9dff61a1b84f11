"""Exhaustive generation of all quandles of a small order.

The search fills the table column by column. Candidate columns are the
permutations fixing the column index (idempotency pins the diagonal,
right-invertibility makes columns permutations), tried in lex order, and
right self-distributivity is enforced incrementally through its equivalent
translation form R_k R_j R_k^-1 = R_{j*k}: whenever two columns are known,
the column of their product is forced, so each guess propagates. The
search is orderly: it emits, in the lex order of the columns, a
subsequence of the tables that holds the column-major least labeling of
every isomorphism class. A searched table is kept iff it is that
labeling, and the same test counts the relabelings that give the table
itself, |Aut(Q)|, so each class is kept once, with its size
n!/|Aut(Q)|, the number of labeled tables it stands for. With
``up_to_iso`` each class gives its canonical form, the row-major least
of its n! relabelings; without, it gives all its labeled tables.
``verify`` checks the kept table of each class and counts its reports
that many times.

The scans over all of S_n (``_least_relabeling``, ``_labeled_tables``)
read the relabelings of order n from one table, built once per order:
(sigma, translate table, inverse) for every sigma, split by sigma^-1(1),
each part in ``itertools.permutations`` order (1 ms to build at order 6;
0.05 s and about 18 MB at order 8; above ``ISO_ORDER_GUARD`` no table is
kept and the relabelings are built as the scan goes). The canonical-form
scan visits only the parts x = sigma^-1(1) whose row x has the most
entries equal to x, as only they give the least first row. The class
test (``_column_major_ties``) visits only the relabelings that keep
column 1: for each column x of R_1's cycle type, a fixed relabeling
moving R_x onto R_1 composed with each member of the centraliser of R_1
that fixes 1, which the search lists too (``_centralizer_parts``). Each
sigma builds one column or row first and is dropped if it is above the
target's: its table is then above the target. That is exact: a sigma
that ties is compared to the end, so every sigma giving the least table
is counted, and for the canonical form the first of them in
``permutations`` order is the witness. Most sigma cost two
``bytes.translate`` calls, not 2n.

Columns are held 0-based as ``bytes`` together with their inverses and
256-byte translate tables, so each conjugation is two ``bytes.translate``
calls: R_k R_m R_k^-1 is ``inv_k.translate(tab_m).translate(tab_k)``.

The search is orderly (McKay's canonical augmentation, as in
Ho-Nelson's and Vendramin's column-by-column enumerations). Unpruned, it
would emit every table in lex order of its columns (R_1, .., R_n), so the
first table of a class is its column-major lex-least labeling; the
orderly rule keeps a subsequence that still holds that labeling of every
class. Let H_j be the permutations that fix 1..j-1 and commute with
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
sigma^-1(j + 1). H_1 is all of S_n and is never listed, nor is G_1:
column 1 tries one permutation per cycle type, the lex-least one, e.g.
(1)(2)(3 4)(5 6 7) for the type 1+2+3 at n = 7, which no member of G_1
conjugates below itself, and level 2 is read from R_1's centraliser.
That permutation puts the fixed points first and then cycles of
increasing length on consecutive points, so two of them compare as their
ascending cycle lengths do: at the first length that differs, the
shorter cycle closes first and writes the smaller image. So a set column
x cuts the branch iff its ascending cycle lengths are below R_1's.
Columns set by propagation lie in the subquandle generated by the
branching columns, which every member of the later H_j fixes pointwise,
so they need no test of their own. The order-6 search visits 277 tables,
not the 6658 labeled ones, and order 7 1,996, not 152,900.

Before those tests, the quandle's own symmetry screens each branching
column. Conjugation by a right translation permutes the translations,
R_k R_j R_k^-1 = R_{j*k}, so g R_j g^-1 = R_{g(j)} for every g in the
group the right translations generate. The set columns always form a
subquandle S, as propagation sets every product of two of them, so every
g in the stabiliser of j in <R_m : m in S> must commute with R_j. Every
table the search emits is a quandle, all pairs of its columns checked, so
a candidate for column j that does not commute with that stabiliser has
a subtree that emits nothing; dropping it leaves the output the same
stream. Schreier's lemma (Sims 1970; Seress, *Permutation Group
Algorithms*, 2003) gives generators of the stabiliser from the orbit of
j: u_{g(x)}^-1 g u_x for x in the orbit, g a set column and u_x a
transversal, O(n |S|) ``bytes.translate`` calls per branching node
(``_stabiliser_generators``). The candidates kept are those commuting
with every generator: the intersection of one set per generator, read
from a dict owned by the search call, keyed by (j, generator)
(``_screened_options``), and sorted, which is their lex order. Order 6
makes 3,596 ``assign`` calls, not the 11,725 of the unscreened search,
and order 7 52,932, not 372,670.

One pipeline validates, filters and reduces the searched tables of a
task, for one job and for many: it keeps the tables that are their own
column-major least labeling, one per isomorphism class, with no
isomorphism test between tables. With ``up_to_iso`` a class gives its
canonical form. Without, it gives its n!/|Aut(Q)| distinct relabelings,
each class sorted by column-major bytes, and the classes are merged;
they are disjoint, so every labeled table comes out once, in the lex
order of its columns, the order the unpruned search would emit them in.
The filter runs before the reduction: every predicate is
isomorphism-invariant, so it keeps whole classes. An order's labeled
tables are held, as bytes, until the merge starts: about 20 MB at order 7.

Column 1 is set before branching starts, so the search runs as
share-nothing units, one per column-1 representative, so one per cycle
type, whose outputs, in the order of their first columns, concatenate to
the whole search. The orderly rule needs nothing from another unit: a
unit's level 2 is read from the centraliser of its own R_1.
``enumerate_parallel`` runs the units in worker processes, for every
task, and feeds their raw rows, in that order, to the same pipeline, so
any jobs count gives what one job gives; ``enumerate --jobs`` prints the
pipeline's tables as they come, while the pool is open.
"""

from __future__ import annotations

import functools
import math
import os
from itertools import chain, permutations
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ._value import Value
from .orbits import is_connected, orbits
from .perm import Permutation
from .quandle import Quandle

# The largest orders searched without an explicit guard, from measured
# times on 2 vCPUs. ``enumerate 8 --iso`` finishes in 30-40 s, a third
# of it the search (scripts/iso_orders.py writes BENCH_iso.json). The
# labeled order-7 stream of 152,900 tables takes about 9 s and peaks
# at about 34 MB (scripts/labeled_orders.py writes BENCH_labeled.json);
# order 8 would hold its 5,225,916 tables, about 0.5 GB as bytes alone,
# before yielding the first.
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
        # A bool is an int subclass, and is refused with the rest.
        if type(order) is not int:
            raise ValueError(f"order must be an int, got {order!r}")
        if order_guard is not None and type(order_guard) is not int:
            raise ValueError(f"order_guard must be an int or None, got {order_guard!r}")
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


def _cycle_type(p: bytes) -> tuple[int, ...]:
    """The cycle lengths of a 0-based permutation, ascending with multiplicity."""
    seen = bytearray(len(p))
    lengths = []
    for start in range(len(p)):
        x, length = start, 0
        while not seen[x]:
            seen[x] = 1
            x = p[x]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


@functools.lru_cache(maxsize=None)
def _least_of_type(lengths: tuple[int, ...]) -> bytes:
    """The lex-least permutation with these ascending cycle lengths, which fixes 0, as 0-based bytes.

    It fixes the smallest points and then closes cycles of increasing length
    on consecutive points, e.g. (0)(1)(2 3)(4 5 6) for the lengths 1, 1, 2, 3.
    """
    images: list[int] = []
    for length in lengths:
        start = len(images)
        images += range(start + 1, start + length)
        images.append(start)
    return bytes(images)


def _partitions(total: int, least: int = 1) -> Iterator[tuple[int, ...]]:
    """The partitions of total into parts of at least ``least``, each ascending, in lex order."""
    if total == 0:
        yield ()
    for part in range(least, total + 1):
        for rest in _partitions(total - part, part):
            yield (part,) + rest


def _column1_representatives(n: int) -> list[bytes]:
    """The lex-least permutation fixing 0 of each cycle type, as 0-based bytes, in lex order.

    One per partition of n - 1, the cycle type on the points other than 0.
    """
    return [_least_of_type((1,) + lengths) for lengths in _partitions(n - 1)]


def _stabiliser_generators(gens: list[bytes], j: int) -> set[bytes]:
    """Generators of the stabiliser of j in the group gens generate, as 0-based bytes, less the identity.

    gens are permutations of one degree, at least one. By Schreier's
    lemma the u_{g(x)}^-1 g u_x generate it, for x in the orbit of j, g in
    gens and u_x a transversal (u_x(j) = x), here built breadth first.
    """
    n = len(gens[0])
    identity = bytes(range(n))
    tail = bytes(range(n, 256))
    tabs = [g + tail for g in dict.fromkeys(gens) if g != identity]
    # x -> u_x^-1 as a translate table, for x in the orbit found so far.
    inverses = {j: identity + tail}
    transversal = [(j, identity)]
    found = set()
    for x, u in transversal:
        for tab in tabs:
            gu = u.translate(tab)
            y = tab[x]
            inverse = inverses.get(y)
            if inverse is None:
                inverses[y] = bytes.maketrans(gu, identity)
                transversal.append((y, gu))
            else:
                s = gu.translate(inverse)
                if s != identity:
                    found.add(s)
    return found


def _screened_options(
    columns: list[bytes], j: int, commuting: dict[tuple[int, bytes], set[bytes]],
) -> Sequence[bytes]:
    """The candidates for column j, in lex order, that commute with the stabiliser of j in the group of the columns.

    columns are 0-based bytes, at least one. Each generator s of the
    stabiliser (``_stabiliser_generators``) keeps the candidates that commute
    with it, read from commuting, keyed by (j, s), or found and stored there.
    With no generator the candidates are ``_candidate_columns(n)[j]``.
    """
    n = len(columns[0])
    options = _candidate_columns(n)[j]
    generators = _stabiliser_generators(columns, j)
    if not generators:
        return options
    tail = bytes(range(n, 256))
    sets = []
    for s in generators:
        members = commuting.get((j, s))
        if members is None:
            tab = s + tail
            members = commuting[j, s] = {p for p in options if p.translate(tab) == s.translate(p + tail)}
        sets.append(members)
    # Sorted bytes of one length are in lex order, the order of options.
    return sorted(min(sets, key=len).intersection(*sets))


# x -> x + 1 on bytes, to turn 0-based columns into 1-based table entries.
_ONE_BASED = bytes(range(1, 256)) + b"\0"


def _raw_tables(n: int, first: Optional[bytes] = None) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The orderly search's tables of order n in search order, or those whose first column is first.

    first is a column-1 representative, as 0-based bytes, and the search
    is one unit per representative, in lex order. The output is the
    subsequence of the column search that the orderly rule keeps; it
    holds the column-major lex-least labeling of every isomorphism class.

    A branching column j tries only the candidates that commute with the
    stabiliser of j in the group the set columns generate, given by its
    Schreier generators (``_screened_options``). In a quandle
    g R_j g^-1 = R_{g(j)} for every g in that group, so no completion of
    another candidate is a quandle and its subtree emits nothing: the
    output is the stream the unscreened search emits. The sets of
    candidates commuting with each generator live in a dict owned by the
    call, like the cycle types.
    """
    # Columns are 0-based bytes: cols[k][x] is x*k. tabs[k] is cols[k] as a
    # bytes.translate table and invs[k] its inverse; both are read only
    # while cols[k] is set.
    identity = bytes(range(n))
    tail = bytes(range(n, 256))
    firsts = _column1_representatives(n) if first is None else [first]
    # levels[j][x] lists the members sigma of H_j other than the identity
    # with sigma^-1(j) = x, as (translate table, inverse) pairs; levels[j][j]
    # is G_j. The cycle-type rule stands in for H_0 = S_n, so levels[0]
    # stays empty, and so does levels[n], as G_{n-1} is trivial.
    levels: list[dict[int, list[tuple[bytes, bytes]]]] = [{} for _ in range(n + 1)]
    # A column's cycle type, found once per call.
    cycle_types = {p: _cycle_type(p) for p in firsts}
    # (j, s) -> the candidates for column j that commute with s, found once per call.
    commuting: dict[tuple[int, bytes], set[bytes]] = {}
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
        first_type = cycle_types[cols[0]]
        for x in trail:
            px = cols[x]
            cycle_type = cycle_types.get(px)
            if cycle_type is None:
                cycle_type = cycle_types[px] = _cycle_type(px)
            if cycle_type < first_type:
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
        for p in _screened_options([c for c in cols if c is not None], j, commuting):
            if group and undercut(group, p + tail, p):
                continue
            trail: list[int] = []
            if assign(j, p, trail) and not trail_undercut(j, trail):
                refine(j)
                yield from search(j + 1)
            for t in trail:
                cols[t] = None

    for p in firsts:
        # Column 0 forces no other column, as R_0 R_0 R_0^-1 = R_0. Level 1
        # is R_0's centraliser in G_0, whose part 1 starts with the identity.
        assign(0, p, [])
        if n > 1:
            levels[1] = {x: part[x == 1:] for x, part in _centralizer_parts(p).items()}
        yield from search(1)
        cols[0] = None


def enumerate_quandles(task: EnumerationTask) -> Iterator[Quandle]:
    """Stream the quandles described by the task; deterministic for a fixed task."""
    return _pipeline(task, _raw_tables(task.order))


def _class_tables(task: EnumerationTask) -> Iterator[tuple[Quandle, int]]:
    """One searched table per isomorphism class of the task, with the n!/|Aut(Q)| labeled tables it stands for.

    Each is the class's column-major least labeling, in search order; no
    canonical form is built.
    """
    return _least_labelings(_validated(task, _raw_tables(task.order)))


def _validated(task: EnumerationTask, raw: Iterable[tuple[tuple[int, ...], ...]]) -> Iterator[Quandle]:
    """The searched tables validated, those the task's filter keeps."""
    stream = map(Quandle, raw)
    if task.predicate_filter is None:
        return stream
    return filter(PREDICATES[task.predicate_filter], stream)


def _pipeline(task: EnumerationTask, raw: Iterable[tuple[tuple[int, ...], ...]]) -> Iterator[Quandle]:
    """Validate the searched tables, filter them and reduce them to classes.

    With ``up_to_iso`` each class gives its canonical form. Without, each
    class gives its labeled tables, each validated, all in column-major
    lex order.
    """
    stream = _validated(task, raw)
    if task.up_to_iso:
        return _iso_reduce(stream)
    n = task.order
    labeled = _labeled_tables(n, (q for q, _ in _least_labelings(stream)))
    return (Quandle._of_entries(entries, n) for entries in labeled)


def _least_labelings(stream: Iterable[Quandle]) -> Iterator[tuple[Quandle, int]]:
    """The tables of the stream that are their own column-major least labeling, each with n!/|Aut(Q)|."""
    for q in stream:
        automorphisms = _column_major_ties(q)
        if automorphisms:
            yield q, math.factorial(q.n) // automorphisms


def _iso_reduce(stream: Iterable[Quandle]) -> Iterator[Quandle]:
    """The canonical form of each class whose least labeling is in the stream."""
    for q, _ in _least_labelings(stream):
        yield Quandle(_least_relabeling(q)[0])


def _column_major_ties(q: Quandle) -> int:
    """|Aut(Q)| if no relabeling gives the table a smaller column-major table, else 0.

    Column c of the table relabeled by sigma is sigma R_x sigma^-1 for
    x = sigma^-1(c); as 0-based bytes, ``inv.translate(R_x).translate(sigma)``.

    Column 0 has R_x's cycle type and fixes 0, so it is at least the least
    permutation of that type (``_least_of_type``), and those compare as
    their types do: if R_0 is not the least of its type, or some column has
    a smaller type, a relabeling puts a smaller column 0 and the answer is
    0 at once. Otherwise the sigma that tie at column 0 are, for each x
    with R_x of R_0's type, tau rho_x: rho_x (``_cycle_order``) maps x to 0
    and R_x onto R_0, and tau fixes 0 and commutes with R_0
    (``_centralizer_parts``). Only they are scanned.

    Column 1 is then tau R'_y tau^-1, R' the table relabeled by rho_x and
    y = tau^-1(1), so each part y is screened first. Column 1 starts with
    0 iff R'_y fixes 0: a part whose R'_y fixes 0 beats a table whose R_1
    does not, so the answer is 0, and a part whose R'_y does not fix 0
    cannot tie a table whose R_1 does, so it is skipped. If both fix 0,
    column 1 fixes 0 and 1 and is at least the least permutation of R'_y's
    type: a part with that above R_1 is skipped, and if it is below R_1
    and R_0 = id, every tau fixing 0 commutes with R_0, one of them gives
    it, and the answer is 0.

    Each sigma left is compared column by column from column 1. The sigma
    that give the table itself are its automorphisms.
    """
    n = q.n
    if n == 1:
        return 1
    cols = q._col_bytes
    first_type = _cycle_type(cols[0])
    if cols[0] != _least_of_type(first_type):
        return 0
    types = [_cycle_type(col) for col in cols]
    if min(types) < first_type:
        return 0
    fixes_0 = cols[1][0] == 0
    first_is_identity = first_type[-1] == 1
    parts = _centralizer_parts(cols[0])
    identity = bytes(range(n))
    tail = bytes(range(n, 256))
    maps = [col + tail for col in cols]
    ties = 0
    for x in range(n):
        if types[x] != first_type:
            continue
        # The columns relabeled by rho_x, whose inverse is order.
        order = _cycle_order(cols[x], x)
        rho = bytes.maketrans(order, identity)
        moved = [order.translate(maps[v]).translate(rho) + tail for v in order]
        for y, part in parts.items():
            y_fixes_0 = moved[y][0] == 0
            if y_fixes_0 != fixes_0:
                if y_fixes_0:
                    return 0
                continue
            if fixes_0:
                least = _least_of_type(types[order[y]])
                if least != cols[1]:
                    if least < cols[1] and first_is_identity:
                        return 0
                    if least > cols[1]:
                        continue
            for tab, inv in part:
                for c in range(1, n):
                    col = inv.translate(moved[inv[c]]).translate(tab)
                    if col != cols[c]:
                        if col < cols[c]:
                            return 0
                        break
                else:
                    ties += 1
    return ties


def _cycle_order(p: bytes, x: int) -> bytes:
    """x, the other fixed points of p, then its cycles by ascending length, each walked along p.

    As the inverse of a relabeling rho, it maps x to 0 and p onto the least
    permutation of p's type, which fixes the first points and closes cycles
    on consecutive points: rho p rho^-1 = ``_least_of_type`` of p's type.
    x must be a fixed point of p.
    """
    seen = bytearray(len(p))
    seen[x] = 1
    cycles = [[x]]
    for start in range(len(p)):
        cycle = []
        y = start
        while not seen[y]:
            seen[y] = 1
            cycle.append(y)
            y = p[y]
        if cycle:
            cycles.append(cycle)
    cycles.sort(key=len)
    return bytes(chain.from_iterable(cycles))


@functools.lru_cache(maxsize=None)
def _centralizer_parts(p: bytes) -> dict[int, list[tuple[bytes, bytes]]]:
    """The relabelings tau that fix 0 and commute with p, split by tau^-1(1), as (translate table, inverse).

    Read from the search's column-0 candidates and kept for the life of
    the process, one per first column met: at most one per cycle type,
    and all (n-1)! relabelings fixing 0 for the identity. Needs n > 1.
    """
    n = len(p)
    tail = bytes(range(n, 256))
    ptab = p + tail
    parts: dict[int, list[tuple[bytes, bytes]]] = {}
    for tau in _candidate_columns(n)[0]:
        tab = tau + tail
        if p.translate(tab) == tau.translate(ptab):
            parts.setdefault(tau.index(1), []).append((tab, bytes(map(tau.index, range(n)))))
    return parts


def _labeled_tables(n: int, classes: Iterable[Quandle]) -> Iterator[bytes]:
    """Every labeled table of the given classes of order n, once each, in column-major lex order.

    Column c of the table relabeled by sigma is sigma R_x sigma^-1 for
    x = sigma^-1(c), two ``bytes.translate`` calls on the 0-based columns
    the table keeps (``_col_bytes``); the second is done once on the joined
    columns. The relabelings of a class are gathered in a set, as
    column-major bytes, and sorted; the classes are disjoint, so a merge of
    their sorted lists holds each table once. Each table is yielded as its
    1-based entries, row-major, for ``Quandle._of_entries``.
    """
    # Imported here, its only use, as --iso does not need it.
    import heapq

    tail = bytes(range(n, 256))
    per_class = []
    for q in classes:
        maps = [col + tail for col in q._col_bytes]
        tables = {b"".join(map(inv.translate, map(maps.__getitem__, inv))).translate(tab)
                  for _, tab, inv in _relabelings_from(n, range(n))}
        per_class.append(sorted(tables))
    for table in heapq.merge(*per_class):
        table = table.translate(_ONE_BASED)
        yield b"".join([table[i::n] for i in range(n)])


def are_isomorphic(a: Quandle, b: Quandle) -> Optional[Permutation]:
    """A relabeling sigma with sigma(x*y) = sigma(x)*'sigma(y), or None.

    Sends the least unassigned point x of a to a candidate y, x itself
    first, and closes the assignment: sigma(u*w) = sigma(u)*'sigma(w) for
    every assigned u, w. A clash, a repeated image or a change of column
    cycle structure (R_sigma(x) = sigma R_x sigma^-1) undoes the trail, and
    the next y is tried. The first x tries one y per orbit of b, as the
    inner automorphisms of b move y through its orbit. Each pair is closed
    when its later point is assigned, so a full assignment is an isomorphism.

    A point of b whose row is all itself and whose column is the identity
    is interchangeable with any other such point: swapping two of them is
    an automorphism of b that fixes every other point. So x tries one
    unassigned point of this kind, not each of them.
    """
    if a.n != b.n or a.profile() != b.profile():
        return None
    n = a.n
    rows_a, rows_b = a.rows, b.rows
    types_a, types_b = a.column_structures(), b.column_structures()
    identity = tuple(range(1, n + 1))
    trivial = {y for y, (row, col) in enumerate(zip(rows_b, b.columns()), 1)
               if col == identity and row.count(y) == n}
    sigma = [0] * (n + 1)
    used = [False] * (n + 1)
    trail: list[int] = []

    def assign(x: int, y: int) -> bool:
        queue = [(x, y)]
        while queue:
            u, v = queue.pop()
            if sigma[u]:
                if sigma[u] != v:
                    return False
                continue
            if used[v] or types_a[u - 1] != types_b[v - 1]:
                return False
            sigma[u] = v
            used[v] = True
            trail.append(u)
            for w in trail:
                # sigma(u*w) = v*'sigma(w) and sigma(w*u) = sigma(w)*'v; a product
                # already assigned is compared at once, before the queue grows.
                sw = sigma[w]
                for t, st in ((rows_a[u - 1][w - 1], rows_b[v - 1][sw - 1]),
                              (rows_a[w - 1][u - 1], rows_b[sw - 1][v - 1])):
                    if not sigma[t]:
                        queue.append((t, st))
                    elif sigma[t] != st:
                        return False
        return True

    def extend(x: int) -> bool:
        while x <= n and sigma[x]:
            x += 1
        if x > n:
            return True
        trivial_tried = False
        for y in chain((x,), range(1, x), range(x + 1, n + 1)) if trail else sorted(map(min, orbits(b))):
            if y in trivial and not used[y]:
                if trivial_tried:
                    continue
                trivial_tried = True
            mark = len(trail)
            if assign(x, y) and extend(x + 1):
                return True
            for u in trail[mark:]:
                used[sigma[u]] = False
                sigma[u] = 0
            del trail[mark:]
        return False

    return Permutation._of_bijection(tuple(sigma[1:])) if extend(1) else None


def canonical_form(q: Quandle) -> tuple[Quandle, Permutation]:
    """The lexicographically minimal relabeling of the table, with a witnessing map.

    Scans the relabelings that can give the least first row, read from a
    table cached per order up to ``ISO_ORDER_GUARD``; a relabeling whose
    first row is above the best first row is dropped after that row.
    Meant for the small orders this package targets; the witness is the
    first least relabeling in ``itertools.permutations`` order.
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
def _relabeling_table(n: int) -> tuple[tuple[tuple[bytes, bytes, bytes], ...], ...]:
    """``_relabelings(n)`` kept for the life of the process, split by sigma^-1(0); for n up to ``ISO_ORDER_GUARD``.

    Part x holds the sigma with sigma(x) = 0, in ``permutations`` order.
    """
    parts: list[list[tuple[bytes, bytes, bytes]]] = [[] for _ in range(n)]
    for relabeling in _relabelings(n):
        parts[relabeling[2][0]].append(relabeling)
    return tuple(map(tuple, parts))


def _relabelings_from(n: int, starts: Iterable[int]) -> Iterator[tuple[bytes, bytes, bytes]]:
    """The relabelings sigma with sigma^-1(0) in starts, read from ``_relabeling_table(n)``.

    Above ``ISO_ORDER_GUARD`` they are built as the scan goes: the table
    would hold about 160 MB at order 9 and ten times that at order 10.
    """
    if n > ISO_ORDER_GUARD:
        starts = set(starts)
        return (relabeling for relabeling in _relabelings(n) if relabeling[2][0] in starts)
    table = _relabeling_table(n)
    return chain.from_iterable(table[x] for x in starts)


def _least_relabeling(q: Quandle) -> tuple[list[bytes], bytes, int]:
    """(least relabeled rows, the first sigma giving them, |Aut(Q)|); rows and sigma are 1-based bytes.

    Row r of the relabeled table is sigma L_x sigma^-1 with x = sigma^-1(r),
    two ``bytes.translate`` calls on 0-based rows, which compare like the
    1-based ones. Row 0 has as many 0s as row x has entries x, and puts
    them first when it is least, so only the sigma whose x = sigma^-1(0)
    has the most such entries are scanned. Each builds row 0 first and is
    dropped if that row is above the best row 0: its table is then above
    the best table. A sigma whose row 0 ties is compared row by row to the
    end, so every sigma that gives the least table is counted, and the
    least of them in ``permutations`` order is the witness. They form one
    coset of Aut(Q), so the count is |Aut(Q)|.
    """
    n = q.n
    tail = bytes(range(n, 256))
    left = [bytes([v - 1 for v in row]) + tail for row in q.rows]
    fixes = [row.count(x) for x, row in enumerate(left)]
    most = max(fixes)
    starts = {x for x in range(n) if fixes[x] == most}
    best: list[bytes] = []
    best_sigma = b""
    ties = 0
    for sigma, tab, inv in _relabelings_from(n, starts):
        new_row = inv.translate(left[inv[0]]).translate(tab)
        if best:
            if new_row > best[0]:
                continue
            if new_row == best[0]:
                for r in range(1, n):
                    new_row = inv.translate(left[inv[r]]).translate(tab)
                    if new_row != best[r]:
                        break
                else:
                    ties += 1  # the same table: the least witness stays
                    best_sigma = min(best_sigma, sigma)
                    continue
                if new_row > best[r]:
                    continue
        best = [inv.translate(left[inv[r]]).translate(tab) for r in range(n)]
        best_sigma = sigma
        ties = 1
    return [row.translate(_ONE_BASED) for row in best], best_sigma.translate(_ONE_BASED), ties


def _first_column_tables(n: int, first: bytes) -> list[tuple[tuple[int, ...], ...]]:
    return list(_raw_tables(n, first))


def enumerate_parallel(task: EnumerationTask, jobs: int) -> list[Quandle]:
    """``list(enumerate_quandles(task))``, with the search spread over worker processes.

    The search is split by its first column, one unit per column-1
    representative, over min(jobs, units, CPUs) workers; one worker opens
    no pool. The workers return raw rows; the parent takes them in search
    order and validates, filters and reduces each table once, and without
    ``up_to_iso`` builds and validates the labeled tables, so the result
    equals one job's, order included.
    """
    return list(_parallel_quandles(task, jobs))


def _parallel_quandles(task: EnumerationTask, jobs: int) -> Iterator[Quandle]:
    """``enumerate_parallel(task, jobs)`` as a stream: each quandle is yielded while the pool is open."""
    units = _column1_representatives(task.order)
    workers = min(jobs, len(units), os.cpu_count() or 1)
    if workers <= 1:
        yield from enumerate_quandles(task)
        return
    # Imported here, its only use: it loads multiprocessing, which a
    # one-worker run does not need.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        tables = pool.map(functools.partial(_first_column_tables, task.order), units)
        yield from _pipeline(task, chain.from_iterable(tables))


def falsify(
    property_pair: tuple[str, str],
    max_order: int,
    order_guard: Optional[int] = None,
) -> Optional[Quandle]:
    """First quandle (by order, then search order) where hypothesis holds but conclusion fails.

    Tests one table per isomorphism class (``_class_tables``), which is
    exhaustive because both predicates are isomorphism-invariant, and
    returns the canonical form of the first class that fails, so only the
    witness's canonical form is built. The classes come in the order of
    the ``--iso`` stream, so the witness is the first that stream holds.
    Returns None when every order up to max_order is clean. Every order's
    task is made first, so a max_order above the guard raises
    ``OrderTooLargeError`` before any order is searched.
    """
    hyp_name, concl_name = property_pair
    for name in (hyp_name, concl_name):
        if name not in PREDICATES:
            raise ValueError(f"unknown predicate {name!r}; known: {', '.join(sorted(PREDICATES))}")
    hyp = PREDICATES[hyp_name]
    concl = PREDICATES[concl_name]
    tasks = [EnumerationTask(order=n, up_to_iso=True, order_guard=order_guard)
             for n in range(1, max_order + 1)]
    for task in tasks:
        for q, _ in _class_tables(task):
            if hyp(q) and not concl(q):
                return canonical_form(q)[0]
    return None
