"""Mechanical checkers for the structural facts the toolkit is built around.

Each checker evaluates a hypothesis and a conclusion independently and
reports whether the implication holds on the given quandle, with witness
tuples for any failing instance. Nothing is assumed: the checkers double as
a falsification harness, so even statements that are theorems get their
conclusion recomputed from scratch.

The statements covered:

* conjugation identity -- conjugating a right translation by another gives
  the right translation of the product: R_k R_j R_k^-1 = R_{j*k}.
* cycle shift -- on a cycle relabeled to consecutive integers, f^(j-i)
  maps i to j.
* cycle length division -- if f is an automorphism and x*y = z, the length
  of the f-cycle of z divides lcm of the lengths of the cycles of x and y.
* left refinement -- if R_i has cycles of distinct lengths and every right
  translation has a unique fixed point, then L_i is a permutation and each
  of its cycles sits inside a cycle of R_i.
* latin sufficiency -- if every right translation has cycles of distinct
  lengths, the quandle is latin.
* latin necessary conditions -- a latin quandle is connected and all its
  right translations have a unique fixed point.
* regular cycle -- Hayashi's conjecture: every right translation of a
  finite connected quandle has a cycle as long as the permutation's order.

Work that depends only on a permutation is cached on it, and work that
depends only on a table on the table (orbits, latinity), so the checkers
share it. The columns of one orbit are conjugate: for y = x*s,
R_y = R_s R_x R_s^-1 and L_y = R_s L_x R_s^-1, and R_s is an automorphism
(Joyce, J. Pure Appl. Algebra 23, 1982). This orbit lemma is the one step
the checkers derive rather than compute. Each per-column verdict is
decided on the first column of each orbit, and the other columns of the
orbit take it (``Quandle._find_orbits``): the cycle structures, with
their orders and longest cycles, the cycle-length division screen and
the left-refinement conclusion (at a bijective row, which lies in its
orbit, so that orbit is every point). That conclusion is decided once
per table and kept on it, so a per-column call costs its report and a
few cached reads. Where a derived verdict would fail, the columns are
checked one by one, so every witness is computed. Only the cycle-shift
relabeling walks each column's own cycles, as it lists them in canonical
order, and only a read of a report's details builds it.

Cycle shift on the relabeled f depends only on the cycle structure, so
its verdict can be kept in a dict by structure, while each column's
report reads its own relabeling. ``all_checks`` keeps one such dict per
table unless it is passed one; ``verify`` passes one dict to every call of
its run, so each structure is checked once per run. A call given no dict
computes the verdict. On a cycle of length
m it is screened by one slice compare per distance d = j - i, 2m - 1 in
all; only a cycle that fails the screen is walked pair by pair, to name
its failing pairs.

Cycle length division is checked as a closure rule, not over the n^3
triples (k, x, y). Under f = R_k, l_{x*y} divides lcm(l_x, l_y) for all
x, y exactly when each Fix(f^m), m = lcm(a, b) for cycle lengths a, b of
f, is closed under *: x, y in Fix(f^m) have lcm(l_x, l_y) dividing m, and
a failing pair x, y fails at m = lcm(l_x, l_y), so row x needs only the
sets of the m = lcm(l_x, b), b a cycle length. These sets are built as
bytes for each orbit's first column, each with the rows that need it,
except those of the m its order divides (every point). Row x fails iff
for some set S that needs it, ``S.translate(row x)`` keeps a product
once S is deleted from it. Only failing rows are rescanned point by
point, with the cycle lengths, so failures keep their (k, x, y) order.
Above order 256 (entries no longer fit in bytes) every row is scanned
so.

The other checkers that can fail point by point screen the same way, on
the 0-based byte rows and columns the table keeps from validation:
conjugation identity is one pass of the validation's distributivity
screen (R_k tested in full only for k = 1, 2 and the k outside their
orbit under R_1 and R_2, which implies the rest), and left refinement at
a bijective row, which makes the table connected, is decided once per
table by one ``translate`` of row 1 by the R_1-cycle labels, and kept
on the table (``Quandle._left_keeps_r1_labels``). Their point-by-point
loops run only to name witnesses: when a screen fails, and for left
refinement only when the hypothesis holds too (a bijective row whose
verdict would be inconsistent has its cycles walked, a non-bijective
row is scanned to its first repeat), or, for a bijective row, above
order 256.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from itertools import chain
from operator import attrgetter
from typing import Iterable, Optional, Sequence

from ._value import Value
from .orbits import is_connected, orbits
from .perm import CycleStructure, Permutation
from .quandle import _IDENTITY_BYTES, Quandle, _distributive, distributivity_failures

DEFAULT_WITNESS_CAP = 16

# Cached fields of a cycle structure, read in C over a table's column structures.
_ORDER = attrgetter("order")
_LONGEST_CYCLE_LENGTH = attrgetter("longest_cycle_length")
_HAS_REGULAR_CYCLE = attrgetter("has_regular_cycle")


class CheckReport(Value):
    """Structured verdict of one checker run; compared and hashed by identity.

    ``witnesses`` holds up to a cap of failing instances; ``failure_count``
    is the total number observed. ``consistent`` is the implication
    hypothesis => conclusion; a False value on a checker covering a proved
    statement is a counterexample (or an implementation fault).
    """

    name: str
    hypothesis_holds: bool
    conclusion_holds: bool
    counted_instances: int
    witnesses: tuple[tuple[int, ...], ...]
    failure_count: int
    details: Mapping[str, object]

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, name: str, hypothesis_holds: bool, conclusion_holds: bool,
                 counted_instances: int, witnesses: tuple[tuple[int, ...], ...] = (),
                 failure_count: int = 0, details: Optional[Mapping[str, object]] = None):
        # Field by field, in order, past ``__setattr__``: a catalog pass builds thousands.
        fields = self.__dict__
        fields["name"] = name
        fields["hypothesis_holds"] = hypothesis_holds
        fields["conclusion_holds"] = conclusion_holds
        fields["counted_instances"] = counted_instances
        fields["witnesses"] = witnesses
        fields["failure_count"] = failure_count
        fields["details"] = {} if details is None else details

    @property
    def consistent(self) -> bool:
        return (not self.hypothesis_holds) or self.conclusion_holds


def render_report(report: CheckReport) -> str:
    """One status line per report."""
    status = "pass" if report.consistent else "FAIL"
    line = (
        f"{report.name}: {status}"
        f" hypothesis={'yes' if report.hypothesis_holds else 'no'}"
        f" conclusion={'yes' if report.conclusion_holds else 'no'}"
        f" instances={report.counted_instances}"
    )
    if report.failure_count:
        shown = " ".join(str(w) for w in report.witnesses)
        line += f" failures={report.failure_count} witnesses={shown}"
    return line


def report_record(report: CheckReport) -> dict:
    """JSON-ready record with the full report contents."""
    return {
        "name": report.name,
        "hypothesis": report.hypothesis_holds,
        "conclusion": report.conclusion_holds,
        "consistent": report.consistent,
        "instances": report.counted_instances,
        "failures": report.failure_count,
        "witnesses": [list(w) for w in report.witnesses],
        "details": {k: v for k, v in report.details.items()},
    }


def _capped(failures: list[tuple[int, ...]]) -> tuple[tuple, int]:
    return tuple(failures[:DEFAULT_WITNESS_CAP]), len(failures)


def check_conjugation_identity(q: Quandle) -> CheckReport:
    """R_k R_j R_k^-1 = R_{j*k} for all j, k, checked pointwise as R_k R_j = R_{j*k} R_k."""
    cols = q._col_bytes
    failures = [] if cols is not None and _distributive(cols) else distributivity_failures(q.columns())
    witnesses, count = _capped(failures)
    return CheckReport(
        name="conjugation-identity",
        hypothesis_holds=True,
        conclusion_holds=count == 0,
        counted_instances=q.n * q.n,
        witnesses=witnesses,
        failure_count=count,
    )


def consecutive_cycle_form(p: Permutation) -> tuple[Permutation, tuple[int, ...]]:
    """Relabel so cycles become consecutive blocks, shorter cycles first.

    Returns the relabeled permutation together with the relabeling map
    (old element x maps to new element relabeling[x-1]). Cycles of equal
    length keep their order by minimal element.
    """
    return _consecutive_form(p.cycle_structure()), p._consecutive_relabeling()


def _consecutive_form(structure: CycleStructure) -> Permutation:
    """The relabeled permutation of ``consecutive_cycle_form``; only the cycle structure fixes it."""
    images = []
    base = 0
    for m in structure.lengths():
        images.extend(base + (pos + 1) % m + 1 for pos in range(m))
        base += m
    return Permutation(images)


def _cycle_shift_failures(f: Permutation) -> tuple[int, list[tuple[int, int]]]:
    """(pairs counted, failing pairs (i, j)) of the cycle-shift check on a consecutive form f.

    The power f^d depends only on the distance d = j - i, so each one is
    built once, in the order the pairs first need it: at most 2m - 1
    powers for a longest cycle of length m, instead of one per pair of
    points. The pairs of a cycle c = (b+1, .., b+m) at distance d are
    screened by one compare: f^d sends the points of c that have a point
    d further on in c to those points, a slice of its images against a
    slice of c. Only a cycle where some compare fails is walked pair by
    pair, in (i, j) order.
    """
    failures = []
    counted = 0
    powers: dict[int, tuple[int, ...]] = {}
    for cycle in f.cycles():
        m = len(cycle)
        base = cycle[0] - 1
        counted += m * m
        shifted = True
        for d in chain(range(m), range(-1, -m, -1)):
            images = powers.get(d)
            if images is None:
                images = powers[d] = (f ** d).images
            if d >= 0:
                shifted &= images[base:base + m - d] == cycle[d:]
            else:
                shifted &= images[base - d:base + m] == cycle[:m + d]
        if not shifted:
            failures.extend((i, j) for i in cycle for j in cycle if powers[j - i][i - 1] != j)
    return counted, failures


class _RelabelingDetails(Mapping):
    """A cycle-shift report's details ``{"relabeling": ...}``, reading p's relabeling when asked.

    The relabeling walks p's cycles (cached on p), and nothing in the
    checkers reads it. The mapping equals, prints, pickles and copies as
    that dict; a pickle or copy of it is the dict itself.
    """

    __slots__ = ("_p",)

    def __init__(self, p: Permutation):
        self._p = p

    def __getitem__(self, key: str) -> tuple[int, ...]:
        if key == "relabeling":
            return self._p._consecutive_relabeling()
        raise KeyError(key)

    def __iter__(self):
        return iter(("relabeling",))

    def __len__(self) -> int:
        return 1

    def __repr__(self) -> str:
        return repr(dict(self))

    def __reduce__(self):
        return dict, (dict(self),)


def check_cycle_shift(p: Permutation, *,
                      _verdicts: Optional[dict[CycleStructure, tuple]] = None) -> CheckReport:
    """f^(j-i) maps i to j whenever i, j share a cycle of the consecutive-relabeled f.

    f depends only on the cycle structure of p, so the capped verdict is
    read from ``_verdicts`` by structure, or computed and kept there; with
    no dict it is computed. The details read p's relabeling only when they
    are read, so the report walks no cycle of p that p has not cached.
    """
    structure = p.cycle_structure()
    verdict = None if _verdicts is None else _verdicts.get(structure)
    if verdict is None:
        counted, failures = _cycle_shift_failures(_consecutive_form(structure))
        verdict = (counted, *_capped(failures))
        if _verdicts is not None:
            _verdicts[structure] = verdict
    counted, witnesses, count = verdict
    return CheckReport("cycle-shift", True, count == 0, counted, witnesses, count, _RelabelingDetails(p))


def _row_division_failures(k: int, x: int, row: Sequence[int],
                           lengths: Sequence[int]) -> list[tuple[int, int, int]]:
    """The failing (k, x+1, y) of the 0-based row x, y ascending; lengths are 0-based."""
    lx = lengths[x]
    return [(k, x + 1, y) for y, z in enumerate(row, 1)
            if math.lcm(lx, lengths[y - 1]) % lengths[z - 1]]


def _cycle_lengths(f: Permutation) -> list[int]:
    """The f-cycle length of each 0-based point."""
    lengths = [0] * f.n
    for cycle in f.cycles():
        for x in cycle:
            lengths[x - 1] = len(cycle)
    return lengths


def _division_screen(f: Permutation) -> tuple[tuple[bytes, bytes], ...]:
    """The sets Fix(f^m) that the cycle-length division check needs closed.

    m runs over lcm(a, b) for cycle lengths a, b of f, except the m that
    the order divides (their set is every point). Each entry pairs the
    set, the 0-based points whose cycle length divides m, with the points
    x that must be tested against it: those of a length a with
    m = lcm(a, b) for some length b, since a failing pair x, y fails at
    m = lcm(l_x, l_y). Both are bytes. For degree at most 256 only.
    """
    cycles = f.cycles()
    order = f.order
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
    return tuple(screen)


def cycle_length_division_failures(rows: Sequence[Sequence[int]],
                                   translations: Sequence[Permutation], *,
                                   _row_bytes: Optional[Sequence[bytes]] = None) -> list[tuple[int, int, int]]:
    """Every (k, x, y), k-major, where the f-cycle of x*y has a length not dividing lcm(l_x, l_y).

    f = translations[k-1] is any permutation of the points 1..n of the
    1-based n x n table ``rows``; for a quandle they are its R_k, and
    ``_row_bytes`` its 0-based rows as bytes, which are built otherwise.
    """
    n = len(rows)
    maps = None
    if n <= 256:
        if _row_bytes is None:
            _row_bytes = [bytes([v - 1 for v in row]) for row in rows]
        pad = _IDENTITY_BYTES[n:]
        maps = [row + pad for row in _row_bytes]
    failures = []
    for k, f in enumerate(translations, 1):
        scan = range(n) if maps is None else sorted(
            {x for fixed, tested in _division_screen(f) for x in tested
             if fixed.translate(maps[x]).translate(None, fixed)})
        if scan:
            lengths = _cycle_lengths(f)
            for x in scan:
                failures.extend(_row_division_failures(k, x, rows[x], lengths))
    return failures


def check_cycle_length_division(q: Quandle) -> CheckReport:
    """l_z divides lcm(l_x, l_y) for z = x*y, cycle lengths taken under every R_k.

    The first column of each orbit is screened. For y = x*s the
    automorphism R_s sends R_x's cycles onto R_y's and each failing pair
    under R_x onto one under R_y, so some column of an orbit fails iff
    the orbit's first column does. Only then are all n columns checked,
    for every failure in (k, x, y) order.
    """
    n = q.n
    failures = cycle_length_division_failures(
        q.rows, [q._right_translation(min(block)) for block in orbits(q)], _row_bytes=q._row_bytes
    )
    if failures:
        failures = cycle_length_division_failures(
            q.rows, list(map(q._right_translation, range(1, n + 1))), _row_bytes=q._row_bytes
        )
    witnesses, count = _capped(failures)
    return CheckReport(
        name="cycle-length-division",
        hypothesis_holds=True,
        conclusion_holds=count == 0,
        counted_instances=n ** 3,
        witnesses=witnesses,
        failure_count=count,
    )


def _left_refinement_failures(row: Sequence[int], right: Permutation, i: int,
                               is_permutation: bool) -> list[tuple[int, ...]]:
    """The L_i-cycles outside every R_i-cycle, or (i, v) for the first repeated v of a non-bijective row."""
    failures = []
    if is_permutation:
        right_sets = [frozenset(c) for c in right.cycles()]
        for cycle in Permutation(row).cycles():
            cset = set(cycle)
            if not any(cset <= rs for rs in right_sets):
                failures.append(tuple(cycle))
    else:
        seen = set()
        for v in row:
            if v in seen:
                failures.append((i, v))
                break
            seen.add(v)
    return failures


def check_left_refinement(q: Quandle, i: int) -> CheckReport:
    """Distinct R_i cycle lengths + unique fixed points => L_i permutes and refines R_i.

    The conclusion is evaluated unconditionally so the report can show
    whether it holds even when the hypothesis fails. For a bijective row
    of a table kept as bytes it is decided at column 1: row i lies in the
    orbit of i, so the table is connected and i = 1*s for some s, and R_s
    carries L_1 and R_1 onto L_i and R_i. So L_i refines R_i iff L_1
    refines R_1, iff L_1 keeps every point's R_1-cycle label, one
    ``translate`` of row 1 by the labels and one compare. That verdict
    belongs to the table, which decides it once and keeps it
    (``Quandle._left_keeps_r1_labels``); every bijective row reads it. A
    non-bijective row fails the conclusion. Rows are walked only to name
    the witnesses a report shows, which it does only when the hypothesis
    holds: a bijective row whose verdict would be inconsistent has L_i
    and R_i checked directly, and a non-bijective row is scanned to its
    first repeat. Without bytes, a bijective row is always checked
    directly.
    """
    q._check_element(i)
    hypothesis = q.column_structures()[i - 1].has_distinct_lengths and q.has_unique_fixed_points
    is_permutation = bool(q._bijective_rows() >> (i - 1) & 1)
    if not is_permutation:
        conclusion = False
        walk = hypothesis
    elif q._row_bytes is None:
        walk = True
    else:
        conclusion = q._left_keeps_r1_labels()
        walk = hypothesis and not conclusion
    witnesses, count = (), 0
    if walk:
        failures = _left_refinement_failures(q.rows[i - 1], q.right_translation(i), i, is_permutation)
        conclusion = is_permutation and not failures
        if hypothesis and failures:
            witnesses, count = _capped(failures)
    return CheckReport("left-refinement", hypothesis, conclusion, 1, witnesses, count,
                       {"element": i, "left_is_permutation": is_permutation})


def has_repeat_free_profile(q: Quandle) -> bool:
    """True iff every right translation has cycles of pairwise distinct lengths."""
    return q.has_repeat_free_profile


def check_latin_sufficiency(q: Quandle) -> CheckReport:
    """Repeat-free profile => latin; an inconsistent report is a counterexample."""
    hypothesis = has_repeat_free_profile(q)
    conclusion = q.is_latin
    witnesses: tuple[tuple[int, ...], ...] = ()
    if hypothesis and not conclusion:
        witnesses = (tuple(v for row in q.rows for v in row),)
    return CheckReport(
        name="latin-sufficiency",
        hypothesis_holds=hypothesis,
        conclusion_holds=conclusion,
        counted_instances=1,
        witnesses=witnesses,
        failure_count=len(witnesses),
    )


def check_latin_necessary_conditions(q: Quandle) -> CheckReport:
    """Latin => all right translations have a unique fixed point, and connected."""
    latin = q.is_latin
    unique_fp = q.has_unique_fixed_points
    blocks = orbits(q)
    connected = len(blocks) == 1
    failures = []
    if latin:
        if not unique_fp:
            for j in range(1, q.n + 1):
                for x in q._right_translation(j).fixed_points():
                    if x != j:
                        failures.append((j, x))
        if not connected:
            failures.append(tuple(sorted(min(blocks, key=lambda b: (len(b), sorted(b))))))
    witnesses, count = _capped(failures)
    return CheckReport(
        name="latin-necessary-conditions",
        hypothesis_holds=latin,
        conclusion_holds=unique_fp and connected,
        counted_instances=q.n,
        witnesses=witnesses,
        failure_count=count,
        details={"unique_fixed_point": unique_fp, "connected": connected},
    )


def check_regular_cycle(q: Quandle) -> CheckReport:
    """Hayashi's conjecture on one quandle: connected => every column has a regular cycle.

    Each column's order, longest cycle and regular-cycle flag are cached
    on its cycle structure, which the columns of one orbit share, and are
    read in C with ``attrgetter``; no translation is built.
    """
    connected = is_connected(q)
    structures = q.column_structures()
    regular = list(map(_HAS_REGULAR_CYCLE, structures))
    failures = [] if all(regular) else [(j,) for j, r in enumerate(regular, 1) if not r]
    witnesses, count = _capped(failures)
    return CheckReport(
        name="regular-cycle",
        hypothesis_holds=connected,
        conclusion_holds=count == 0,
        counted_instances=q.n,
        witnesses=witnesses,
        failure_count=count,
        details={
            "connected": connected,
            "column_orders": tuple(map(_ORDER, structures)),
            "column_longest": tuple(map(_LONGEST_CYCLE_LENGTH, structures)),
        },
    )


def all_checks(q: Quandle, *,
               _verdicts: Optional[dict[CycleStructure, tuple]] = None) -> list[CheckReport]:
    """Every checker on one quandle: table-level ones plus per-element ones.

    Cycle shift is checked once per cycle structure in the table, or, given
    a ``_verdicts`` dict, once per structure over every call passed it.
    """
    reports = [
        check_conjugation_identity(q),
        check_cycle_length_division(q),
        check_latin_sufficiency(q),
        check_latin_necessary_conditions(q),
        check_regular_cycle(q),
    ]
    if _verdicts is None:
        _verdicts = {}
    for i in range(1, q.n + 1):
        reports.append(check_left_refinement(q, i))
        reports.append(check_cycle_shift(q._right_translation(i), _verdicts=_verdicts))
    return reports


def search_nonconnected_refinement(source: Iterable[Quandle]) -> list[Quandle]:
    """Quandles meeting the left-refinement hypotheses at some element yet not connected.

    No such quandle is known; a nonempty result is a genuine finding, not
    an error. The result is sorted by (order, table entries) so streams may
    arrive in any order.
    """
    found = []
    for q in source:
        if not q.has_unique_fixed_points:
            continue
        if not any(
            cs.has_distinct_lengths for cs in q.column_structures()
        ):
            continue
        if not is_connected(q):
            found.append(q)
    found.sort(key=lambda q: (q.n, q.rows))
    return found
