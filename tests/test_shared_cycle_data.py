"""Orbit links, and the verdicts taken along them, against each column's own check.

A table walks the cycles of the first column of each orbit only; every
other column y = x*s takes R_x's cycle structure, and ``check_left_refinement``
decides left refinement at a bijective row on column 1. Its reports
are checked here against the direct per-element calls on a fresh table,
on every labeled table of orders 1-6, on Aff(Z_n, t) for odd n up to 47,
on the transposition quandles of S_4 .. S_8 and on two disjoint unions,
so that latin tables (every link from the first column), connected
non-latin ones (links two rows deep) and tables of several orbits are
all covered.

The table predicates read from the byte rows (unique fixed points,
latinity, the bijective rows) and the structures copied along the links
are checked the same way against point walks, on tables with bytes and
on one without. Left refinement's byte verdict, kept on the table, is
read once per table and does not depend on the row checked first; the
fields cached on a cycle structure and the regular-cycle details read
from them are checked against recomputations from the lengths and the
cycles.
"""

import importlib.util
import math
import pickle
from enum import IntEnum
from pathlib import Path

import pytest

from quandles import checks
from quandles.checks import (CheckReport, all_checks, check_conjugation_identity, check_cycle_length_division,
                             check_cycle_shift, check_latin_necessary_conditions, check_latin_sufficiency,
                             check_left_refinement, check_regular_cycle, report_record)
from quandles.catalog import parse_table
from quandles.constructions import affine, conjugation, dihedral
from quandles.orbits import orbits
from quandles.perm import CycleStructure, Permutation
from quandles.quandle import Quandle

from _oracles import cycles_of


def transposition_quandle(k):
    swap = Permutation.from_cycles(k, [(1, 2)])
    rotate = Permutation.from_cycles(k, [tuple(range(1, k + 1))])
    return conjugation([swap, rotate], swap)


def union_rows(blocks):
    """A disjoint union acting trivially across blocks: a block of 2 is trivial, one of 3 dihedral."""
    starts = [sum(blocks[:b]) for b in range(len(blocks))]
    block = [b for b, size in enumerate(blocks) for _ in range(size)]

    def op(i, j):
        if block[i] != block[j] or blocks[block[i]] == 2:
            return i + 1
        start = starts[block[i]]
        return (2 * j - i - start) % 3 + start + 1

    return [[op(i, j) for j in range(len(block))] for i in range(len(block))]


def constructed_rows():
    rows = [affine(n, t).rows for n in range(3, 48, 2) for t in range(2, n)
            if math.gcd(t, n) == 1 and math.gcd(1 - t, n) == 1]
    rows += [transposition_quandle(k).rows for k in range(4, 9)]
    rows += [union_rows((2, 3)), union_rows((3, 3))]
    return rows


@pytest.fixture(scope="module")
def all_rows(enumerated):
    return [q.rows for n in range(1, 7) for q in enumerated(n, False)] + constructed_rows()


def direct_checks(rows):
    """The reports of ``all_checks``, each from its own checker on a fresh table."""
    q = Quandle(rows)
    reports = [check(q) for check in (check_conjugation_identity, check_cycle_length_division,
                                      check_latin_sufficiency, check_latin_necessary_conditions,
                                      check_regular_cycle)]
    for i in range(1, q.n + 1):
        reports += [check_left_refinement(q, i), check_cycle_shift(q.right_translation(i))]
    return reports


class TestSharedCycleData:
    def test_links_reach_every_other_point_of_each_orbit(self, all_rows):
        for rows in all_rows:
            q = Quandle(rows)
            q._find_orbits()
            reached = {min(block) for block in q._orbits}
            for y, x, s in q._links:
                assert x in reached and y not in reached and q.rows[x - 1][s - 1] == y
                reached.add(y)
            assert reached == set(range(1, q.n + 1))

    def test_a_table_without_bytes_shares_structures_and_orders(self):
        element = IntEnum("Element", [f"e{x}" for x in range(1, 9)])
        q = Quandle([[element(v) for v in row] for row in dihedral(8).rows])
        assert q._col_bytes is None
        for j, (col, cs) in enumerate(zip(q.columns(), q.column_structures()), 1):
            lengths = sorted(map(len, cycles_of(col)))
            assert list(cs.lengths()) == lengths and cs.order == q.right_translation(j).order == math.lcm(*lengths)
        assert len({id(cs) for cs in q.column_structures()}) == len(orbits(q)) == 2

    def test_all_checks_equals_the_direct_calls(self, all_rows):
        for rows in all_rows:
            ours, direct = all_checks(Quandle(rows)), direct_checks(rows)
            assert list(map(repr, ours)) == list(map(repr, direct))
            assert list(map(report_record, ours)) == list(map(report_record, direct))

    def test_an_inconsistent_verdict_is_checked_at_every_linked_column(self, monkeypatch):
        # R_1's cycle labels made wrong, one label per point: the conclusion a
        # bijective row takes from column 1 (its table is connected) fails, so
        # each such column where the hypothesis holds is checked directly and
        # gets its true report. A row that is no bijection is walked only when
        # the hypothesis holds, to name its witness; elsewhere no row is walked.
        target, walked = [None], []
        labels, failures = Permutation._cycle_labels, checks._left_refinement_failures
        monkeypatch.setattr(Permutation, "_cycle_labels",
                            lambda p: bytes(range(256)) if p is target[0] else labels(p))
        monkeypatch.setattr(checks, "_left_refinement_failures",
                            lambda row, right, i, bijective: walked.append(i) or failures(row, right, i, bijective))
        rechecked = 0
        for rows in constructed_rows():
            q = Quandle(rows)
            true = [r for r in direct_checks(rows) if r.name == "left-refinement"]
            target[:] = [q.right_translation(1)]
            del walked[:]
            reports = [r for r in all_checks(q) if r.name == "left-refinement"]
            first = orbits(q)[0]
            wrong = q._row_bytes[0] != bytes(range(q.n))
            bijective = [bool(q._bijective_rows() >> (i - 1) & 1) for i in range(1, q.n + 1)]
            expected = [i for i in range(1, q.n + 1) if true[i - 1].hypothesis_holds
                        and (not bijective[i - 1] or (i in first and wrong))]
            assert walked == expected
            rechecked += len(expected)
            for i, (ours, direct) in enumerate(zip(reports, true), 1):
                record = report_record(direct)
                if bijective[i - 1] and wrong and not direct.hypothesis_holds:
                    # Not walked, as no witness is shown: the wrong verdict stands.
                    record["conclusion"] = False
                assert report_record(ours) == record
        assert rechecked > 200


class TestPredicatesAgainstPointWalks:
    @pytest.fixture(scope="class")
    def tables(self, enumerated):
        element = IntEnum("Element", [f"e{x}" for x in range(1, 9)])
        tables = [q for n in range(1, 6) for q in enumerated(n, False)]
        tables += [Quandle(rows) for rows in constructed_rows()]
        tables.append(Quandle([[element(v) for v in row] for row in dihedral(8).rows]))
        return tables

    def test_every_kind_of_table_is_here(self, tables):
        assert tables[-1]._row_bytes is None
        assert all(q._row_bytes is not None for q in tables[:-1])

    def test_predicates_equal_point_walks(self, tables):
        for q in tables:
            n = q.n
            bijective = sum(1 << i for i, row in enumerate(q.rows) if len(set(row)) == n)
            assert q._bijective_rows() == bijective
            assert q.is_latin == (bijective == (1 << n) - 1)
            fixed = [sum(col[x - 1] == x for x in range(1, n + 1)) for col in q.columns()]
            assert q.has_unique_fixed_points == (fixed == [1] * n)
            walked = tuple(CycleStructure.from_lengths(map(len, cycles_of(col))) for col in q.columns())
            assert q.column_structures() == walked

    def test_structures_build_no_linked_translation(self, tables):
        connected = 0
        for q in tables[:-1]:
            fresh = Quandle(q.rows)
            fresh.column_structures()
            if len(fresh._orbits) == 1:
                connected += 1
                assert fresh._translations[0] is not None
                assert all(fresh._translations[y - 1] is None for y, _, _ in fresh._links)
                assert len(fresh._links) == q.n - 1
        assert connected > 100

    def test_translations_built_later_take_their_own_structures(self, tables):
        # Once the structures are known, a translation takes its column's, and walks nothing.
        seeded = 0
        for q in tables[:-1]:
            fresh = Quandle(q.rows)
            walked = fresh.column_structures()
            for j in range(1, q.n + 1):
                built = fresh._translations[j - 1] is None
                p = fresh._right_translation(j)
                assert p.cycle_structure() == CycleStructure.from_lengths(map(len, cycles_of(q.columns()[j - 1])))
                assert p.cycle_structure() is walked[j - 1]
                if built:
                    assert p._cycles is None
                    seeded += 1
        assert seeded > 1000


def catalog_tables():
    """The tables ``scripts/catalog_orders.py`` times, parsed from their texts."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "catalog_orders.py"
    spec = importlib.util.spec_from_file_location("catalog_orders", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [parse_table(text, "auto") for _, text in module.catalog_texts(module.DEFAULT_MAX_ORDER)]


class TestTableVerdictsOnceEach:
    def test_left_refinement_reads_column_1_once_per_table(self, monkeypatch):
        # Only left refinement reads the range-checked translation; its byte
        # verdict is decided once, when a bijective row first asks, and kept.
        read = []
        real = Quandle.right_translation
        monkeypatch.setattr(Quandle, "right_translation", lambda self, j: read.append(j) or real(self, j))
        q = affine(47, 5)
        assert q.is_latin
        reports = all_checks(q)
        assert read == [1]
        assert q._left_refines is True
        assert sum(r.name == "left-refinement" and r.conclusion_holds for r in reports) == 47
        # A new table decides its own verdict.
        all_checks(affine(47, 5))
        assert read == [1, 1]

    def test_the_verdict_does_not_depend_on_the_row_checked_first(self):
        # Whichever bijective row asks first, the table's verdict is column 1's.
        reversed_first = 0
        for rows in constructed_rows():
            forward, backward = Quandle(rows), Quandle(rows)
            n = forward.n
            ours = [check_left_refinement(backward, i) for i in range(n, 0, -1)][::-1]
            direct = [check_left_refinement(forward, i) for i in range(1, n + 1)]
            assert list(map(report_record, ours)) == list(map(report_record, direct))
            reversed_first += backward._left_refines is not None and n > 1
        assert reversed_first > 100

    def test_a_non_bijective_row_is_walked_only_to_show_its_witness(self, nonlatin3, monkeypatch):
        # Rows 1 and 2 of nonlatin3 repeat a value, and column 2 fixes every
        # point, so the hypothesis fails and no row is scanned or translated.
        walked, read = [], []
        failures, real = checks._left_refinement_failures, Quandle.right_translation
        monkeypatch.setattr(checks, "_left_refinement_failures",
                            lambda row, right, i, bijective: walked.append(i) or failures(row, right, i, bijective))
        monkeypatch.setattr(Quandle, "right_translation", lambda self, j: read.append(j) or real(self, j))
        q = Quandle(nonlatin3.rows)
        reports = [check_left_refinement(q, i) for i in (1, 2)]
        assert (walked, read) == ([], [])
        assert [(r.conclusion_holds, r.witnesses, r.failure_count) for r in reports] == [(False, (), 0)] * 2
        # With unique fixed points assumed, R_1 = (1)(2 3) meets the hypothesis
        # and row 1 = [1, 1, 1] shows its first repeat.
        monkeypatch.setattr(Quandle, "has_unique_fixed_points", property(lambda self: True))
        report = check_left_refinement(q, 1)
        assert (walked, read) == ([1], [1])
        assert report.hypothesis_holds and not report.conclusion_holds
        assert (report.witnesses, report.failure_count) == (((1, 1),), 1)


def partitions(n, largest=None):
    """Every partition of n into parts of at most ``largest``, parts descending."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


class TestCachedStructureFields:
    def test_fields_equal_a_recomputation_from_the_lengths(self):
        count = 0
        for degree in range(1, 10):
            for parts in partitions(degree):
                cs = CycleStructure.from_lengths(parts)
                lengths = cs.lengths()
                assert sorted(parts) == list(lengths)
                order = math.lcm(*lengths)
                assert cs.order == order
                assert cs.longest_cycle_length == max(lengths)
                assert cs.has_regular_cycle == (order in lengths)
                count += 1
        assert count == 30 + 22 + 15 + 11 + 7 + 5 + 3 + 2 + 1

    def test_read_fields_leave_equality_hash_and_pickle_to_the_entries(self):
        for parts in partitions(9):
            cs, twin = CycleStructure.from_lengths(parts), CycleStructure.from_lengths(parts)
            read = (cs.order, cs.longest_cycle_length, cs.has_regular_cycle, cs.has_distinct_lengths)
            assert cs == twin and hash(cs) == hash(twin) == hash(cs.entries)
            assert repr(cs) == repr(twin) == f"CycleStructure(entries={cs.entries!r})"
            back = pickle.loads(pickle.dumps(cs))
            assert back == twin and hash(back) == hash(twin) and back.entries == cs.entries
            assert (back.order, back.longest_cycle_length, back.has_regular_cycle,
                    back.has_distinct_lengths) == read

    @pytest.fixture(scope="class")
    def checked_tables(self, enumerated):
        return [q for n in range(1, 7) for q in enumerated(n, True)] + catalog_tables()

    def test_regular_cycle_details_equal_each_columns_cycles(self, checked_tables):
        assert len(checked_tables) == 1 + 1 + 3 + 7 + 22 + 73 + 102
        for table in checked_tables:
            q = Quandle(table.rows)
            report = check_regular_cycle(q)
            walked = [list(map(len, cycles_of(col))) for col in q.columns()]
            orders = tuple(math.lcm(*lengths) for lengths in walked)
            longest = tuple(map(max, walked))
            irregular = tuple((j,) for j, (m, l) in enumerate(zip(orders, longest), 1) if m != l)
            assert report.details["column_orders"] == orders
            assert report.details["column_longest"] == longest
            assert (report.witnesses, report.failure_count) == (irregular[:16], len(irregular))
            assert report.conclusion_holds == (not irregular)
