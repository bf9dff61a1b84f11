"""Cycle data shared along orbit links, against each column's own cycle walk.

A table walks the cycles of the first column of each orbit only; every
other column y = x*s gets R_x's structure, order, cycle labels and
division screen conjugated by R_s. Each is checked here against a walk of
the column itself, on every labeled table of orders 1-6, on Aff(Z_n, t) for
odd n up to 47, on the transposition quandles of S_4 .. S_8 and on two
disjoint unions, so that latin tables (every link from the first column),
connected non-latin ones (links two rows deep) and tables of several
orbits are all covered.

The table predicates read from the byte rows (unique fixed points,
latinity, the bijective rows) and the structures copied along the links
are checked the same way against point walks, on tables with bytes and
on one without.
"""

import math
from enum import IntEnum

import pytest

from quandles.checks import all_checks, report_record
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


def screen_sets(screen):
    return sorted((sorted(fixed), sorted(tested)) for fixed, tested in screen)


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

    def test_cycle_data_equals_a_walk_of_each_column(self, all_rows):
        for rows in all_rows:
            n = len(rows)
            q = Quandle(rows)
            structures = q.column_structures()
            for col, cs, p in zip(q.columns(), structures, q._shared_translations()):
                cycles = cycles_of(col)
                lengths = sorted(map(len, cycles))
                assert list(cs.lengths()) == lengths and p.order == math.lcm(*lengths)
                labels = p._cycle_labels()
                assert len(labels) == 256 and not any(labels[n:])
                blocks = {}
                for x in range(n):
                    blocks.setdefault(labels[x], set()).add(x + 1)
                assert sorted(map(sorted, blocks.values())) == sorted(map(sorted, cycles))
                assert screen_sets(p._division_screen()) == screen_sets(Permutation(col)._division_screen())

    def test_a_table_without_bytes_shares_structures_and_orders(self):
        element = IntEnum("Element", [f"e{x}" for x in range(1, 9)])
        q = Quandle([[element(v) for v in row] for row in dihedral(8).rows])
        assert q._col_bytes is None
        for col, cs, p in zip(q.columns(), q.column_structures(), q._shared_translations()):
            lengths = sorted(map(len, cycles_of(col)))
            assert list(cs.lengths()) == lengths and p.order == math.lcm(*lengths)
            assert p._labels is p._screen is None
        assert len({id(cs) for cs in q.column_structures()}) == len(orbits(q)) == 2

    def test_reports_equal_those_with_the_fill_patched_out(self, all_rows, monkeypatch):
        def records():
            return [[report_record(r) for r in all_checks(Quandle(rows))] for rows in all_rows]

        shared = records()
        monkeypatch.setattr(Quandle, "_share_cycle_data", lambda self, translations, cols: None)
        assert records() == shared


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
