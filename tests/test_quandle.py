from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandles.constructions import EXAMPLE_TABLES, affine, builtin_example, dihedral
from quandles.perm import Permutation
from quandles.quandle import (
    MAX_TABLE_ORDER,
    ColumnNotPermutationError,
    ElementOutOfRangeError,
    EmptyTableError,
    EntryOutOfRangeError,
    NotIdempotentError,
    NotRightDistributiveError,
    Profile,
    Quandle,
    TableError,
    TableTooLargeError,
    _distributive,
    distributivity_failures,
)

from _oracles import axioms_hold, first_table_error


def mutate(rows, i, j, value):
    out = [list(r) for r in rows]
    out[i - 1][j - 1] = value
    return out


class TestValidation:
    def test_bundled_tables_are_valid(self):
        for name in ("Q6_2", "Q9_4", "nonlatin3"):
            q = builtin_example(name)
            assert q.n == len(EXAMPLE_TABLES[name])

    def test_empty_rejected(self):
        with pytest.raises(EmptyTableError):
            Quandle([])

    def test_order_above_the_cap_is_refused_before_validation(self):
        n = MAX_TABLE_ORDER + 1
        # not even idempotent, so only the cap can be reported
        with pytest.raises(TableTooLargeError, match=f"{n} exceeds {MAX_TABLE_ORDER}"):
            Quandle([[1] * n] * n)
        assert issubclass(TableTooLargeError, ValueError)

    @pytest.mark.parametrize("build", [dihedral, lambda n: affine(n, 1)])
    def test_constructions_refuse_orders_above_the_cap(self, build):
        with pytest.raises(TableTooLargeError):
            build(MAX_TABLE_ORDER + 1)

    def test_out_of_range_entry(self):
        with pytest.raises(EntryOutOfRangeError):
            Quandle([[1, 3], [1, 2]])

    def test_broken_idempotency(self):
        rows = mutate(EXAMPLE_TABLES["Q6_2"], 1, 1, 2)
        with pytest.raises(NotIdempotentError) as err:
            Quandle(rows)
        assert err.value.i == 1

    def test_column_with_repeat(self):
        with pytest.raises(ColumnNotPermutationError) as err:
            Quandle([[1, 2], [1, 2]])
        assert (err.value.j, err.value.value) == (1, 1)

    def test_broken_distributivity(self):
        # swapping the off-diagonal entries of column 2 keeps every column
        # bijective and the diagonal intact but breaks (i*j)*k = (i*k)*(j*k)
        rows = [[1, 3, 2], [3, 2, 1], [2, 1, 3]]
        rows = mutate(mutate(rows, 1, 2, 1), 3, 2, 3)
        with pytest.raises(NotRightDistributiveError):
            Quandle(rows)

    @settings(max_examples=300)
    @given(st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(1, 3), min_size=n, max_size=n),
            min_size=n, max_size=n,
        )
    ))
    def test_matches_bruteforce_oracle(self, rows):
        expected = axioms_hold(tuple(tuple(r) for r in rows))
        try:
            Quandle(rows)
            accepted = True
        except TableError:
            accepted = False
        assert accepted == expected

    @given(st.sampled_from(sorted(EXAMPLE_TABLES)), st.data())
    def test_single_cell_mutations_agree_with_oracle(self, name, data):
        rows = EXAMPLE_TABLES[name]
        n = len(rows)
        i = data.draw(st.integers(1, n))
        j = data.draw(st.integers(1, n))
        v = data.draw(st.integers(1, n))
        mutated = mutate(rows, i, j, v)
        expected = axioms_hold(tuple(tuple(r) for r in mutated))
        try:
            Quandle(mutated)
            accepted = True
        except TableError:
            accepted = False
        assert accepted == expected


def column_swaps(rows):
    """Every table made by swapping two off-diagonal entries of one column."""
    n = len(rows)
    for j in range(n):
        for a in range(n):
            for b in range(a + 1, n):
                if j in (a, b):
                    continue
                out = [list(r) for r in rows]
                out[a][j], out[b][j] = out[b][j], out[a][j]
                yield out


def failing_triples(rows):
    """Every (i, j, k) with (i*j)*k != (i*k)*(j*k), in lex order, by a plain triple loop."""
    n = len(rows)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rows[rows[i][j] - 1][k] != rows[rows[i][k] - 1][rows[j][k] - 1]:
                    yield (i + 1, j + 1, k + 1)


SWAP_SOURCES = dict(EXAMPLE_TABLES)
SWAP_SOURCES["affine(11,3)"] = affine(11, 3).rows
SWAP_SOURCES["dihedral(8)"] = dihedral(8).rows


class TestDistributivityKernel:
    """The column-composition kernel against the brute-force triple loop."""

    @pytest.mark.parametrize("name", sorted(SWAP_SOURCES))
    def test_column_swaps_agree_with_oracle(self, name):
        for rows in column_swaps(SWAP_SOURCES[name]):
            triples = list(failing_triples(rows))
            pairs = sorted({(j, k) for _, j, k in triples})
            columns = list(zip(*rows))
            assert distributivity_failures(columns) == pairs
            assert _distributive([bytes(v - 1 for v in col) for col in columns]) == (not pairs)
            try:
                Quandle(rows)
                accepted = True
            except NotRightDistributiveError as err:
                accepted = False
                assert (err.i, err.j, err.k) == triples[0]
            assert accepted == axioms_hold(rows)

    @pytest.mark.parametrize("n, tables", [(1, 1), (2, 1), (3, 8), (4, 1296)])
    def test_every_table_of_index_fixing_columns(self, n, tables):
        # each column a permutation fixing its own index: 1, 1, 8 and 1296 tables
        options = [[p for p in permutations(range(n)) if p[j] == j] for j in range(n)]
        seen = 0
        for cols in product(*options):
            rows = [[col[i] + 1 for col in cols] for i in range(n)]
            assert _distributive([bytes(col) for col in cols]) == axioms_hold(rows)
            seen += 1
        assert seen == tables

    @pytest.mark.parametrize("blocks, orbit, swaps", [((2, 3), 2, 18), ((3, 3), 3, 30)])
    def test_a_broken_column_outside_the_orbit_of_1_and_2(self, blocks, orbit, swaps):
        # A disjoint union of blocks, each acting trivially on the others: a
        # block of 2 is trivial and one of 3 dihedral, so the orbit of {1, 2}
        # is the first block and the columns after it are tested in full.
        starts = [sum(blocks[:b]) for b in range(len(blocks))]
        block = [b for b, size in enumerate(blocks) for _ in range(size)]

        def op(i, j):
            if block[i] != block[j] or blocks[block[i]] == 2:
                return i + 1
            start = starts[block[i]]
            return (2 * j - i - start) % 3 + start + 1

        n = len(block)
        rows = [[op(i, j) for j in range(n)] for i in range(n)]
        assert _distributive([bytes(v - 1 for v in col) for col in zip(*rows)]) is axioms_hold(rows) is True
        broken = [t for t in column_swaps(rows) if all(t[i][j] == rows[i][j] for i in range(n) for j in range(orbit))]
        assert len(broken) == swaps
        for t in broken:
            assert _distributive([bytes(v - 1 for v in col) for col in zip(*t)]) is axioms_hold(t) is False

    def test_list_path_above_256(self):
        # the dihedral(257) table, built directly to skip validating it twice
        rows = [[(2 * j - i) % 257 + 1 for j in range(257)] for i in range(257)]
        rows[2][1], rows[4][1] = rows[4][1], rows[2][1]
        with pytest.raises(NotRightDistributiveError) as err:
            Quandle(rows)
        assert (err.value.i, err.value.j, err.value.k) == next(failing_triples(rows))


def outcome(rows):
    """(exception class name, message) of ``Quandle(rows)``, or None when it validates."""
    try:
        Quandle(rows)
    except TableError as e:
        return type(e).__name__, str(e)
    return None


BAD_ENTRIES = (0, "n+1", True, 1.0, "1", None)


def broken_tables(rows, cells):
    """The table with each bad entry at each cell, then with one row one short and one long."""
    n = len(rows)
    for i, j in cells:
        for bad in BAD_ENTRIES:
            yield mutate(rows, i, j, n + 1 if bad == "n+1" else bad)
    for i in sorted({i for i, _ in cells}):
        short = [list(r) for r in rows]
        short[i - 1].pop()
        yield short
        long = [list(r) for r in rows]
        long[i - 1].append(long[i - 1][0])
        yield long


def dihedral_rows(n):
    return [[(2 * j - i) % n + 1 for j in range(n)] for i in range(n)]


SCREEN_SOURCES = dict(EXAMPLE_TABLES)
SCREEN_SOURCES["affine(11,3)"] = affine(11, 3).rows
SCREEN_SOURCES["dihedral(8)"] = dihedral(8).rows


def entries_outcome(rows):
    """``outcome`` of ``Quandle._of_entries`` on the joined entries, for a square table of
    byte-sized plain ints below order 256; None for any other table, which cannot take that path."""
    n = len(rows)
    if n >= 256 or any(len(row) != n or any(type(v) is not int or not 0 <= v < 256 for v in row)
                       for row in rows):
        return None
    entries = bytes(v for row in rows for v in row)
    try:
        q = Quandle._of_entries(entries, n)
    except TableError as e:
        return type(e).__name__, str(e)
    built = Quandle(rows)
    assert q == built and (q._row_bytes, q._col_bytes) == (built._row_bytes, built._col_bytes)
    return "valid"


def assert_like_the_oracle(rows):
    """Both constructors name the oracle's first failure, or both accept the table."""
    expected = first_table_error(rows)
    assert outcome(rows) == expected
    assert entries_outcome(rows) in (None, expected or "valid")


class TestValidationScreen:
    """The byte screen names the same first failure as the library-free oracle."""

    @pytest.mark.parametrize("name", sorted(SCREEN_SOURCES))
    def test_every_cell_and_row_length(self, name):
        rows = SCREEN_SOURCES[name]
        n = len(rows)
        assert outcome(rows) is None is first_table_error(rows)
        assert entries_outcome(rows) == "valid"
        cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for broken in broken_tables(rows, cells):
            assert_like_the_oracle(broken)

    @pytest.mark.parametrize("name", sorted(SCREEN_SOURCES))
    def test_valid_values_in_every_cell_and_column_swaps(self, name):
        rows = SCREEN_SOURCES[name]
        n = len(rows)
        tables = [mutate(rows, i, j, v) for i in range(1, n + 1) for j in range(1, n + 1)
                  for v in range(1, n + 1)]
        for broken in tables + list(column_swaps(rows)):
            assert_like_the_oracle(broken)
            assert entries_outcome(broken) is not None

    @pytest.mark.parametrize("n", [255, 256, 257])
    def test_the_byte_bounds(self, n):
        # 255 and 256 are screened on bytes (256 by another conversion), 257 only point by point
        rows = dihedral_rows(n)
        cells = [(1, 1), (1, 2), (2, 1), (n // 2, n // 3), (n, n - 1), (n, n)]
        for broken in broken_tables(rows, cells):
            assert_like_the_oracle(broken)

    def test_the_largest_byte_table_validates(self):
        rows = dihedral_rows(256)
        q = Quandle(rows)
        assert q._col_bytes[255] == bytes(row[255] - 1 for row in rows)
        swapped = [list(r) for r in rows]
        swapped[2][1], swapped[4][1] = swapped[4][1], swapped[2][1]
        assert outcome(swapped) == first_table_error(swapped)

    def test_int_subclass_entries_take_the_point_paths(self):
        from enum import IntEnum

        from quandles.checks import all_checks, render_report

        Element = IntEnum("Element", [f"e{x}" for x in range(1, 9)])
        plain = dihedral(8)
        q = Quandle([[Element(v) for v in row] for row in plain.rows])
        assert q == plain and q._row_bytes is q._col_bytes is None
        assert [render_report(r) for r in all_checks(q)] == [render_report(r) for r in all_checks(plain)]

    def test_bytes_are_built_once_and_kept(self):
        q = dihedral(8)
        assert q._row_bytes == tuple(bytes(v - 1 for v in row) for row in q.rows)
        assert q._col_bytes == tuple(bytes(v - 1 for v in col) for col in q.columns())


class TestTranslations:
    def test_right_translation_q62(self, q62):
        assert q62.right_translation(1) == Permutation.from_cycles(6, [(2, 6, 4, 5)])

    def test_right_translation_q94(self, q94):
        assert q94.right_translation(1) == Permutation.from_cycles(9, [(2, 3), (4, 7, 5, 9, 6, 8)])

    def test_order_one(self):
        q = Quandle([[1]])
        assert q.right_translation(1) == Permutation.identity(1)

    def test_translations_equal_the_checked_permutations(self, enumerated):
        # Right translations skip the bijection check that validation has done;
        # one table here is validated point by point, its entries an int subclass.
        from enum import IntEnum

        Element = IntEnum("Element", [f"e{x}" for x in range(1, 9)])
        walked = Quandle([[Element(v) for v in row] for row in dihedral(8).rows])
        assert walked._col_bytes is None
        tables = [q for n in range(1, 6) for q in enumerated(n, False)] + [walked]
        for q in tables:
            for j in range(1, q.n + 1):
                checked = Permutation(q.column(j))
                assert q.right_translation(j) == checked
                assert q.right_translation(j).cycles() == checked.cycles()
        with pytest.raises(ValueError):
            Permutation((1, 1))

    def test_out_of_range(self, q62):
        with pytest.raises(ElementOutOfRangeError):
            q62.right_translation(7)
        with pytest.raises(ElementOutOfRangeError):
            q62.op(0, 1)
        with pytest.raises(ElementOutOfRangeError):
            q62.op(True, 2)
        with pytest.raises(ElementOutOfRangeError):
            q62.op(2, False)

    def test_range_checks_survive_the_checkers_reads(self, q62):
        from quandles.checks import all_checks, check_left_refinement

        q = Quandle(q62.rows)
        all_checks(q)  # reads every translation without the range check
        for bad in (0, -1, 7, 1.0, "1", True, False):
            with pytest.raises(ElementOutOfRangeError):
                q.right_translation(bad)
            with pytest.raises(ElementOutOfRangeError):
                q.row(bad)
            with pytest.raises(ElementOutOfRangeError):
                q.left_translation(bad)
            with pytest.raises(ElementOutOfRangeError):
                check_left_refinement(q, bad)

    def test_left_translation_maps_match_the_rows(self, enumerated):
        for n in range(1, 6):
            for q in enumerated(n, False):
                verdicts = [len(set(row)) == n for row in q.rows]
                assert q.is_latin == all(verdicts)
                for i, row in enumerate(q.rows, 1):
                    lt = q.left_translation(i)
                    assert (q.row(i), lt is not None) == (row, verdicts[i - 1])
                    assert lt == (Permutation(row) if verdicts[i - 1] else None)

    def test_left_translation_q94(self, q94):
        lt = q94.left_translation(1)
        assert lt is not None
        assert lt == Permutation.from_cycles(9, [(2, 3), (4, 9), (5, 8), (6, 7)])

    def test_left_translation_nonlatin3(self, nonlatin3):
        assert nonlatin3.row(1) == (1, 1, 1)
        assert nonlatin3.left_translation(1) is None

    def test_left_translation_q62_row5(self, q62):
        assert q62.row(5) == (2, 3, 4, 1, 5, 5)
        assert q62.left_translation(5) is None

    def test_every_column_fixes_its_index(self, q62, q94, nonlatin3):
        for q in (q62, q94, nonlatin3):
            for j in range(1, q.n + 1):
                assert j in q.right_translation(j).fixed_points()


class TestLatinAndFixedPoints:
    def test_is_latin(self, q62, q94):
        assert q94.is_latin
        assert not q62.is_latin
        assert Quandle([[1]]).is_latin

    def test_unique_fixed_points(self, q62, q94, nonlatin3):
        assert q94.has_unique_fixed_points
        assert not q62.has_unique_fixed_points  # column 1 fixes both 1 and 3
        assert not nonlatin3.has_unique_fixed_points  # column 2 is the identity


class TestProfile:
    def test_q62_profile_collapses(self, q62):
        p = q62.profile()
        assert len(p.structures) == 6
        assert p.is_uniform
        assert str(p) == "(1^2,4)"

    def test_q94_profile(self, q94):
        p = q94.profile()
        assert p.is_uniform
        assert str(p) == "(1,2,6)"

    def test_nonlatin3_profile_sorted(self, nonlatin3):
        assert [str(cs) for cs in nonlatin3.profile()] == ["(1^3)", "(1^3)", "(1,2)"]

    def test_every_structure_has_a_fixed_point(self, q62, q94, nonlatin3):
        for q in (q62, q94, nonlatin3, dihedral(7), affine(8, 3)):
            for cs in q.column_structures():
                assert cs.fixed_point_count >= 1

    @given(st.data())
    def test_profile_is_isomorphism_invariant(self, data):
        pool = [builtin_example(n) for n in sorted(EXAMPLE_TABLES)]
        pool += [dihedral(5), affine(7, 3)]
        q = data.draw(st.sampled_from(pool))
        sigma = Permutation(data.draw(st.permutations(list(range(1, q.n + 1)))))
        assert q.relabel(sigma).profile() == q.profile()

    def test_profile_equality_is_order_free(self):
        a = Profile.of([builtin_example("Q6_2").column_structures()[0]])
        b = Profile.of([builtin_example("Q6_2").column_structures()[3]])
        assert a == b


class TestElementInvariants:
    def test_equal_a_fresh_tables(self, q94):
        q = Quandle(q94.rows)
        invariants = q.element_invariants()
        assert invariants == Quandle(q94.rows).element_invariants() == q.element_invariants()
        assert q.iso_signature() == tuple(sorted(invariants))


class TestRelabel:
    def test_relabel_identity(self, q62):
        assert q62.relabel(Permutation.identity(6)) == q62

    def test_relabel_is_homomorphic(self, q94):
        sigma = Permutation.from_cycles(9, [(1, 2, 3), (4, 9)])
        relabeled = q94.relabel(sigma)
        for x in range(1, 10):
            for y in range(1, 10):
                assert sigma(q94.op(x, y)) == relabeled.op(sigma(x), sigma(y))
