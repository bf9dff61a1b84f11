import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quandles.catalog import (
    CatalogEntry,
    IllegalOmissionError,
    MissingCatalogNameError,
    TableParseError,
    appendix_tables,
    catalog_index,
    catalog_stats,
    load_catalog,
    parse_structure,
    parse_table,
    render_structure,
    serialize_table,
)
from quandles.checks import has_repeat_free_profile
from quandles.constructions import affine, dihedral
from quandles.orbits import is_connected
from quandles.perm import CycleStructure
from quandles.quandle import ColumnNotPermutationError, Quandle

PLAIN_Q62 = """\
# connected, not latin, order 6
6
1 5 1 6 4 2
6 2 5 2 1 3
3 6 3 5 2 4
5 4 6 4 3 1
2 3 4 1 5 5
4 1 2 3 6 6
"""


def per_token_parse(text):
    """Plain rows read by a regex scan of each token: the reference for errors and values."""
    lines = [(i, line.split("#", 1)[0]) for i, line in enumerate(text.splitlines(), 1)]
    (_, header), *body = [(i, line) for i, line in lines if line.strip()]
    n = int(header)
    if len(body) != n:
        raise TableParseError(1, 1, f"expected {n} table rows, found {len(body)}")
    rows = []
    for lineno, line in body:
        row = []
        for match in re.finditer(r"\S+", line):
            try:
                row.append(int(match.group(0)))
            except ValueError:
                raise TableParseError(lineno, match.start() + 1, f"not an integer: {match.group(0)!r}") from None
        if len(row) != n:
            raise TableParseError(lineno, 1, f"expected {n} entries, found {len(row)}")
        rows.append(row)
    return Quandle(rows)


def outcome(parse):
    """The parsed rows, or the error's class, message and attributes (its witness or position)."""
    try:
        return parse().rows
    except ValueError as e:
        return type(e).__name__, str(e), vars(e)


class TestParseTable:
    def test_plain_q62(self, q62):
        assert parse_table(PLAIN_Q62, "plain") == q62

    def test_gap_matrix_dihedral3(self):
        assert parse_table("[[1,3,2],[3,2,1],[2,1,3]]", "gap_matrix") == dihedral(3)

    def test_gap_matrix_with_whitespace(self):
        text = "[ [ 1, 3, 2 ],\n  [ 3, 2, 1 ],\n  [ 2, 1, 3 ] ]"
        assert parse_table(text, "gap_matrix") == dihedral(3)

    def test_auto_sniffs_format(self, q62):
        assert parse_table(PLAIN_Q62) == q62
        assert parse_table("[[1]]") == Quandle([[1]])

    def test_invalid_table_propagates_validation_error(self):
        with pytest.raises(ColumnNotPermutationError):
            parse_table("[[1,2],[1,2]]")

    def test_syntax_error_carries_position(self):
        with pytest.raises(TableParseError) as err:
            parse_table("2\n1 x\n2 2\n", "plain")
        assert (err.value.line, err.value.column) == (2, 3)

    def test_first_bad_token_of_the_row_is_reported(self):
        with pytest.raises(TableParseError) as err:
            parse_table("3\n1 2 3\n\t2  y z\n3 1 2\n", "plain")
        assert (err.value.line, err.value.column) == (3, 5)
        assert str(err.value) == "line 3, column 5: not an integer: 'y'"

    # Tokens the byte lookup holds ("0" .. "255", some out of range for the
    # table) and tokens it misses, valid ints among them ("07", "+2", "256", "\u0663").
    @given(st.lists(st.lists(st.tuples(st.sampled_from([" ", "\t", "  ", "\u00a0", "\u3000"]),
                                       st.sampled_from(["1", "2", "3", "0", "4", "255", "07", "256", "x",
                                                        "1.5", "+2", "-1", "1_0", "\u0663"])),
                             min_size=1, max_size=4), min_size=1, max_size=4))
    def test_rows_parse_like_a_per_token_scan(self, lines):
        text = "3\n" + "\n".join("".join(sep + tok for sep, tok in line) for line in lines) + "\n"
        assert outcome(lambda: parse_table(text, "plain")) == outcome(lambda: per_token_parse(text))

    @pytest.mark.parametrize("rows", [
        ["1 3 2", "3 2 1", "2 1 3"], ["1 3 2", "3 2 1", "02 1 3"], ["1 3 2", "3 +2 1", "2 1 3"],
        ["1 3 2", "3 2 \u0661", "2 1 3"], ["1 3 2", "3 2 1", "2 1 3 3"], ["1 3 2", "3 2", "2 1 3"],
        ["1 3 2", "3 2 1", "2 1 0"], ["1 2 3", "3 2 1", "2 1 3"], ["1 3 2", "3 2 1", "2 255 3"],
        ["1 3 2", "3 2 1", "2 256 3"], ["1 3 2", "3 2 1 2", "1 3"],
    ])
    def test_lookup_and_int_paths_agree(self, rows):
        text = "3\n" + "\n".join(rows) + "\n"
        assert outcome(lambda: parse_table(text, "plain")) == outcome(lambda: per_token_parse(text))

    def test_large_orders_take_the_int_path(self):
        for n in (255, 256):
            q = dihedral(n)
            assert parse_table(serialize_table(q, "plain"), "plain") == q

    def test_which_texts_take_the_entry_bytes(self, monkeypatch):
        calls = []
        of_entries = Quandle._of_entries.__func__
        monkeypatch.setattr(Quandle, "_of_entries",
                            classmethod(lambda cls, entries, n: calls.append(n) or of_entries(cls, entries, n)))
        for text in ("3\n1 3 2\n3 2 1\n2 1 3\n", "[[1,3,2],[3,2,1],[2,1,3]]", serialize_table(dihedral(255), "plain")):
            parse_table(text)
        assert calls == [3, 3, 255]
        for text in ("3\n1 3 2\n3 2 1\n2 1 03\n", "[[1,3,2],[3,2,1],[2,1,256]]", "[[1,3,2],[3,2,1],[2,1]]",
                     serialize_table(dihedral(256), "plain"), serialize_table(dihedral(256), "gap_matrix")):
            outcome(lambda: parse_table(text))
        assert calls == [3, 3, 255]

    @pytest.mark.parametrize("entry, shown", [
        ("true", "True"), ("false", "False"), ("2.0", "2.0"), ("1e0", "1.0"),
        ('"2"', "'2'"), ("null", "None"), ("[2]", "[2]"),
    ])
    def test_gap_matrix_non_integer_entry(self, entry, shown):
        # a short last row too: the entries are checked before any shape
        text = f"# order 3\n[[1,3,2],\n [3,{entry},1],\n [2,1]]\n"
        with pytest.raises(TableParseError) as err:
            parse_table(text, "gap_matrix")
        assert (err.value.line, err.value.column) == (1, 1)
        assert str(err.value) == f"line 1, column 1: non-integer entry: {shown}"

    @pytest.mark.parametrize("rows", [
        [[1, 3, 2], [3, 2, 1], [2, -1, 3]], [[1, 3, 2], [3, 2, 1], [2, 0, 3]],
        [[1, 3, 2], [3, 2, 1], [2, 4, 3]], [[1, 3, 2], [3, 256, 1], [2, 1, 3]],
        [[300, 3, 2], [3, 2, 1], [2, 1, 3]], [[1, 3, 2], [3, 2], [2, 1, 3]],
        [[1, 3, 2], [3, 2, 1, 0], [2, 1, 3]], [[1, 3, 2], [3, 2, 1]], [[1, 2, 3], [3, 2, 1], [2, 1, 3]],
    ])
    def test_gap_matrix_errors_equal_the_int_path(self, rows):
        text = "[" + ",".join("[" + ",".join(map(str, row)) + "]" for row in rows) + "]"
        assert outcome(lambda: parse_table(text, "gap_matrix")) == outcome(lambda: Quandle(rows))
        assert isinstance(outcome(lambda: Quandle(rows)), tuple)

    def test_gap_matrix_first_non_integer_entry_is_named(self):
        with pytest.raises(TableParseError, match=r"^line 1, column 1: non-integer entry: 'x'$"):
            parse_table('[[1,2,"x"],[2,null,1],[3,1,2.5]]', "gap_matrix")

    @pytest.mark.parametrize("token", ["x", "1.0", "2e0", "--1", "1,"])
    def test_plain_bad_token(self, token):
        text = f"# order 3\n3\n1 3 2\n3 2 1\n2  {token} 3\n"
        with pytest.raises(TableParseError) as err:
            parse_table(text, "plain")
        assert (err.value.line, err.value.column) == (5, 4)
        assert str(err.value) == f"line 5, column 4: not an integer: {token!r}"

    @pytest.mark.parametrize("header, message", [
        ("-1", "expected a positive order, got -1"),
        ("--1", "expected the order on its own line, got '--1'"),
    ])
    def test_plain_header_that_is_no_order(self, header, message):
        with pytest.raises(TableParseError, match=f"^line 2, column 1: {message}$"):
            parse_table(f"# order\n{header}\n", "plain")

    def test_wrong_row_count(self):
        with pytest.raises(TableParseError):
            parse_table("3\n1 2 3\n", "plain")

    def test_gap_syntax_error(self):
        with pytest.raises(TableParseError):
            parse_table("[[1,3,2],[3,2,1],", "gap_matrix")

    @pytest.mark.parametrize("fmt", ["plain", "gap_matrix"])
    def test_round_trip(self, fmt, q62, q94, nonlatin3):
        for q in (q62, q94, nonlatin3, dihedral(5), affine(8, 3)):
            text = serialize_table(q, fmt)
            assert parse_table(text, fmt) == q
            assert serialize_table(parse_table(text, fmt), fmt) == text


class TestProfileNotation:
    def test_render_plain(self):
        assert render_structure(CycleStructure(((1, 2), (4, 1)))) == "(1^2,4)"

    def test_render_with_omission(self):
        assert render_structure(CycleStructure(((1, 1), (2, 1), (6, 1))), True) == "(2,6)"
        assert render_structure(CycleStructure(((1, 1),)), True) == "()"

    def test_illegal_omission(self):
        with pytest.raises(IllegalOmissionError):
            render_structure(CycleStructure(((1, 2), (4, 1))), True)
        with pytest.raises(IllegalOmissionError):
            render_structure(CycleStructure(((2, 2),)), True)

    def test_parse(self):
        assert parse_structure("(1^2,4)") == CycleStructure(((1, 2), (4, 1)))
        assert parse_structure("(1,2,6)") == CycleStructure(((1, 1), (2, 1), (6, 1)))
        assert parse_structure("()") == CycleStructure(())

    def test_parse_rejects_garbage(self):
        for text in ("1^2,4", "(4,1^2)", "(x)", "(1^)"):
            with pytest.raises(ValueError):
                parse_structure(text)

    @given(st.lists(st.tuples(st.integers(1, 30), st.integers(1, 9)), max_size=6))
    def test_round_trip(self, pairs):
        lengths = sorted({l for l, _ in pairs})
        entries = tuple((l, dict(pairs)[l]) for l in lengths)
        cs = CycleStructure(entries)
        assert parse_structure(render_structure(cs)) == cs

    def test_round_trip_from_quandles(self, q62, q94):
        for q in (q62, q94):
            for cs in q.column_structures():
                assert parse_structure(str(cs)) == cs

    @pytest.mark.parametrize("text", ["()", "(2)", "(2^2)", "(1^2,4)", "(1,2,6)", "(2,3,6)", "(2^3,3,6^3)"])
    def test_render_after_parse_is_identity(self, text):
        assert render_structure(parse_structure(text)) == text


class TestCatalogEntries:
    def test_cached_flags_match_recomputation(self, q62, q94, nonlatin3):
        for q in (q62, q94, nonlatin3, dihedral(4)):
            e = CatalogEntry.from_quandle("x", q)
            assert e.connected == is_connected(q)
            assert e.latin == q.is_latin
            assert e.distinct_lengths == has_repeat_free_profile(q)
            assert e.unique_fixed_point == q.has_unique_fixed_points
            assert e.profile == q.profile()

    def test_catalog_index(self):
        assert catalog_index("Q_6_2") == (6, 2)
        assert catalog_index("Q_{6,2}") == (6, 2)
        assert catalog_index("my_table") is None


class TestStats:
    def test_empty(self):
        stats = catalog_stats([])
        assert stats.total == stats.connected == stats.latin == 0

    def test_two_fixtures(self, q62, q94):
        entries = [
            CatalogEntry.from_quandle("Q_6_2", q62),
            CatalogEntry.from_quandle("Q_9_4", q94),
        ]
        stats = catalog_stats(entries)
        assert stats.total == 2
        assert stats.connected == 2
        assert stats.latin == 1
        assert stats.latin_distinct_lengths == 1
        assert stats.latin_with_repeats == 0
        assert stats.nonlatin_unique_fixed_point == 0

    def test_order_independent(self, q62, q94, nonlatin3):
        entries = [
            CatalogEntry.from_quandle("a", q62),
            CatalogEntry.from_quandle("b", q94),
            CatalogEntry.from_quandle("c", nonlatin3),
        ]
        assert catalog_stats(entries) == catalog_stats(list(reversed(entries)))


class TestAppendixTables:
    def test_q94_row(self, q94):
        rows5, rows6 = appendix_tables([CatalogEntry.from_quandle("Q_9_4", q94)])
        assert rows5 == ((9, (4,), "(2,6)"),)
        assert rows6 == ()

    def test_grouping_by_profile(self, q94):
        entries = [
            CatalogEntry.from_quandle("Q_9_4", q94),
            CatalogEntry.from_quandle("Q_9_5", q94),
            CatalogEntry.from_quandle("Q_5_2", affine(5, 2)),
        ]
        rows5, _ = appendix_tables(entries)
        assert rows5 == ((5, (2,), "(4)"), (9, (4, 5), "(2,6)"))

    def test_repeat_profiles_table(self):
        entries = [CatalogEntry.from_quandle("Q_5_1", dihedral(5))]
        rows5, rows6 = appendix_tables(entries)
        assert rows5 == ()
        assert rows6 == ((5, ("(2^2)",)),)

    def test_free_form_names_are_excluded(self, q94):
        rows5, _ = appendix_tables([CatalogEntry.from_quandle("mine", q94)])
        assert rows5 == ()

    def test_empty_name_raises(self, q94):
        with pytest.raises(MissingCatalogNameError):
            appendix_tables([CatalogEntry.from_quandle("", q94)])


class TestSmallOrderSurveyAgreesWithEnumeration:
    def test_survey_rows_match_published_small_orders(self, enumerated):
        # Synthesizing a catalog from the enumerator's connected classes at
        # orders <= 6 must reproduce the published survey rows for those
        # orders: repeat-free profiles (), (2), (3), (4) x2 and the single
        # repeat-containing latin profile (2^2) at order 5. Catalog indices
        # here are our own enumeration order, so only counts are compared.
        entries = []
        for n in range(1, 7):
            connected = [q for q in enumerated(n, True) if is_connected(q)]
            for m, q in enumerate(connected, 1):
                entries.append(CatalogEntry.from_quandle(f"Q_{n}_{m}", q))
        rows5, rows6 = appendix_tables(entries)
        assert [(r.n, r.profile, len(r.m_indices)) for r in rows5] == [
            (1, "()", 1), (3, "(2)", 1), (4, "(3)", 1), (5, "(4)", 2),
        ]
        assert [(r.n, r.profiles) for r in rows6] == [(5, ("(2^2)",))]

    def test_connected_class_counts_match_catalog(self, enumerated):
        counts = [
            sum(1 for q in enumerated(n, True) if is_connected(q))
            for n in range(1, 7)
        ]
        assert counts == [1, 0, 1, 1, 3, 2]


class TestLoadCatalog:
    def test_load_directory(self, tmp_path, q62, q94):
        (tmp_path / "Q_6_2.qdl").write_text(serialize_table(q62, "plain"))
        (tmp_path / "Q_9_4.qdl").write_text(serialize_table(q94, "plain"))
        (tmp_path / "notes.txt").write_text("ignored")
        entries = load_catalog(tmp_path)
        assert [e.name for e in entries] == ["Q_6_2", "Q_9_4"]
        assert entries[0].quandle == q62

    def test_missing_directory_or_a_file_is_an_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_catalog(tmp_path / "missing")
        (tmp_path / "Q_3_1.qdl").write_text("[[1,3,2],[3,2,1],[2,1,3]]")
        with pytest.raises(NotADirectoryError):
            load_catalog(tmp_path / "Q_3_1.qdl")

    def test_gap_matrix_files_load_too(self, tmp_path):
        (tmp_path / "Q_3_1.qdl").write_text("[[1,3,2],[3,2,1],[2,1,3]]")
        entries = load_catalog(tmp_path)
        assert entries[0].quandle == dihedral(3)
