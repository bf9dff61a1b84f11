import copy
import math
import pickle
from collections import Counter
from itertools import permutations
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import automorphism_count, cycles_of, orbit_closure
from _oracles import cycle_length_division_failures as oracle_division_failures
from _oracles import left_refinement as oracle_left_refinement
from _oracles import relabeled
from quandles import checks
from quandles.checks import (
    DEFAULT_WITNESS_CAP,
    CheckReport,
    all_checks,
    check_conjugation_identity,
    check_cycle_length_division,
    check_cycle_shift,
    check_latin_necessary_conditions,
    check_latin_sufficiency,
    check_left_refinement,
    check_regular_cycle,
    consecutive_cycle_form,
    cycle_length_division_failures,
    has_repeat_free_profile,
    render_report,
    report_record,
    search_nonconnected_refinement,
)
from quandles.constructions import affine, conjugation, dihedral
from quandles.enumeration import EnumerationTask, _class_tables
from quandles.perm import Permutation
from quandles.quandle import Quandle

ORDER_ONE = Quandle([[1]])


class TestConjugationIdentity:
    def test_q62(self, q62):
        report = check_conjugation_identity(q62)
        assert report.consistent and report.failure_count == 0
        assert report.counted_instances == 36

    def test_q94(self, q94):
        report = check_conjugation_identity(q94)
        assert report.consistent and report.counted_instances == 81

    def test_order_one(self):
        report = check_conjugation_identity(ORDER_ONE)
        assert report.consistent and report.counted_instances == 1

    def test_matches_permutation_algebra(self, q62):
        # same identity evaluated through explicit composition and inversion
        for j in range(1, 7):
            for k in range(1, 7):
                rk = q62.right_translation(k)
                rj = q62.right_translation(j)
                assert rk * rj * rk.inverse() == q62.right_translation(q62.op(j, k))


class TestCycleShift:
    def test_wraparound_three_cycle(self):
        # a single 3-cycle on consecutive elements: f^(4-6)(6) = 4
        p = Permutation.from_cycles(6, [(4, 5, 6)])
        f, _ = consecutive_cycle_form(p)
        report = check_cycle_shift(p)
        assert report.consistent
        assert (f ** (4 - 6))(6) == 4

    def test_q94_column_one_relabeled(self, q94):
        report = check_cycle_shift(q94.right_translation(1))
        assert report.consistent
        # the relabeled copy packs cycles into consecutive blocks by length
        assert report.details["relabeling"][0] == 1
        assert report.counted_instances == 1 + 4 + 36

    def test_identity_vacuous(self):
        report = check_cycle_shift(Permutation.identity(3))
        assert report.consistent and report.counted_instances == 3

    def test_consecutive_form_is_consecutive(self, q62):
        f, relabeling = consecutive_cycle_form(q62.right_translation(1))
        assert sorted(relabeling) == list(range(1, 7))
        base = 0
        for cycle in sorted(f.cycles(), key=len):
            assert cycle == tuple(range(base + 1, base + len(cycle) + 1))
            base += len(cycle)


def per_pair_failures(p):
    """(counted, every failing pair (i, j)) with one power built per pair of points."""
    f, _ = consecutive_cycle_form(p)
    counted = 0
    failures = []
    for cycle in f.cycles():
        for i in cycle:
            for j in cycle:
                counted += 1
                if (f ** (j - i))(i) != j:
                    failures.append((i, j))
    return counted, failures


def per_pair_cycle_shift(p):
    """(counted, witnesses, failure count) with one power built per pair of points."""
    counted, failures = per_pair_failures(p)
    return counted, tuple(failures[:DEFAULT_WITNESS_CAP]), len(failures)


def shift_summary(report):
    assert report.consistent == (report.failure_count == 0)
    return report.counted_instances, report.witnesses, report.failure_count


def skewed_power(wrong):
    """A ``__pow__`` one step too far on each cycle c of f^k where ``wrong(c, k)``; right elsewhere."""
    power = Permutation.__pow__

    def skewed(self, k):
        images = list(power(self, k).images)
        for cycle in self.cycles():
            if wrong(cycle, k):
                for a in cycle:
                    images[a - 1] = self.images[images[a - 1] - 1]
        return Permutation(images)

    return skewed


# Cycles of lengths 1, 2, 3 and 7, on the points 1, 2-3, 4-6 and 7-13 once relabeled.
MIXED = Permutation.from_cycles(13, [(13,), (1, 12), (2, 11, 3), (4, 10, 5, 9, 6, 8, 7)])


class TestCycleShiftAgainstPerPairFormula:
    def test_every_labeled_column_up_to_order_5(self, enumerated):
        columns = {
            q.right_translation(j)
            for n in range(1, 6)
            for q in enumerated(n, False)
            for j in range(1, n + 1)
        }
        for p in columns:
            assert shift_summary(check_cycle_shift(p)) == per_pair_cycle_shift(p)

    @given(st.integers(1, 9).flatmap(lambda n: st.permutations(range(1, n + 1))))
    def test_random_permutations(self, images):
        p = Permutation(images)
        assert shift_summary(check_cycle_shift(p)) == per_pair_cycle_shift(p)

    def test_same_witnesses_under_a_wrong_power(self, monkeypatch):
        # with a deliberately wrong power both must report the same failures
        power = Permutation.__pow__
        monkeypatch.setattr(Permutation, "__pow__", lambda self, k: power(self, 2 * k))
        p = Permutation.from_cycles(9, [(1, 2), (3, 4, 5, 6, 7, 8, 9)])
        summary = shift_summary(check_cycle_shift(p))
        assert summary == per_pair_cycle_shift(p)
        assert summary[2] and summary[1]

    @pytest.mark.parametrize("wrong, failing", [
        # one distance only, on every cycle it reaches
        (lambda cycle, k: k == -1, {2, 3, 7}),
        (lambda cycle, k: k == 2, {3, 7}),
        # the long cycle only, at k >= 3: the shorter cycles pass their screens
        (lambda cycle, k: k >= 3 and len(cycle) == 7, {7}),
        # one cycle before others that pass
        (lambda cycle, k: len(cycle) == 2 and k == 1, {2}),
        (lambda cycle, k: len(cycle) == 3, {3}),
    ])
    def test_a_power_wrong_at_some_distances_or_cycles(self, wrong, failing, monkeypatch):
        monkeypatch.setattr(Permutation, "__pow__", skewed_power(wrong))
        f = checks._consecutive_form(MIXED.cycle_structure())
        counted, failures = checks._cycle_shift_failures(f)
        assert (counted, failures) == per_pair_failures(MIXED)
        # each failing pair lies in a cycle the power is wrong on, and pairs keep their (i, j) order
        lengths = {x: len(c) for c in f.cycles() for x in c}
        assert {lengths[i] for i, _ in failures} == failing
        assert failures == sorted(failures)
        assert shift_summary(check_cycle_shift(MIXED)) == per_pair_cycle_shift(MIXED)

    def test_powers_are_built_in_the_order_the_pairs_first_need_them(self, monkeypatch):
        calls = []
        power = Permutation.__pow__
        monkeypatch.setattr(Permutation, "__pow__", lambda self, k: calls.append(k) or power(self, k))
        check_cycle_shift(MIXED)
        f = checks._consecutive_form(MIXED.cycle_structure())
        assert calls == list(dict.fromkeys(j - i for c in f.cycles() for i in c for j in c))

    def test_one_power_per_distance(self, monkeypatch):
        calls = []
        power = Permutation.__pow__
        monkeypatch.setattr(Permutation, "__pow__", lambda self, k: calls.append(k) or power(self, k))
        p = Permutation.from_cycles(47, [tuple(range(2, 48))])
        report = check_cycle_shift(p)
        assert report.consistent and report.counted_instances == 1 + 46 * 46
        assert len(calls) <= 91


def report_fields(report):
    return (report.name, report.hypothesis_holds, report.conclusion_holds, report.counted_instances,
            report.witnesses, report.failure_count, dict(report.details))


class TestSharedWork:
    def test_reports_equal_those_of_fresh_tables_up_to_order_5(self, enumerated):
        # An enumerated table and a fresh one each build their own translations.
        for n in range(1, 6):
            for q in enumerated(n, False):
                ours = [report_fields(r) for r in all_checks(q)]
                assert ours == [report_fields(r) for r in all_checks(Quandle(q.rows))]

    def test_per_structure_verdicts_equal_direct_calls_under_a_wrong_power(self, enumerated, q62, q94, monkeypatch):
        power = Permutation.__pow__
        monkeypatch.setattr(Permutation, "__pow__", lambda self, k: power(self, 2 * k))
        tables = [q for n in range(1, 5) for q in enumerated(n, False)] + [q62, q94]
        for q in tables:
            shifts = [r for r in all_checks(q) if r.name == "cycle-shift"]
            direct = [check_cycle_shift(q.right_translation(j)) for j in range(1, q.n + 1)]
            assert [report_fields(r) for r in shifts] == [report_fields(r) for r in direct]
            if q is q94:
                assert not any(r.consistent for r in shifts)


class TestCycleLengthDivision:
    def test_q62_single_instance(self, q62):
        # under f = R_1: x=2 and z=2*3=5 sit on the 4-cycle, y=3 is fixed
        assert q62.op(2, 3) == 5
        report = check_cycle_length_division(q62)
        assert report.consistent and report.failure_count == 0

    def test_q94_exhaustive(self, q94):
        report = check_cycle_length_division(q94)
        assert report.consistent
        assert report.counted_instances == 729

    def test_order_one(self):
        report = check_cycle_length_division(ORDER_ONE)
        assert report.consistent and report.counted_instances == 1

    def test_agrees_with_direct_lcm(self, q62):
        f = q62.right_translation(1)
        length = {x: len(c) for c in f.cycles() for x in c}
        for x in range(1, 7):
            for y in range(1, 7):
                z = q62.op(x, y)
                assert math.lcm(length[x], length[y]) % length[z] == 0


def translations_of(q):
    return [q.right_translation(k) for k in range(1, q.n + 1)]


def one_unit_per_order(n):
    """One t per multiplicative order of t mod n, i.e. one per cycle type of R_k in Aff(Z_n, t)."""
    units = {}
    for t in range(1, n):
        if math.gcd(t, n) == 1:
            order = next(e for e in range(1, n + 1) if pow(t, e, n) == 1)
            units.setdefault(order, t)
    return sorted(units.values())


def transposition_quandle(k):
    return conjugation([Permutation.from_cycles(k, [(1, 2)]),
                        Permutation.from_cycles(k, [tuple(range(1, k + 1))])],
                       Permutation.from_cycles(k, [(1, 2)]))


def own_orbits(n):
    """An orbit of its own for each column, so a stand-in table's checker tests every column."""
    return tuple(frozenset({k}) for k in range(1, n + 1))


# Arbitrary n x n tables with up to n arbitrary permutations standing in for the R_k.
TABLES_AND_PERMUTATIONS = st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(1, n), min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.permutations(range(1, n + 1)), min_size=0, max_size=n),
))


class TestCycleLengthDivisionKernel:
    """The row screen against a plain triple loop, on quandles and on non-automorphisms."""

    @pytest.fixture
    def no_rescan(self, monkeypatch):
        # On a valid table no row fails, so the screen alone must decide.
        def rescan(*args):
            raise AssertionError(f"row rescanned: {args[:2]}")
        monkeypatch.setattr(checks, "_row_division_failures", rescan)

    def assert_matches_oracle(self, q):
        expected = oracle_division_failures(q.rows, [p.images for p in translations_of(q)])
        assert cycle_length_division_failures(q.rows, translations_of(q)) == expected
        report = check_cycle_length_division(q)
        assert report.witnesses == tuple(expected[:DEFAULT_WITNESS_CAP])
        assert report.failure_count == len(expected)
        assert report.counted_instances == q.n ** 3

    def test_every_labeled_table_up_to_order_6(self, enumerated, no_rescan):
        tables = [q for n in range(1, 7) for q in enumerated(n, False)]
        assert len(tables) == 7105
        for q in tables:
            self.assert_matches_oracle(q)

    def test_affine_odd_orders_up_to_47(self, no_rescan):
        for n in range(1, 48, 2):
            for t in one_unit_per_order(n):
                self.assert_matches_oracle(affine(n, t))

    def test_dihedral(self, no_rescan):
        for n in range(1, 41):
            self.assert_matches_oracle(dihedral(n))

    def test_transposition_quandles_of_s4_to_s10(self, no_rescan):
        for k in range(4, 11):
            q = transposition_quandle(k)
            assert q.n == k * (k - 1) // 2
            self.assert_matches_oracle(q)

    @given(TABLES_AND_PERMUTATIONS)
    def test_arbitrary_tables_and_permutations(self, drawn):
        # Arbitrary permutations stand in for the R_k, so failures occur.
        rows, images = drawn
        perms = [Permutation(p) for p in images]
        expected = oracle_division_failures(rows, images)
        assert cycle_length_division_failures(rows, perms) == expected
        if len(perms) == len(rows):
            stand_in = SimpleNamespace(n=len(rows), rows=rows, _row_bytes=None,
                                       _orbits=own_orbits(len(rows)), _right_translation=lambda k: perms[k - 1])
            report = check_cycle_length_division(stand_in)
            assert report.witnesses == tuple(expected[:DEFAULT_WITNESS_CAP])
            assert report.failure_count == len(expected)
            assert report.conclusion_holds == (not expected)

    def test_many_failures_keep_their_order_under_the_cap(self):
        n = 9
        rows = [[(2 * x + 5 * y) % n + 1 for y in range(n)] for x in range(n)]
        images = [Permutation.from_cycles(n, [(1, 2), (3, 4, 5), (6, 7, 8, 9)]).images,
                  Permutation.from_cycles(n, [(2, 9, 4), (5, 6)]).images] * 4
        images.append(Permutation.identity(n).images)
        expected = oracle_division_failures(rows, images)
        assert len(expected) > DEFAULT_WITNESS_CAP
        perms = [Permutation(p) for p in images]
        assert cycle_length_division_failures(rows, perms) == expected
        stand_in = SimpleNamespace(n=n, rows=rows, _row_bytes=None,
                                   _orbits=own_orbits(n), _right_translation=lambda k: perms[k - 1])
        report = check_cycle_length_division(stand_in)
        assert report.witnesses == tuple(expected[:DEFAULT_WITNESS_CAP])
        assert report.failure_count == len(expected)

    def test_a_failure_at_the_first_column_of_an_orbit_checks_every_column(self):
        # One orbit: the screen reads column 1 only, and its failure sends all n columns to be checked.
        n = 9
        rows = [[(2 * x + 5 * y) % n + 1 for y in range(n)] for x in range(n)]
        images = [Permutation.from_cycles(n, [(1, 2), (3, 4, 5), (6, 7, 8, 9)]).images] * n
        expected = oracle_division_failures(rows, images)
        assert {k for k, _, _ in expected} == set(range(1, n + 1))
        perms = [Permutation(p) for p in images]
        stand_in = SimpleNamespace(n=n, rows=rows, _row_bytes=None,
                                   _orbits=(frozenset(range(1, n + 1)),), _right_translation=lambda k: perms[k - 1])
        report = check_cycle_length_division(stand_in)
        assert report.witnesses == tuple(expected[:DEFAULT_WITNESS_CAP])
        assert report.failure_count == len(expected)

    @given(TABLES_AND_PERMUTATIONS)
    def test_rescans_exactly_the_rows_holding_a_failure(self, drawn):
        rows, images = drawn
        scanned = []
        rescan = checks._row_division_failures

        def record(k, x, row, lengths):
            scanned.append((k, x + 1))
            return rescan(k, x, row, lengths)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(checks, "_row_division_failures", record)
            cycle_length_division_failures(rows, [Permutation(p) for p in images])
        expected = oracle_division_failures(rows, images)
        assert scanned == sorted({(k, x) for k, x, _ in expected})

    @pytest.mark.parametrize("n", [256, 257])
    def test_largest_byte_order_and_the_list_path(self, n, monkeypatch):
        # Order 256 still screens bytes; order 257 takes the plain loop and builds no screen.
        rows = [[(2 * x + 3 * y) % n + 1 for y in range(n)] for x in range(n)]
        cycles = [(1,), (2, 3), tuple(range(4, 8)), tuple(range(8, n + 1))]
        f = Permutation.from_cycles(n, cycles)
        g = Permutation([(x + 1) % n + 1 for x in range(n)])
        expected = oracle_division_failures(rows, [f.images, g.images])
        assert expected
        built = []
        screen = Permutation._division_screen

        def build(p):
            if n > 256:
                raise AssertionError("division screen built above order 256")
            built.append(p)
            return screen(p)

        monkeypatch.setattr(Permutation, "_division_screen", build)
        assert cycle_length_division_failures(rows, [f, g]) == expected
        assert built == ([f, g] if n <= 256 else [])

    @staticmethod
    def _blocks(*lengths):
        # Cycles of the given lengths on consecutive points.
        starts = [sum(lengths[:i]) + 1 for i in range(len(lengths))]
        return Permutation.from_cycles(sum(lengths), [tuple(range(s, s + m)) for s, m in zip(starts, lengths)])

    def test_screen_pairs_each_needed_set_with_the_rows_it_tests(self):
        # Fix(f^m) for m = lcm(l_x, l_y), tested by every such x, except the m the order divides.
        degree_6 = [Permutation(images) for images in permutations(range(1, 7))]
        wider = [self._blocks(*lengths) for lengths in [(2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 4, 5, 6), (3, 4, 6, 1)]]
        for f in degree_6 + wider:
            n = f.n
            length = {x: len(cycle) for cycle in f.cycles() for x in cycle}
            tested = {}
            for x in range(1, n + 1):
                for y in range(1, n + 1):
                    m = math.lcm(length[x], length[y])
                    if m % f.order:
                        tested.setdefault(m, set()).add(x - 1)
            expected = {(frozenset(x - 1 for x in range(1, n + 1) if (f ** m)(x) == x), frozenset(rows))
                        for m, rows in tested.items()}
            screen = f._division_screen()
            assert len(screen) == len(expected)
            assert {(frozenset(fixed), frozenset(rows)) for fixed, rows in screen} == expected

    def test_a_failure_seen_only_at_an_m_that_is_no_cycle_length(self):
        # Under (1 2)(3 4 5)(6 7 8 9), 1*3 = 6 fails at m = 6 and at no cycle length.
        f = self._blocks(2, 3, 4)
        rows = [list(range(1, 10)) for _ in range(9)]
        rows[0][2] = 6
        expected = oracle_division_failures(rows, [f.images])
        assert expected == [(1, 1, 3)]
        assert cycle_length_division_failures(rows, [f]) == expected

    def test_screen_is_cached_on_the_permutation(self, q94):
        p = q94.right_translation(1)
        assert p._division_screen() is p._division_screen()


class TestVerdictsAcrossTables:
    def test_one_cycle_shift_verdict_per_structure(self, enumerated, monkeypatch):
        calls = []
        compute = checks._cycle_shift_failures
        monkeypatch.setattr(checks, "_cycle_shift_failures", lambda f: calls.append(f) or compute(f))
        tables = [q for n in range(1, 6) for q in enumerated(n, False)]
        checked = [[report_fields(r) for r in all_checks(q)] for q in tables]
        assert len(calls) == sum(len(set(q.column_structures())) for q in tables)
        for q, fields in zip(tables, checked):
            assert fields == [report_fields(r) for r in all_checks(Quandle(q.rows))]

    def test_each_all_checks_call_decides_its_own_verdicts(self, monkeypatch):
        # Outside verify no verdict outlives its call: under a wrong power the
        # next call fails, and under the right one again it passes.
        def shifts(q):
            return [r.consistent for r in all_checks(q) if r.name == "cycle-shift"]

        q = dihedral(5)
        power = Permutation.__pow__
        assert all(shifts(q))
        monkeypatch.setattr(Permutation, "__pow__", lambda self, k: power(self, 2 * k))
        assert not any(shifts(q))
        monkeypatch.setattr(Permutation, "__pow__", power)
        assert all(shifts(q))
        assert checks._CYCLE_SHIFT_MEMO.get() is None

    def test_a_block_inside_an_open_one_shares_its_memo(self, monkeypatch):
        calls = []
        compute = checks._cycle_shift_failures
        monkeypatch.setattr(checks, "_cycle_shift_failures", lambda f: calls.append(f) or compute(f))
        with checks._cycle_shift_memo():
            # every column of dihedral(5) and affine(5, 4) is (1,2^2), of affine(5, 2) (1,4)
            for q in (dihedral(5), dihedral(5), affine(5, 4)):
                all_checks(q)
            assert len(calls) == 1
            with checks._cycle_shift_memo():
                all_checks(affine(5, 2))
            assert len(calls) == 2
        all_checks(dihedral(5))
        assert len(calls) == 3

    def test_relabeling_is_cached_and_equals_a_recomputation(self, enumerated):
        for q in enumerated(5, False):
            for p in translations_of(q):
                expected = recomputed_relabeling(p)
                assert p._consecutive_relabeling() == expected
                assert p._consecutive_relabeling() is p._consecutive_relabeling()
                assert consecutive_cycle_form(p)[1] == expected


def recomputed_relabeling(p):
    order = sorted(p.cycles(), key=lambda c: (len(c), c[0]))
    expected = [0] * p.n
    for label, x in enumerate((x for c in order for x in c), 1):
        expected[x - 1] = label
    return tuple(expected)


def transposition_quandle(k):
    swap = Permutation.from_cycles(k, [(1, 2)])
    return conjugation([swap, Permutation.from_cycles(k, [tuple(range(1, k + 1))])], swap)


class TestRelabelingWaitsToBeRead:
    """A cycle-shift report builds its relabeling only when its details are read."""

    @pytest.fixture
    def fresh_tables(self, enumerated):
        # Fresh tables, so no other test has read a relabeling from them.
        return ([affine(47, 5)] + [transposition_quandle(k) for k in range(4, 8)]
                + [Quandle(q.rows) for q in enumerated(5, False)])

    def test_all_checks_walks_no_relabeling_and_no_linked_column(self, fresh_tables):
        unwalked = 0
        for q in fresh_tables:
            shifts = [r for r in all_checks(q) if r.name == "cycle-shift"]
            translations = [q._right_translation(i) for i in range(1, q.n + 1)]
            assert not any(p._relabeling for p in translations)
            # each column has a translation of its own, so no linked one is walked
            linked = [translations[y - 1] for y, _, _ in q._links]
            assert all(p._cycles is None for p in linked)
            unwalked += len(linked)
            for p, report in zip(translations, shifts):
                relabeling = report.details["relabeling"]
                assert relabeling is p._relabeling
                assert relabeling == recomputed_relabeling(p)
                eager = CheckReport(*report_fields(report))
                assert repr(report) == repr(eager) and report_record(report) == report_record(eager)
        assert unwalked > 200  # Aff(Z_47, 5) alone has 46 linked columns, all distinct

    def test_details_keep_the_contract_of_a_dict(self, q94):
        for p in translations_of(Quandle(q94.rows)):
            details = check_cycle_shift(p).details
            expected = {"relabeling": recomputed_relabeling(p)}
            assert details == expected and expected == details and not details != expected
            assert details != {"relabeling": ()} and details != {}
            assert dict(details) == expected and type(dict(details)) is dict
            assert list(details) == ["relabeling"] and len(details) == 1
            assert list(details.items()) == list(expected.items())
            assert "relabeling" in details and "element" not in details
            assert details.get("element") is None
            with pytest.raises(KeyError):
                details["element"]
            assert repr(details) == repr(expected)
            for restored in (pickle.loads(pickle.dumps(details)), copy.copy(details), copy.deepcopy(details)):
                assert restored == expected and type(restored) is dict

    def test_reports_round_trip_through_pickle_and_copy(self, q94):
        for report in all_checks(Quandle(q94.rows)):
            for restored in (pickle.loads(pickle.dumps(report)), copy.copy(report), copy.deepcopy(report)):
                assert repr(restored) == repr(report)
                assert report_fields(restored) == report_fields(report)

    def test_repr_is_the_eager_one(self, q94):
        report = [r for r in all_checks(Quandle(q94.rows)) if r.name == "cycle-shift"][1]
        assert repr(report) == (
            "CheckReport(name='cycle-shift', hypothesis_holds=True, conclusion_holds=True,"
            " counted_instances=41, witnesses=(), failure_count=0,"
            " details={'relabeling': (2, 1, 3, 4, 6, 8, 9, 7, 5)})"
        )
        assert report_record(report)["details"] == {"relabeling": (2, 1, 3, 4, 6, 8, 9, 7, 5)}


class TestLeftRefinement:
    def test_q94(self, q94):
        report = check_left_refinement(q94, 1)
        assert report.hypothesis_holds and report.conclusion_holds

    def test_q94_refinement_is_strict(self, q94):
        left = q94.left_translation(1)
        right = q94.right_translation(1)
        assert len(left.cycles()) == 5
        assert len(right.cycles()) == 3

    def test_nonlatin3(self, nonlatin3):
        report = check_left_refinement(nonlatin3, 1)
        assert not report.hypothesis_holds
        assert not report.conclusion_holds
        assert report.consistent
        assert report.witnesses == ()

    def test_order_one(self):
        report = check_left_refinement(ORDER_ONE, 1)
        assert report.hypothesis_holds and report.conclusion_holds


def left_refinement_fields(q):
    """What every left-refinement report of q says, element by element."""
    return [(r.hypothesis_holds, r.conclusion_holds, r.witnesses, r.failure_count, dict(r.details))
            for r in (check_left_refinement(q, i) for i in range(1, q.n + 1))]


def oracle_left_refinement_fields(rows, rights=None):
    """The same fields from the oracle: witnesses only where the hypothesis holds."""
    fields = []
    for i, (hypothesis, conclusion, failures, is_permutation) in enumerate(
            oracle_left_refinement(rows, rights), 1):
        shown = failures if hypothesis else []
        fields.append((hypothesis, conclusion, tuple(shown[:DEFAULT_WITNESS_CAP]), len(shown),
                       {"element": i, "left_is_permutation": is_permutation}))
    return fields


def transposition_quandle(k):
    swap = Permutation.from_cycles(k, [(1, 2)])
    rotate = Permutation.from_cycles(k, [tuple(range(1, k + 1))])
    return conjugation([swap, rotate], swap)


class TestLeftRefinementAgainstOracle:
    """The byte decision and the cycle walk that names witnesses, against a library-free oracle."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_labeled_table(self, enumerated, n):
        for q in enumerated(n, False):
            assert left_refinement_fields(q) == oracle_left_refinement_fields(q.rows)

    def test_every_order_6_class(self, enumerated):
        classes = enumerated(6, True)
        assert len(classes) == 73
        for q in classes:
            assert left_refinement_fields(q) == oracle_left_refinement_fields(q.rows)

    @pytest.mark.parametrize("n", range(3, 48, 2))
    def test_affine(self, n):
        for t in range(1, n):
            if math.gcd(t, n) == 1:
                q = affine(n, t)
                assert left_refinement_fields(q) == oracle_left_refinement_fields(q.rows)

    @pytest.mark.parametrize("k", range(4, 9))
    def test_transpositions(self, k):
        q = transposition_quandle(k)
        assert q.n == k * (k - 1) // 2
        assert left_refinement_fields(q) == oracle_left_refinement_fields(q.rows)

    def test_a_split_cycle_keeps_its_witnesses(self, monkeypatch):
        # affine(5, 2): L_1 = (1)(2 5)(3 4) and every column fixes one point.
        # R_1 = (1 2)(3 4 5) has distinct lengths and splits the L_1-cycle (2 5).
        q = affine(5, 2)
        fake = Permutation.from_cycles(5, [(1, 2), (3, 4, 5)])
        real = Quandle.right_translation
        monkeypatch.setattr(Quandle, "right_translation",
                            lambda self, i: fake if i == 1 else real(self, i))
        report = check_left_refinement(q, 1)
        assert report.hypothesis_holds and not report.conclusion_holds and not report.consistent
        assert (report.witnesses, report.failure_count) == (((2, 5),), 1)
        assert report.details == {"element": 1, "left_is_permutation": True}
        assert left_refinement_fields(q)[0] == oracle_left_refinement_fields(q.rows, {1: fake.images})[0]

    def test_a_repeating_row_is_never_contained(self, nonlatin3, monkeypatch):
        # L_2 = [3, 2, 2] keeps every point in the one cycle of R_2 = (1 2 3),
        # yet it is not a permutation, so the conclusion fails.
        fake = Permutation.from_cycles(3, [(1, 2, 3)])
        real = Quandle.right_translation
        monkeypatch.setattr(Quandle, "right_translation",
                            lambda self, i: fake if i == 2 else real(self, i))
        report = check_left_refinement(nonlatin3, 2)
        assert not report.conclusion_holds
        assert report.details == {"element": 2, "left_is_permutation": False}
        assert left_refinement_fields(nonlatin3)[1] == \
            oracle_left_refinement_fields(nonlatin3.rows, {2: fake.images})[1]
        # With R_2's structure faked too and unique fixed points assumed, the
        # hypothesis holds, so the row is walked through the fake R_2 and
        # shows its first repeat.
        structures = Quandle.column_structures
        monkeypatch.setattr(Quandle, "column_structures",
                            lambda self: (structures(self)[0], fake.cycle_structure(), *structures(self)[2:]))
        monkeypatch.setattr(Quandle, "has_unique_fixed_points", property(lambda self: True))
        walked = []
        failures = checks._left_refinement_failures
        monkeypatch.setattr(checks, "_left_refinement_failures",
                            lambda row, right, i, bijective: walked.append(right) or failures(row, right, i, bijective))
        report = check_left_refinement(Quandle(nonlatin3.rows), 2)
        assert walked == [fake]
        assert report.hypothesis_holds and not report.conclusion_holds and not report.consistent
        assert (report.witnesses, report.failure_count) == (((2, 2),), 1)
        assert report.details == {"element": 2, "left_is_permutation": False}


class TestLatinSufficiency:
    def test_q94(self, q94):
        report = check_latin_sufficiency(q94)
        assert report.hypothesis_holds and report.conclusion_holds

    def test_q62(self, q62):
        report = check_latin_sufficiency(q62)
        assert not report.hypothesis_holds and not report.conclusion_holds
        assert report.consistent

    def test_dihedral5_shows_condition_not_necessary(self):
        report = check_latin_sufficiency(dihedral(5))
        assert not report.hypothesis_holds
        assert report.conclusion_holds
        assert report.consistent

    def test_repeat_free_profile(self, q62, q94, nonlatin3):
        assert has_repeat_free_profile(q94)
        assert not has_repeat_free_profile(q62)
        assert not has_repeat_free_profile(nonlatin3)


class TestLatinNecessaryConditions:
    def test_q94(self, q94):
        report = check_latin_necessary_conditions(q94)
        assert report.hypothesis_holds
        assert report.details == {"unique_fixed_point": True, "connected": True}
        assert report.consistent

    def test_q62_vacuous(self, q62):
        report = check_latin_necessary_conditions(q62)
        assert not report.hypothesis_holds
        assert report.consistent and report.witnesses == ()

    def test_dihedral3(self):
        report = check_latin_necessary_conditions(dihedral(3))
        assert report.hypothesis_holds and report.conclusion_holds


class TestRegularCycle:
    def test_q62(self, q62):
        report = check_regular_cycle(q62)
        assert report.consistent
        assert report.details["column_orders"] == (4,) * 6
        assert report.details["column_longest"] == (4,) * 6

    def test_q94(self, q94):
        report = check_regular_cycle(q94)
        assert report.consistent
        assert set(report.details["column_orders"]) == {6}

    def test_order_one(self):
        assert check_regular_cycle(ORDER_ONE).consistent


class TestSearchNonconnectedRefinement:
    def test_fixtures_yield_nothing(self, q62, nonlatin3):
        assert search_nonconnected_refinement([q62]) == []
        assert search_nonconnected_refinement([nonlatin3]) == []

    def test_small_orders_yield_nothing(self, enumerated):
        stream = [q for n in range(1, 6) for q in enumerated(n, True)]
        assert search_nonconnected_refinement(stream) == []


class TestReportInvariants:
    def test_witnesses_present_iff_failures_counted(self, q62, q94, nonlatin3):
        from quandles.checks import all_checks

        for q in (q62, q94, nonlatin3, dihedral(4), dihedral(5)):
            for report in all_checks(q):
                assert (len(report.witnesses) > 0) == (report.failure_count > 0)
                assert len(report.witnesses) <= report.failure_count or report.failure_count == 0
                assert report.consistent == ((not report.hypothesis_holds) or report.conclusion_holds)

    def test_non_regular_column_is_witnessed(self):
        # disconnected: columns 1..5 are the identity, column 6 has cycles
        # (1 2)(3 4 5)(6), whose order 6 exceeds its longest cycle
        q = Quandle([
            (1, 1, 1, 1, 1, 2),
            (2, 2, 2, 2, 2, 1),
            (3, 3, 3, 3, 3, 4),
            (4, 4, 4, 4, 4, 5),
            (5, 5, 5, 5, 5, 3),
            (6, 6, 6, 6, 6, 6),
        ])
        report = check_regular_cycle(q)
        assert not report.details["connected"]
        assert report.witnesses == ((6,),)
        assert report.failure_count == 1
        assert report.consistent  # hypothesis (connected) is false

    def test_regular_cycle_consistent_exhaustively(self, enumerated):
        # conjecture evidence: every connected quandle of order <= 6 has
        # only regular right translations
        for n in range(1, 7):
            for q in enumerated(n, False):
                assert check_regular_cycle(q).consistent


class TestRelabelingInvariance:
    """``verify`` checks one table per class and counts it n!/|Aut(Q)| times.

    That is sound only if every relabeling of a table gets the same
    verdicts and the same refinement screen as the table itself.
    """

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_relabeling_gets_the_verdicts_of_its_class(self, n, enumerated):
        def verdicts(q):
            return Counter(
                (r.name, r.hypothesis_holds, r.conclusion_holds, r.consistent, r.failure_count)
                for r in all_checks(q)
            )

        for rep in enumerated(n, True):
            expected = (verdicts(rep), len(search_nonconnected_refinement((rep,))))
            for sigma in permutations(range(1, n + 1)):
                q = Quandle(relabeled(rep.rows, sigma))
                assert (verdicts(q), len(search_nonconnected_refinement((q,)))) == expected


def hypothesis_tallies(n):
    """Per checker, (classes, labeled tables) of order n on which some report of it holds its hypothesis."""
    tallies = {}
    for q, labelings in _class_tables(EnumerationTask(n, up_to_iso=True)):
        reports = all_checks(q)
        for name in dict.fromkeys(r.name for r in reports):
            classes, tables = tallies.get(name, (0, 0))
            if any(r.hypothesis_holds for r in reports if r.name == name):
                classes, tables = classes + 1, tables + labelings
            tallies[name] = (classes, tables)
    return tallies


class TestHypothesisTallies:
    """How many classes, and labeled tables, each statement is actually tested on.

    A checker whose hypothesis never holds cannot fail, and ``verify``
    prints the same lines whether it holds or not; these counts show it.
    """

    # order -> (classes, labeled tables); latin sufficiency and left
    # refinement hold their hypotheses on the same classes, connected
    # (regular cycle) is A181771, and no latin quandle has order 6.
    LATIN_SUFFICIENCY = {3: (1, 1), 4: (1, 2), 5: (2, 12), 6: (0, 0), 7: (2, 240)}
    LATIN = {3: (1, 1), 4: (1, 2), 5: (3, 18), 6: (0, 0), 7: (5, 600)}
    CONNECTED = {3: (1, 1), 4: (1, 2), 5: (3, 18), 6: (2, 60), 7: (5, 600)}
    CLASSES = {3: (3, 5), 4: (7, 36), 5: (22, 404), 6: (73, 6658), 7: (298, 152900)}

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_each_order_pins_its_tallies(self, n):
        assert hypothesis_tallies(n) == {
            "conjugation-identity": self.CLASSES[n],
            "cycle-length-division": self.CLASSES[n],
            "latin-sufficiency": self.LATIN_SUFFICIENCY[n],
            "latin-necessary-conditions": self.LATIN[n],
            "regular-cycle": self.CONNECTED[n],
            "left-refinement": self.LATIN_SUFFICIENCY[n],
            "cycle-shift": self.CLASSES[n],
        }

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_the_tallies_agree_with_the_oracles(self, n):
        found = {"latin-sufficiency": [0, 0], "latin-necessary-conditions": [0, 0], "regular-cycle": [0, 0]}
        for q, labelings in _class_tables(EnumerationTask(n, up_to_iso=True)):
            rows = q.rows
            columns = [[row[j] for row in rows] for j in range(n)]
            holds = {
                "latin-sufficiency": all(
                    len({len(c) for c in cycles_of(col)}) == len(cycles_of(col)) for col in columns),
                "latin-necessary-conditions": all(sorted(row) == list(range(1, n + 1)) for row in rows),
                "regular-cycle": len(orbit_closure(rows)) == 1,
            }
            for name, held in holds.items():
                if held:
                    assert labelings == math.factorial(n) // automorphism_count(rows)
                    found[name][0] += 1
                    found[name][1] += labelings
        tallies = hypothesis_tallies(n)
        assert {name: tuple(v) for name, v in found.items()} == {name: tallies[name] for name in found}


class TestReportRendering:
    def test_pass_line(self, q62):
        line = render_report(check_conjugation_identity(q62))
        assert line.startswith("conjugation-identity: pass")
        assert "instances=36" in line

    def test_record_roundtrips_to_json(self, q94):
        import json

        record = report_record(check_regular_cycle(q94))
        parsed = json.loads(json.dumps(record))
        assert parsed["name"] == "regular-cycle"
        assert parsed["consistent"] is True
