import concurrent.futures
import hashlib
import math
import random
import time
from itertools import permutations

import pytest

from quandles import enumeration
from quandles.catalog import parse_table, serialize_table
from quandles.cli import main
from quandles.constructions import affine, dihedral
from quandles.enumeration import (
    ISO_ORDER_GUARD,
    LABELED_ORDER_GUARD,
    PREDICATES,
    EnumerationTask,
    OrderTooLargeError,
    _class_tables,
    _column1_representatives,
    _column_major_ties,
    _iso_reduce,
    _labeled_tables,
    _least_labelings,
    _least_relabeling,
    _pipeline,
    _raw_tables,
    are_isomorphic,
    canonical_form,
    enumerate_parallel,
    enumerate_quandles,
    falsify,
)
from quandles.orbits import is_connected
from quandles.perm import Permutation
from quandles.quandle import Quandle

from _oracles import (
    automorphism_count,
    canonical_labeling,
    column_major_least_labeling,
    column_search_quandles,
    generated_group,
    meets_orderly_rule,
    naive_all_quandles,
    naive_isomorphic,
    relabeled,
)

# Raw (labeled) and isomorphism-class counts, frozen after cross-checking the
# propagation search against the plain generate-and-test column search at
# every order up to 6 (and against the 3^9 filter at order 3).
RAW_COUNTS = {1: 1, 2: 1, 3: 5, 4: 36, 5: 404, 6: 6658}
ISO_COUNTS = {1: 1, 2: 1, 3: 3, 4: 7, 5: 22, 6: 73}
# Partitions of n-1 (OEIS A000041): cycle types of R_1 on {2..n}.
PARTITION_COUNTS = {1: 1, 2: 1, 3: 2, 4: 3, 5: 5, 6: 7, 7: 11, 8: 15}
# sha256 of the standard output of `quandles enumerate 6 [--iso] --tables`,
# recorded before column 1 was restricted to cycle-type representatives.
ORDER6_TABLES_SHA256 = {
    True: "aae41c3de12ed7569fb3ab6ec43a3b0e84f6516f80546c129b0ba909dd86ad20",
    False: "2ce27af4b1b20e23566acbc33359641a6882baec45a685bea17c0608ef83dd61",
}
# Tables the orderly --iso search visits; RAW_COUNTS are the labeled ones.
ORDERLY_COUNTS = {1: 1, 2: 1, 3: 3, 4: 7, 5: 26, 6: 113}
# sha256 of repr([q.rows ...]) for EnumerationTask(7, up_to_iso=True), recorded
# with the first-column restriction alone, before the orderly search.
ORDER7_ISO_SHA256 = "0353b08b7bd450ccf096340e0c11467491d0a6e4addcbc09b794c138e38a9c4e"


def _cycle_type(p: bytes):
    return Permutation([v + 1 for v in p]).cycle_structure()


def column_major(rows):
    return tuple(zip(*rows))


def relabeled_off_the_prefix(n, seed=31):
    """Each class of order n, as its least labeling relabeled by one seeded random sigma.

    The least labelings put their forced blocks first: the identity
    columns in the identity unit, the constant rows in a canonical form.
    A random sigma moves them elsewhere.
    """
    rng = random.Random(seed)
    return [relabeled(q.rows, rng.sample(range(1, n + 1), n))
            for q, _ in _class_tables(EnumerationTask(n, up_to_iso=True))]


def labeled_stream(n, enumerated):
    """The labeled tables of order n in column-major lex order.

    Up to order 5 they are the generate-and-test oracle's tables, sorted;
    at order 6 the enumerated stream, whose printed tables must hash to
    the pinned sha256.
    """
    if n <= 5:
        return sorted(column_search_quandles(n), key=column_major)
    tables = enumerated(n, False)
    printed = "".join(serialize_table(q, "plain") + "\n" for q in tables)
    assert hashlib.sha256(printed.encode()).hexdigest() == ORDER6_TABLES_SHA256[False]
    return [q.rows for q in tables]


class TestRawEnumeration:
    def test_order3_equals_naive_filter(self, enumerated):
        assert {q.rows for q in enumerated(3, False)} == naive_all_quandles(3)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_column_search(self, n, enumerated):
        assert {q.rows for q in enumerated(n, False)} == column_search_quandles(n)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("predicate", [None, *sorted(PREDICATES)])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_stream_is_the_sorted_column_search(self, n, predicate, jobs, enumerated):
        # The labeled tables are the relabelings of the orderly classes; in
        # column-major lex order they are what a search without pruning finds.
        keep = PREDICATES[predicate] if predicate else (lambda q: True)
        expected = [t for t in labeled_stream(n, enumerated) if keep(Quandle(t))]
        task = EnumerationTask(n, predicate_filter=predicate)
        assert [q.rows for q in enumerate_parallel(task, jobs)] == expected

    @pytest.mark.parametrize("n", sorted(RAW_COUNTS))
    def test_raw_counts(self, n, enumerated):
        assert len(enumerated(n, False)) == RAW_COUNTS[n]

    def test_emitted_tables_are_valid_and_unique(self, enumerated):
        tables = enumerated(4, False)
        assert len({q.rows for q in tables}) == len(tables)
        for q in tables:
            Quandle(q.rows)

    def test_deterministic_order(self):
        first = [q.rows for q in enumerate_quandles(EnumerationTask(4))]
        second = [q.rows for q in enumerate_quandles(EnumerationTask(4))]
        assert first == second

    def test_guard(self):
        with pytest.raises(OrderTooLargeError):
            list(enumerate_quandles(EnumerationTask(9)))
        # and a raised guard accepts the order
        EnumerationTask(9, order_guard=9)

    @pytest.mark.parametrize("kwargs, field", [
        ({"order": 2.5}, "order"), ({"order": True}, "order"), ({"order": None}, "order"),
        ({"order": 3, "order_guard": 2.5}, "order_guard"), ({"order": 3, "order_guard": True}, "order_guard"),
    ], ids=["float-order", "bool-order", "no-order", "float-guard", "bool-guard"])
    def test_a_non_int_order_or_guard_is_refused_when_made(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must be an int"):
            EnumerationTask(**kwargs)

    def test_default_guards_refuse_before_any_search(self):
        # the orderly search has its own guard, for any number of jobs
        EnumerationTask(8, up_to_iso=True)
        EnumerationTask(LABELED_ORDER_GUARD)
        for task in (
            lambda: EnumerationTask(LABELED_ORDER_GUARD + 1),
            lambda: EnumerationTask(ISO_ORDER_GUARD + 1, up_to_iso=True),
            lambda: enumerate_parallel(EnumerationTask(ISO_ORDER_GUARD + 1, up_to_iso=True), 2),
        ):
            start = time.perf_counter()
            with pytest.raises(OrderTooLargeError):
                task()
            assert time.perf_counter() - start < 1


class TestIsoReduction:
    @pytest.mark.parametrize("n", sorted(ISO_COUNTS))
    def test_iso_counts(self, n, enumerated):
        assert len(enumerated(n, True)) == ISO_COUNTS[n]

    def test_reps_are_canonical_and_pairwise_noniso(self, enumerated):
        reps = enumerated(4, True)
        for q in reps:
            assert canonical_form(q)[0].rows == q.rows
        for i, a in enumerate(reps):
            for b in reps[i + 1:]:
                assert are_isomorphic(a, b) is None
                assert naive_isomorphic(a.rows, b.rows) is None

    def test_every_raw_table_has_a_rep(self, enumerated):
        reps = enumerated(4, True)
        for q in enumerated(4, False):
            assert any(are_isomorphic(q, rep) is not None for rep in reps)


class TestColumn1Representatives:
    @pytest.mark.parametrize("n", sorted(PARTITION_COUNTS))
    def test_one_per_cycle_type(self, n):
        reps = _column1_representatives(n)
        assert len(reps) == PARTITION_COUNTS[n]
        assert all(sorted(p) == list(range(n)) and p[0] == 0 for p in reps)
        assert len({_cycle_type(p) for p in reps}) == len(reps)
        assert reps == sorted(reps)
        # Sorted by ascending cycle lengths too, the order the search cuts by.
        assert reps == sorted(reps, key=_cycle_type)
        assert [enumeration._cycle_type(p) for p in reps] == [_cycle_type(p).lengths() for p in reps]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_lex_least_of_its_type(self, n):
        least = {}
        for images in permutations(range(n)):
            if images[0] == 0:
                least.setdefault(_cycle_type(bytes(images)), bytes(images))
        assert _column1_representatives(n) == sorted(least.values())

    def test_example_from_the_docstring(self):
        expected = Permutation.from_cycles(7, [(3, 4), (5, 6, 7)])
        reps = [Permutation([v + 1 for v in p]) for p in _column1_representatives(7)]
        assert [p for p in reps if p.cycle_structure() == expected.cycle_structure()] == [expected]


class TestCentralizerParts:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_equal_to_a_brute_force_over_all_permutations(self, n):
        tail = bytes(range(n, 256))
        for p in _column1_representatives(n):
            expected = {}
            for tau in permutations(range(n)):
                if tau[0] == 0 and all(tau[p[x]] == p[tau[x]] for x in range(n)):
                    inverse = bytes(sorted(range(n), key=tau.__getitem__))
                    expected.setdefault(tau.index(1), []).append((bytes(tau) + tail, inverse))
            assert enumeration._centralizer_parts(p) == expected


def subquandles(rows):
    """Every non-empty set of elements (0-based) closed under *, by brute force over subsets."""
    n = len(rows)
    for mask in range(1, 1 << n):
        members = [x for x in range(n) if mask >> x & 1]
        if all(mask >> (rows[x][y] - 1) & 1 for x in members for y in members):
            yield members


class TestStabiliserScreen:
    """Column j commutes with the stabiliser of j in the group of the set columns."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_generators_and_candidates_on_every_subquandle(self, n, enumerated):
        # Classes suffice: a relabeling carries each case onto one of a class representative.
        identity = tuple(range(1, n + 1))
        for q in enumerated(n, True):
            columns = [bytes(row[k] - 1 for row in q.rows) for k in range(n)]
            for members in subquandles(q.rows):
                gens = [columns[m] for m in members]
                group = generated_group([tuple(v + 1 for v in g) for g in gens])
                for j in range(n):
                    stabiliser = {g for g in group if g[j] == j + 1}
                    found = enumeration._stabiliser_generators(gens, j)
                    assert identity not in {tuple(v + 1 for v in s) for s in found}
                    assert generated_group([identity, *(tuple(v + 1 for v in s) for s in found)]) == stabiliser
                    expected = [p for p in enumeration._candidate_columns(n, j)
                                if all(p[g[x] - 1] == g[p[x]] - 1 for g in stabiliser for x in range(n))]
                    assert list(enumeration._screened_options(gens, j, {})) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_candidates_are_the_permutations_fixing_j_in_lex_order(self, n):
        every = [bytes(p) for p in permutations(range(n))]
        for j in range(n):
            assert list(enumeration._candidate_columns(n, j)) == [p for p in every if p[j] == j]

    def test_the_search_never_builds_column_0(self, monkeypatch):
        asked = []
        candidate_columns = enumeration._candidate_columns
        monkeypatch.setattr(enumeration, "_candidate_columns", lambda n, j: asked.append(j) or candidate_columns(n, j))
        for p in _column1_representatives(6):
            for _ in _raw_tables(6, p):
                pass
        assert asked and 0 not in asked

    def test_the_cache_is_keyed_by_column_and_generator(self):
        # R_0 = (1 2) on 0-based points fixes 2 and 3: the stabiliser of 2 is <R_0>.
        swap = bytes([1, 0, 2, 3])
        commuting: dict = {}
        for j in (2, 3):
            assert list(enumeration._screened_options([swap], j, commuting)) == [bytes([0, 1, 2, 3]), swap]
        assert list(commuting) == [(2, swap), (3, swap)]
        # A stored set is read, not found again.
        commuting[2, swap] = {swap}
        assert list(enumeration._screened_options([swap], 2, commuting)) == [swap]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_the_unscreened_search_emits_the_same_stream(self, n, monkeypatch):
        offered = []
        screened_options = enumeration._screened_options

        def counted(*args):
            candidates = screened_options(*args)
            offered.append(len(candidates))
            return candidates

        monkeypatch.setattr(enumeration, "_screened_options", counted)
        units = _column1_representatives(n)
        screened = [list(_raw_tables(n, p)) for p in units]
        screened_offered = sum(offered)
        offered.clear()
        monkeypatch.setattr(enumeration, "_stabiliser_generators", lambda gens, j: set())
        assert [list(_raw_tables(n, p)) for p in units] == screened
        # From order 4 the screen drops candidates.
        assert screened_offered < sum(offered) if n >= 4 else screened_offered == sum(offered)


class TestSymmetryBreaking:
    """The orderly search keeps the --iso stream, element for element."""

    @pytest.mark.parametrize("predicate", [None, *sorted(PREDICATES)])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_stream_equals_reduction_of_full_search(self, n, predicate, enumerated):
        keep = PREDICATES[predicate] if predicate else (lambda q: True)
        full = _iso_reduce(q for q in map(Quandle, labeled_stream(n, enumerated)) if keep(q))
        broken = enumerate_quandles(EnumerationTask(n, up_to_iso=True, predicate_filter=predicate))
        assert [q.rows for q in broken] == [q.rows for q in full]

    def test_order6_stream_equals_reduction_of_full_search(self, enumerated):
        full = _iso_reduce(iter(enumerated(6, False)))
        assert [q.rows for q in enumerated(6, True)] == [q.rows for q in full]

    def test_searches_a_subsequence(self, enumerated):
        for n in range(1, 7):
            full = iter(labeled_stream(n, enumerated))
            pruned = list(_raw_tables(n))
            # in order: each pruned table is found in what is left of the full search
            assert all(any(t == u for u in full) for t in pruned)
            reps = {tuple(v + 1 for v in p) for p in _column1_representatives(n)}
            assert all(tuple(row[0] for row in t) in reps for t in pruned)
            assert len(pruned) == ORDERLY_COUNTS[n]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_keeps_exactly_the_tables_meeting_the_rule(self, n, enumerated):
        pruned = list(_raw_tables(n))
        assert pruned == [t for t in labeled_stream(n, enumerated) if meets_orderly_rule(t)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_first_table_of_each_class_is_its_least_labeling(self, n):
        first: dict = {}
        for t in _raw_tables(n):
            first.setdefault(column_major_least_labeling(t), t)
        assert len(first) == ISO_COUNTS[n]
        assert all(least == t for least, t in first.items())

    @pytest.mark.parametrize("iso", [True, False])
    def test_order6_tables_output_is_unchanged(self, iso, capsys):
        argv = ["enumerate", "6", "--tables"] + (["--iso"] if iso else [])
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == ORDER6_TABLES_SHA256[iso]

    @pytest.mark.parametrize("iso", [True, False])
    def test_order6_tables_output_is_unchanged_with_two_jobs(self, iso, capsys):
        argv = ["enumerate", "6", "--jobs", "2", "--tables"] + (["--iso"] if iso else [])
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == ORDER6_TABLES_SHA256[iso]

    def test_order7_stream_is_unchanged(self, relabelings_read):
        rows = [q.rows for q in enumerate_quandles(EnumerationTask(7, up_to_iso=True))]
        assert len(rows) == 298
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == ORDER7_ISO_SHA256
        # Only the labeled tables read all 7! relabelings.
        assert (7, 1) in relabelings_read and (7, 0) not in relabelings_read

    def test_parallel_order6_iso_matches_serial(self):
        task = EnumerationTask(6, up_to_iso=True)
        serial = enumerate_parallel(task, 1)
        assert len(serial) == ISO_COUNTS[6]
        assert [q.rows for q in enumerate_parallel(task, 2)] == [q.rows for q in serial]


class TestColumnMajorTies:
    """A table is kept iff it is its own column-major least labeling, and its ties count Aut(Q)."""

    @staticmethod
    def assert_matches_the_oracles(tables):
        for t in tables:
            ties = _column_major_ties(Quandle(t))
            assert (ties > 0) == (column_major_least_labeling(t) == t)
            if ties:
                assert ties == automorphism_count(t)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_labeled_table(self, n, enumerated):
        self.assert_matches_the_oracles(q.rows for q in enumerated(n, False))

    def test_every_orderly_table_of_order_6(self):
        self.assert_matches_the_oracles(_raw_tables(6))

    def test_every_order6_class_off_the_prefix(self):
        self.assert_matches_the_oracles(relabeled_off_the_prefix(6))

    def test_the_identity_block_counts_its_relabelings(self):
        # R_1 = R_2 = R_3 = id and R_4 = R_5 = (2 3): the automorphisms
        # keep {2, 3}, so they swap 2 and 3, and 4 and 5, and fix 1.
        rows = ((1, 1, 1, 1, 1), (2, 2, 2, 3, 3), (3, 3, 3, 2, 2), (4, 4, 4, 4, 4), (5, 5, 5, 5, 5))
        assert column_major_least_labeling(rows) == rows
        assert _column_major_ties(Quandle(rows)) == automorphism_count(rows) == 4
        # an identity column after a non-identity one: some relabeling puts it first
        assert _column_major_ties(Quandle(relabeled(rows, (1, 2, 4, 3, 5)))) == 0
        trivial = tuple((x,) * 5 for x in range(1, 6))
        assert _column_major_ties(Quandle(trivial)) == 120

    @pytest.mark.parametrize("iso", [True, False])
    def test_the_pipeline_needs_no_isomorphism_test(self, iso, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("called")

        monkeypatch.setattr(enumeration, "are_isomorphic", refuse)
        monkeypatch.setattr(Quandle, "iso_signature", refuse)
        argv = ["enumerate", "6", "--tables"] + (["--iso"] if iso else [])
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == ORDER6_TABLES_SHA256[iso]


def same_profile_pairs(tables, count, seed):
    """count random pairs (a, b) of the tables, b drawn from the tables of a's profile."""
    rng = random.Random(seed)
    by_profile = {}
    for q in tables:
        by_profile.setdefault(q.profile(), []).append(q)
    pairs = []
    for _ in range(count):
        a = rng.choice(tables)
        pairs.append((a, rng.choice(by_profile[a.profile()])))
    return pairs


def units_by_order(n):
    """The units t of Z_n, 1 < t < n, grouped by the multiplicative order of t."""
    groups = {}
    for t in range(2, n):
        if math.gcd(t, n) == 1:
            groups.setdefault(next(e for e in range(1, n) if pow(t, e, n) == 1), []).append(t)
    return list(groups.values())


class TestAreIsomorphic:
    @staticmethod
    def assert_agrees_with_the_oracle(a, b):
        """Assert that are_isomorphic answers as the oracle does; return whether a and b are isomorphic."""
        sigma = are_isomorphic(a, b)
        assert (sigma is None) == (naive_isomorphic(a.rows, b.rows) is None)
        if sigma is not None:
            # sigma(x*y) = sigma(x)*sigma(y) for all x, y: a relabeled by sigma is b.
            assert relabeled(a.rows, sigma.images) == b.rows
        return sigma is not None

    def test_self_isomorphism_finds_identity(self, q62, q94, nonlatin3, enumerated):
        tables = [q62, q94, nonlatin3, dihedral(47), affine(23, 5)]
        tables += [q for n in range(1, 6) for q in enumerated(n, False)]
        for q in tables:
            assert are_isomorphic(q, q) == Permutation.identity(q.n)

    def test_sigma_is_a_homomorphism(self, q94):
        shuffled = q94.relabel(Permutation.from_cycles(9, [(1, 5, 7), (2, 9)]))
        sigma = are_isomorphic(q94, shuffled)
        assert sigma is not None
        for x in range(1, 10):
            for y in range(1, 10):
                assert sigma(q94.op(x, y)) == shuffled.op(sigma(x), sigma(y))

    def test_profile_mismatch_rejected(self, q62):
        assert are_isomorphic(q62, dihedral(6)) is None

    def test_agrees_with_naive_search(self, enumerated):
        # Every ordered pair of labeled tables up to order 4.
        outcomes = set()
        for n in range(1, 5):
            tables = enumerated(n, False)
            for a in tables:
                for b in tables:
                    outcomes.add(self.assert_agrees_with_the_oracle(a, b))
        assert outcomes == {True, False}

    @pytest.mark.parametrize("n, count", [(5, 3000), (6, 300)])
    def test_agrees_with_naive_search_on_random_pairs(self, n, count, enumerated):
        # Pairs of one profile, as any other pair is rejected by its profile.
        pairs = same_profile_pairs(enumerated(n, False), count, seed=n)
        assert {self.assert_agrees_with_the_oracle(a, b) for a, b in pairs} == {True, False}

    def test_affine_pair_of_one_profile_is_rejected_quickly(self):
        # 5 and 7 both have order 22 mod 23, so every column of both tables is
        # of type (1,22) and every per-element invariant agrees; backtracking
        # over those invariants took about 36 s here (2 vCPUs, Python 3.11).
        a, b = affine(23, 5), affine(23, 7)
        assert a.profile() == b.profile()
        start = time.perf_counter()
        assert are_isomorphic(a, b) is None
        assert time.perf_counter() - start < 2

    # Two non-isomorphic order-6 classes of one profile.
    P = ((1, 1, 1, 1, 1, 1), (2, 2, 4, 5, 6, 3), (3, 4, 3, 6, 2, 5),
         (4, 5, 6, 4, 3, 2), (5, 6, 2, 3, 5, 4), (6, 3, 5, 2, 4, 6))
    P_PRIME = ((1, 1, 1, 1, 1, 1), (2, 2, 4, 3, 6, 5), (3, 5, 3, 6, 2, 4),
               (4, 6, 5, 4, 3, 2), (5, 4, 6, 2, 5, 3), (6, 3, 2, 5, 4, 6))

    @staticmethod
    def with_trivial_points(k, rows):
        """The trivial quandle on 1..k beside rows moved up by k; across the two, x*y = x."""
        n = k + len(rows)
        return Quandle([[x] * n for x in range(1, k + 1)]
                       + [[k + row[0]] * k + [k + v for v in row] for row in rows])

    @pytest.mark.parametrize("k", [7, 20])
    def test_interchangeable_points_are_tried_once(self, k):
        # Swapping two trivial points is an automorphism. Tried in every
        # order, they took about 2 s at k = 6 and 14-18 s at k = 7 (2 vCPUs,
        # Python 3.11).
        a, b = self.with_trivial_points(k, self.P), self.with_trivial_points(k, self.P_PRIME)
        assert a.profile() == b.profile()
        start = time.perf_counter()
        assert are_isomorphic(a, b) is None
        assert time.perf_counter() - start < 0.1

    def test_shuffled_trivial_points_are_matched(self):
        a = self.with_trivial_points(12, self.P)
        images = list(range(1, 19))
        random.Random(12).shuffle(images)
        b = a.relabel(Permutation(images))
        sigma = are_isomorphic(a, b)
        assert sigma is not None
        assert relabeled(a.rows, sigma.images) == b.rows

    def test_relabeled_affine_tables_are_found(self):
        rng = random.Random(47)
        for n in range(3, 48, 2):
            for group in units_by_order(n):
                for t in group:
                    q = affine(n, t)
                    images = list(range(1, n + 1))
                    rng.shuffle(images)
                    shuffled = q.relabel(Permutation(images))
                    sigma = are_isomorphic(q, shuffled)
                    assert sigma is not None
                    assert relabeled(q.rows, sigma.images) == shuffled.rows
                for t, u in zip(group, group[1:]):
                    a, b = affine(n, t), affine(n, u)
                    sigma = are_isomorphic(a, b)
                    if a.is_latin:
                        # Latin Aff(Z_n, t) and Aff(Z_n, u) are isomorphic only
                        # when t = u (Nelson, Topology Proc. 27, 2003).
                        assert sigma is None
                    elif sigma is not None:
                        assert relabeled(a.rows, sigma.images) == b.rows

    def test_isomorphic_quandles_share_invariants(self, enumerated):
        reps = {id(q): q for q in enumerated(5, False)[:40]}
        for a in reps.values():
            for b in reps.values():
                if are_isomorphic(a, b) is not None:
                    assert a.profile() == b.profile()
                    assert a.is_latin == b.is_latin
                    assert is_connected(a) == is_connected(b)


class TestCanonicalForm:
    def test_canonical_is_isomorphic_via_witness(self, q62):
        canon, sigma = canonical_form(q62)
        assert q62.relabel(sigma) == canon

    def test_canonical_is_minimal_over_all_relabelings(self, nonlatin3):
        from itertools import permutations as iterperms

        canon, _ = canonical_form(nonlatin3)
        smallest = min(
            nonlatin3.relabel(Permutation(s)).rows
            for s in iterperms(range(1, 4))
        )
        assert canon.rows == smallest

    def test_idempotent(self, q62):
        canon, _ = canonical_form(q62)
        assert canonical_form(canon)[0] == canon

    # The order-6 class representatives are canonical, so their witness is
    # the identity, the first relabeling. Relabeled by x -> 7 - x, a later
    # relabeling becomes the best one and its ties come after it.
    @pytest.mark.parametrize("n, up_to_iso, relabeling", [
        (1, False, None), (2, False, None), (3, False, None), (4, False, None),
        (5, False, None), (6, True, None), (6, True, (6, 5, 4, 3, 2, 1)),
    ], ids=["1-False", "2-False", "3-False", "4-False", "5-False", "6-True", "6-True-reversed"])
    def test_table_and_witness_match_the_plain_scan(self, n, up_to_iso, relabeling, enumerated):
        for q in enumerated(n, up_to_iso):
            if relabeling is not None:
                q = Quandle(relabeled(q.rows, relabeling))
            canon, sigma = canonical_form(q)
            assert (canon.rows, sigma.images) == canonical_labeling(q.rows)

    def test_every_order6_class_off_the_prefix(self):
        for rows in relabeled_off_the_prefix(6):
            canon, sigma = canonical_form(Quandle(rows))
            assert (canon.rows, sigma.images) == canonical_labeling(rows)

    # Every such class up to order 6 (53 of the 73 at order 6), and 16 of
    # the 179 at order 7, about 50 ms each for the oracles.
    @pytest.mark.parametrize("n, sample", [(3, None), (4, None), (5, None), (6, None), (7, 16)])
    def test_rows_tied_for_the_most_fixes_match_the_oracles(self, n, sample):
        # Several rows hold their own point most often: each is a front of
        # the scan unless they are the constant rows.
        def tied(rows):
            fixes = [row.count(x) for x, row in enumerate(rows, 1)]
            return fixes.count(max(fixes)) >= 2

        tables = [rows for rows in relabeled_off_the_prefix(n) if tied(rows)]
        if sample is not None:
            tables = random.Random(n).sample(tables, sample)
        for rows in tables:
            q = Quandle(rows)
            canon, sigma = canonical_form(q)
            assert (canon.rows, sigma.images) == canonical_labeling(rows)
            assert _least_relabeling(q)[2] == automorphism_count(rows)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_each_canonical_form_is_built_as_its_validated_table(self, n):
        # The canonical forms are relabelings of validated tables, built
        # with no screen of their own; they must keep what validation keeps.
        task = EnumerationTask(n, up_to_iso=True)
        built = [*enumerate_quandles(task), *(canonical_form(q)[0] for q, _ in _class_tables(task))]
        for canon in built:
            validated = Quandle(canon.rows)
            assert (canon.rows, canon._row_bytes, canon._col_bytes) == (
                validated.rows, validated._row_bytes, validated._col_bytes)

    def test_above_the_iso_guard_no_relabeling_table_is_kept(self, relabelings_read):
        # The 9! relabelings would hold about 160 MB. Each row of the
        # dihedral quandle fixes only its own point, so each is a front.
        q = dihedral(ISO_ORDER_GUARD + 1)
        canon, sigma = canonical_form(q)
        assert relabelings_read == [(ISO_ORDER_GUARD + 1, 1)] * (ISO_ORDER_GUARD + 1)
        assert all(n <= ISO_ORDER_GUARD for n, _ in enumeration._KEPT_RELABELINGS)
        assert q.relabel(sigma) == canon
        assert _least_relabeling(q)[2] == 54  # Aut of the dihedral quandle of order 9 is Aff(Z_9)


class TestAutomorphismCounts:
    """The ties of the canonical scan count Aut(Q); the classes weighted by n!/|Aut(Q)| count every table."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_ties_equal_a_brute_force_count(self, n, enumerated):
        reps = enumerated(n, True)
        assert [_least_relabeling(q)[2] for q in reps] == [automorphism_count(q.rows) for q in reps]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_class_sizes_sum_to_the_labeled_count(self, n):
        weighted = list(_class_tables(EnumerationTask(n, up_to_iso=True)))
        assert len(weighted) == ISO_COUNTS[n]
        assert sum(labelings for _, labelings in weighted) == RAW_COUNTS[n]

    @pytest.mark.parametrize("predicate", sorted(PREDICATES))
    def test_filtered_class_sizes_sum_to_the_filtered_count(self, predicate, enumerated):
        task = EnumerationTask(5, up_to_iso=True, predicate_filter=predicate)
        labeled = [q for q in enumerated(5, False) if PREDICATES[predicate](q)]
        assert sum(labelings for _, labelings in _class_tables(task)) == len(labeled)

    # The identity unit (R_1 = id, 196 classes) takes about 1.7 s: search
    # and validation 0.3 s, the class test 0.05 s, the labeled tables
    # 1.3 s. Every other unit finishes within about a second.
    @pytest.mark.parametrize("first", _column1_representatives(7),
                             ids=lambda p: "".join(str(v + 1) for v in p))
    def test_order7_units_relabel_to_their_class_sizes(self, first):
        classes = list(_least_labelings(Quandle(rows) for rows in _raw_tables(7, first)))
        tables = list(_labeled_tables(7, [q for q, _ in classes]))
        assert len(set(tables)) == len(tables) == sum(labelings for _, labelings in classes)


class TestPredicatesAndFilters:
    def test_filtered_enumeration(self):
        latin = list(enumerate_quandles(EnumerationTask(4, predicate_filter="latin")))
        assert all(q.is_latin for q in latin)
        everything = list(enumerate_quandles(EnumerationTask(4)))
        assert len(latin) == sum(1 for q in everything if q.is_latin)

    def test_unknown_filter_rejected(self):
        with pytest.raises(ValueError):
            EnumerationTask(3, predicate_filter="nope")


@pytest.fixture
def serial_pool(monkeypatch):
    """A process pool that maps in this process, so no worker starts; returns what it records.

    ("open", max_workers) when it is made and "closed" when it exits.
    """
    events = []

    class SerialPool:
        def __init__(self, max_workers):
            events.append(("open", max_workers))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            events.append("closed")
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # The parallel enumeration imports the pool class when it needs one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return events


class TestPartitioning:
    @pytest.mark.parametrize(
        "n, up_to_iso",
        [(n, up_to_iso) for up_to_iso in (False, True) for n in range(1, 7)],
        ids=[f"{n}-orderly" if up_to_iso else str(n) for up_to_iso in (False, True) for n in range(1, 7)],
    )
    def test_first_columns_concatenate_to_the_search(self, n, up_to_iso, enumerated):
        # Every task's units are the column-1 representatives, one per cycle
        # type; the pipeline turns their concatenation into the task's stream.
        split = [t for p in _column1_representatives(n) for t in _raw_tables(n, first=p)]
        assert split == list(_raw_tables(n))
        task = EnumerationTask(n, up_to_iso=up_to_iso)
        assert [q.rows for q in _pipeline(task, split)] == [q.rows for q in enumerated(n, up_to_iso)]

    @pytest.mark.parametrize("n, cpus, workers", [(3, 64, 2), (4, 4, 3), (5, 4, 4), (4, None, 1)])
    def test_workers_are_bounded_by_units_and_cpus(self, n, cpus, workers, serial_pool, monkeypatch):
        monkeypatch.setattr(enumeration.os, "cpu_count", lambda: cpus)
        task = EnumerationTask(n, up_to_iso=True)
        assert enumerate_parallel(task, 5000) == list(enumerate_quandles(task))
        # one worker opens no pool
        assert serial_pool == ([("open", workers), "closed"] if workers > 1 else [])

    def test_one_unit_opens_no_pool(self, serial_pool, capsys):
        # Order 2 has one column-1 representative, so two jobs have one worker.
        outputs = []
        for jobs in ("1", "2"):
            assert main(["enumerate", "2", "--jobs", jobs, "--tables"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and outputs[0]
        assert serial_pool == []

    def test_the_units_read_no_relabeling_table(self, relabelings_read):
        expected = list(_raw_tables(6))
        units = _column1_representatives(6)
        assert [t for p in units for t in enumeration._first_column_tables(6, p)] == expected
        assert (6, 1) in relabelings_read and (6, 0) not in relabelings_read

    def test_the_parallel_stream_yields_while_the_pool_is_open(self, serial_pool):
        stream = enumeration._parallel_quandles(EnumerationTask(5), 2)
        assert next(stream).rows == next(enumerate_quandles(EnumerationTask(5))).rows
        assert serial_pool == [("open", 2)]
        assert len(list(stream)) == RAW_COUNTS[5] - 1
        assert serial_pool == [("open", 2), "closed"]

    def test_parallel_matches_serial_raw(self):
        serial = enumerate_parallel(EnumerationTask(4), 1)
        parallel = enumerate_parallel(EnumerationTask(4), 3)
        assert [q.rows for q in serial] == [q.rows for q in parallel]

    def test_parallel_matches_serial_iso(self):
        task = EnumerationTask(5, up_to_iso=True)
        serial = enumerate_parallel(task, 1)
        parallel = enumerate_parallel(task, 4)
        assert [q.rows for q in serial] == [q.rows for q in parallel]


class TestSharedTranslations:
    def test_other_tables_share_nothing(self, enumerated):
        labeled = enumerated(4, False)[0]
        text = serialize_table(labeled, "plain")
        others = [parse_table(text, "plain"), parse_table(text, "plain"), canonical_form(labeled)[0]]
        for a in [labeled] + others:
            for b in others:
                if a is not b:
                    assert a.right_translation(1) is not b.right_translation(1)
        # Two tables of one enumeration with an equal column build one translation each.
        first, second = enumerated(4, False)[:2]
        j = next(j for j in range(1, 5) if first.column(j) == second.column(j))
        assert first.right_translation(j) == second.right_translation(j)
        assert first.right_translation(j) is not second.right_translation(j)

    def test_verify_builds_translations_of_class_tables_only(self, monkeypatch, capsys):
        # Every read of a right translation, range-checked or not, goes through
        # here; each translation read is kept alive, so ids are not reused.
        built = {}
        right_translation = Quandle._right_translation

        def recording_right_translation(self, j):
            p = right_translation(self, j)
            built[id(p)] = p
            return p

        monkeypatch.setattr(Quandle, "_right_translation", recording_right_translation)
        assert main(["verify", "5"]) == 0
        assert "order 5: 404 quandles" in capsys.readouterr().out
        # n per class table up to order 5, none for the searched tables
        # that are not their class's least labeling
        assert len(built) == 1 + 2 * 1 + 3 * 3 + 4 * 7 + 5 * 22


class TestFalsify:
    def test_distinct_lengths_implies_latin_has_no_counterexample(self):
        assert falsify(("distinct-lengths", "latin"), 6) is None

    def test_unique_fixed_point_implies_latin_clean_at_small_orders(self):
        # known to fail at order 28, far beyond this search horizon
        assert falsify(("unique-fixed-point", "latin"), 5) is None

    def test_latin_does_not_imply_distinct_lengths(self):
        witness = falsify(("latin", "distinct-lengths"), 5)
        assert witness is not None
        assert witness.n == 5
        assert str(witness.profile()) == "(1,2^2)"
        assert are_isomorphic(witness, dihedral(5)) is not None

    def test_unknown_predicate(self):
        with pytest.raises(ValueError):
            falsify(("latin", "nope"), 3)

    def test_an_order_above_the_guard_stops_before_any_search(self, monkeypatch):
        calls = []
        raw_tables = enumeration._raw_tables
        monkeypatch.setattr(enumeration, "_raw_tables", lambda *a: calls.append(a) or raw_tables(*a))
        with pytest.raises(OrderTooLargeError):
            falsify(("distinct-lengths", "latin"), 5, order_guard=3)
        # the default guard holds too, though order 5 has a witness
        with pytest.raises(OrderTooLargeError):
            falsify(("latin", "distinct-lengths"), ISO_ORDER_GUARD + 1)
        assert calls == []

    @pytest.mark.parametrize("hypothesis", ["latin", "connected", "unique-fixed-point"])
    def test_witness_table_is_unchanged(self, hypothesis):
        # the table falsify returned before column 1 was restricted
        witness = falsify((hypothesis, "distinct-lengths"), 5)
        assert witness.rows == (
            (1, 3, 4, 5, 2), (4, 2, 5, 3, 1), (5, 1, 3, 2, 4), (2, 5, 1, 4, 3), (3, 4, 2, 1, 5),
        )
