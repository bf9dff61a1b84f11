import gc
import math
import pickle
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quandles import perm
from quandles.perm import CycleStructure, DegreeMismatchError, Permutation

from _oracles import brute_force_order, compose_images, inverse_images, power_images


def perm_images(max_degree=8):
    return st.integers(1, max_degree).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    )


class TestConstruction:
    def test_rejects_non_bijections(self):
        with pytest.raises(ValueError):
            Permutation([1, 1])
        with pytest.raises(ValueError):
            Permutation([0, 2])
        with pytest.raises(ValueError):
            Permutation([2, 3])

    @pytest.mark.parametrize("images", [[1.0], ["1"], [True], [2, None], [2, 1.0], [False, 1]])
    def test_rejects_non_integer_images_like_the_table_accessors(self, images):
        with pytest.raises(ValueError, match="not a bijection"):
            Permutation(images)

    def test_int_subclass_images_are_accepted(self):
        class Label(int):
            pass

        assert Permutation([Label(2), Label(3), 1]).images == (2, 3, 1)

    @given(st.lists(st.one_of(st.integers(-1, 5), st.booleans(), st.floats(0, 5), st.just("1")),
                    max_size=5))
    def test_accepts_exactly_the_bijections_of_ints(self, images):
        n = len(images)
        valid = (all(isinstance(v, int) and not isinstance(v, bool) for v in images)
                 and sorted(images) == list(range(1, n + 1)))
        try:
            Permutation(images)
        except ValueError:
            assert not valid
        else:
            assert valid

    def test_call_rejects_elements_out_of_range(self):
        swap = Permutation([2, 1])
        for bad in (0, 3, -1, True, False):
            with pytest.raises(ValueError, match="out of range"):
                swap(bad)

    @pytest.mark.parametrize("bad", [1.0, "1", None])
    def test_call_rejects_non_integers_like_the_table_accessors(self, bad):
        from quandles import builtin_example
        from quandles.quandle import ElementOutOfRangeError

        swap = Permutation([2, 1])
        with pytest.raises(ValueError, match=f"element {bad} out of range 1..2"):
            swap(bad)
        with pytest.raises(ElementOutOfRangeError):
            builtin_example("nonlatin3").op(bad, 1)

    def test_identity(self):
        assert Permutation.identity(4).images == (1, 2, 3, 4)

    def test_from_cycles(self):
        p = Permutation.from_cycles(6, [(2, 6, 4, 5)])
        assert p.images == (1, 6, 3, 5, 2, 4)

    def test_from_cycles_rejects_overlap(self):
        with pytest.raises(ValueError):
            Permutation.from_cycles(4, [(1, 2), (2, 3)])

    @pytest.mark.parametrize("cycles", [[()], [(1, 2), ()], [(1.0, 2)], [(1, "2")], [(True, 2)], [(0, 1)]])
    def test_from_cycles_rejects_empty_cycles_and_bad_elements(self, cycles):
        with pytest.raises(ValueError):
            Permutation.from_cycles(3, cycles)


class TestAlgebra:
    def test_involution_squared_is_identity(self):
        swap = Permutation([2, 1])
        assert swap * swap == Permutation.identity(2)

    def test_three_cycle_inverse(self):
        p = Permutation.from_cycles(3, [(1, 2, 3)])
        assert p.inverse() == Permutation.from_cycles(3, [(1, 3, 2)])

    def test_power_of_q62_column_one(self):
        # R_1 of the order-6 example has order 4
        r1 = Permutation([1, 6, 3, 5, 2, 4])
        assert r1 ** 4 == Permutation.identity(6)
        assert r1 ** 0 == Permutation.identity(6)
        assert r1 ** -1 == r1.inverse()

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            Permutation([1, 2]) * Permutation([1, 2, 3])

    @given(perm_images(), st.integers(-6, 6))
    def test_power_matches_repeated_composition(self, images, k):
        p = Permutation(images)
        expected = Permutation.identity(p.n)
        step = p if k >= 0 else p.inverse()
        for _ in range(abs(k)):
            expected = step * expected
        assert p ** k == expected

    @given(perm_images())
    def test_composition_with_inverse(self, images):
        p = Permutation(images)
        assert p * p.inverse() == Permutation.identity(p.n)
        assert p.inverse() * p == Permutation.identity(p.n)


class TestCycles:
    def test_q62_column_one(self):
        r1 = Permutation([1, 6, 3, 5, 2, 4])
        assert r1.cycles() == ((1,), (2, 6, 4, 5), (3,))

    def test_identity_cycles(self):
        assert Permutation.identity(3).cycles() == ((1,), (2,), (3,))

    def test_q94_column_one(self):
        r1 = Permutation([1, 3, 2, 7, 9, 8, 5, 4, 6])
        assert r1.cycles() == ((1,), (2, 3), (4, 7, 5, 9, 6, 8))

    @given(perm_images())
    def test_cycles_partition_and_step(self, images):
        p = Permutation(images)
        elements = [x for cycle in p.cycles() for x in cycle]
        assert sorted(elements) == list(range(1, p.n + 1))
        for cycle in p.cycles():
            for pos, x in enumerate(cycle):
                assert p(x) == cycle[(pos + 1) % len(cycle)]

    @given(perm_images())
    def test_cycle_canonical_form(self, images):
        p = Permutation(images)
        minima = [c[0] for c in p.cycles()]
        assert all(c[0] == min(c) for c in p.cycles())
        assert minima == sorted(minima)


class TestCycleStructure:
    def test_q62_structure(self):
        r1 = Permutation([1, 6, 3, 5, 2, 4])
        cs = r1.cycle_structure()
        assert cs.entries == ((1, 2), (4, 1))
        assert str(cs) == "(1^2,4)"

    def test_identity_structure(self):
        assert str(Permutation.identity(5).cycle_structure()) == "(1^5)"

    def test_q94_structure(self):
        r1 = Permutation([1, 3, 2, 7, 9, 8, 5, 4, 6])
        assert str(r1.cycle_structure()) == "(1,2,6)"

    def test_invalid_entries_rejected(self):
        with pytest.raises(ValueError):
            CycleStructure(((2, 1), (2, 1)))
        with pytest.raises(ValueError):
            CycleStructure(((1, 0),))

    def test_distinct_lengths(self):
        assert CycleStructure(((1, 1), (2, 1), (6, 1))).has_distinct_lengths
        assert not CycleStructure(((1, 2), (4, 1))).has_distinct_lengths
        assert CycleStructure(((1, 1),)).has_distinct_lengths

    @pytest.mark.parametrize("n", range(1, 8))
    def test_distinct_lengths_once_per_structure(self, n):
        for images in permutations(range(1, n + 1)):
            cs = Permutation(images).cycle_structure()
            fresh = CycleStructure(cs.entries)
            lengths = cs.lengths()
            assert cs.has_distinct_lengths == (len(set(lengths)) == len(lengths))
            # cached on the object, and invisible to equality and hashing
            assert "has_distinct_lengths" in vars(cs)
            assert cs == fresh and hash(cs) == hash(fresh)

    def test_lengths_once_per_structure(self):
        cs = CycleStructure(((1, 2), (3, 1), (4, 2)))
        assert cs.lengths() == (1, 1, 3, 4, 4)
        # cached on the object, and invisible to equality, hashing and pickling
        assert cs.lengths() is cs.lengths()
        fresh = CycleStructure(cs.entries)
        assert cs == fresh and hash(cs) == hash(fresh)
        assert pickle.loads(pickle.dumps(cs)) == fresh

    def test_from_lengths_keeps_one_instance_per_structure(self):
        cs = CycleStructure.from_lengths([4, 1, 3, 1, 4])
        for lengths in ([1, 1, 3, 4, 4], [4, 4, 3, 1, 1], (x for x in [3, 4, 1, 4, 1])):
            assert CycleStructure.from_lengths(lengths) is cs
        assert Permutation.from_cycles(13, [(2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12)]).cycle_structure() is cs
        # the constructor always builds a new one, equal and hashing alike
        fresh = CycleStructure(cs.entries)
        assert fresh is not cs and fresh == cs and hash(fresh) == hash(cs) and repr(fresh) == repr(cs)
        assert CycleStructure.from_lengths([1, 3, 4]) is not cs
        assert pickle.loads(pickle.dumps(cs)) == cs

    def test_a_structure_nobody_holds_is_dropped(self):
        entries = ((5, 1), (7, 2), (11, 1))
        cs = CycleStructure.from_lengths([7, 5, 11, 7])
        assert perm._KEPT_STRUCTURES[entries] is cs
        del cs
        gc.collect()
        assert entries not in perm._KEPT_STRUCTURES

    def test_sort_order_uses_expanded_lengths(self):
        # (1^3) < (1,2) because the length sequences (1,1,1) < (1,2)
        assert CycleStructure(((1, 3),)) < CycleStructure(((1, 1), (2, 1)))

    @given(perm_images())
    def test_structure_sums_to_degree(self, images):
        p = Permutation(images)
        assert p.cycle_structure().degree == p.n

    @given(perm_images())
    def test_distinct_lengths_iff_counts_match(self, images):
        cs = Permutation(images).cycle_structure()
        assert cs.has_distinct_lengths == (cs.cycle_count == len(cs.entries))

    @given(perm_images(6), perm_images(6))
    def test_conjugation_invariance(self, a, b):
        p, q = Permutation(a), Permutation(b)
        if p.n != q.n:
            return
        assert (q * p * q.inverse()).cycle_structure() == p.cycle_structure()


class TestFixedPoints:
    def test_q62_column_one(self):
        assert Permutation([1, 6, 3, 5, 2, 4]).fixed_points() == {1, 3}

    def test_identity(self):
        assert Permutation.identity(4).fixed_points() == {1, 2, 3, 4}

    def test_q94_column_one(self):
        assert Permutation([1, 3, 2, 7, 9, 8, 5, 4, 6]).fixed_points() == {1}


class TestOrderAndRegularCycle:
    def test_q62_column_one(self):
        # lcm over the cycles of (1)(3)(2 6 4 5) is 4, the longest cycle
        r1 = Permutation([1, 6, 3, 5, 2, 4])
        assert (r1.order, r1.has_regular_cycle) == (4, True)

    def test_two_and_three_cycle(self):
        p = Permutation.from_cycles(5, [(1, 2), (3, 4, 5)])
        assert (p.order, p.has_regular_cycle) == (6, False)

    def test_singleton(self):
        p = Permutation.identity(1)
        assert (p.order, p.has_regular_cycle) == (1, True)

    @given(perm_images())
    def test_order_matches_brute_force(self, images):
        assert Permutation(images).order == brute_force_order(images)


def test_cached_facts_equal_a_recomputation_up_to_degree_6():
    for n in range(1, 7):
        for images in permutations(range(1, n + 1)):
            p = Permutation(images)
            lengths = [len(c) for c in p.cycles()]
            for _ in range(2):
                assert p.cycle_structure() == CycleStructure.from_lengths(lengths)
                assert p.order == math.lcm(*lengths)
            assert p.cycle_structure() is p.cycle_structure()


def test_str_shows_all_cycles():
    assert str(Permutation([1, 6, 3, 5, 2, 4])) == "(1)(2 6 4 5)(3)"
    assert str(Permutation.identity(2)) == "(1)(2)"


@given(perm_images(), perm_images())
def test_composition_matches_tuple_oracle(a, b):
    if len(a) != len(b):
        return
    assert (Permutation(a) * Permutation(b)).images == compose_images(a, b)


@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.permutations(range(1, n + 1)), st.permutations(range(1, n + 1)))), st.integers(-10, 10))
def test_products_inverses_and_powers_equal_checked_permutations(pair, k):
    # These build their results unchecked; each must equal the checked build of the oracle's images.
    a, b = pair
    p = Permutation(a)
    assert p * Permutation(b) == Permutation(compose_images(a, b))
    assert p.inverse() == Permutation(inverse_images(a))
    assert p ** k == Permutation(power_images(a, k))


@given(st.integers(1, 300).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(1, n), max_size=6), st.permutations(range(1, n + 1)))), st.integers(-60, 60))
def test_powers_of_few_long_cycles_equal_the_oracle(drawn, k):
    # Few long cycles, across degrees up to 300, against the oracle's repeated composition.
    n, cuts, points = drawn
    bounds = sorted({0, n, *cuts})
    p = Permutation.from_cycles(n, [points[a:b] for a, b in zip(bounds, bounds[1:])])
    assert (p ** k).images == power_images(p.images, k)
