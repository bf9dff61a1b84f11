import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quandles import constructions
from quandles.constructions import (
    MAX_CLOSURE_MEMBERS,
    MAX_CONJUGATION_DEGREE,
    ClosureTooLargeError,
    ConstructionSpec,
    ConstructionSpecError,
    EXAMPLE_TABLES,
    NotAUnitError,
    UnknownExampleError,
    affine,
    build_from_spec,
    builtin_example,
    conjugation,
    dihedral,
    parse_permutation,
)
from quandles.enumeration import are_isomorphic
from quandles.orbits import connected_profile, is_connected
from quandles.perm import Permutation
from quandles.quandle import Quandle

from _oracles import axioms_hold, naive_isomorphic


class TestDihedral:
    def test_dihedral3_table(self):
        assert dihedral(3).rows == ((1, 3, 2), (3, 2, 1), (2, 1, 3))

    def test_dihedral3_facts(self):
        q = dihedral(3)
        assert is_connected(q) and q.is_latin
        assert str(connected_profile(q)) == "(1,2)"

    def test_dihedral5(self):
        q = dihedral(5)
        assert q.is_latin
        assert str(connected_profile(q)) == "(1,2^2)"

    def test_dihedral4(self):
        q = dihedral(4)
        assert not is_connected(q)
        assert not q.is_latin

    @given(st.integers(1, 12))
    def test_latin_iff_odd(self, n):
        assert dihedral(n).is_latin == (n % 2 == 1)

    @given(st.integers(1, 10))
    def test_formula(self, n):
        q = dihedral(n)
        for i in range(n):
            for j in range(n):
                assert q.rows[i][j] == ((2 * j - i) % n) + 1


class TestAffine:
    def test_rejects_non_unit(self):
        with pytest.raises(NotAUnitError):
            affine(4, 2)

    def test_affine_5_2_profile(self):
        assert str(connected_profile(affine(5, 2))) == "(1,4)"

    def test_affine_t1_is_trivial(self):
        q = affine(4, 1)
        assert q.rows == tuple(tuple([i + 1] * 4) for i in range(4))
        for j in range(1, 5):
            assert q.right_translation(j) == Permutation.identity(4)

    def test_affine_4_3(self):
        q = affine(4, 3)
        assert not q.is_latin  # gcd(1-3, 4) = 2

    @given(st.integers(2, 13), st.data())
    def test_latin_iff_one_minus_t_is_unit(self, n, data):
        units = [t for t in range(1, n) if math.gcd(t, n) == 1]
        t = data.draw(st.sampled_from(units))
        assert affine(n, t).is_latin == (math.gcd(1 - t, n) == 1)

    @given(st.sampled_from([(5, 2), (5, 3), (7, 3), (11, 2), (13, 6)]))
    def test_prime_order_nontrivial_is_connected_latin(self, nt):
        n, t = nt
        q = affine(n, t)
        assert is_connected(q) and q.is_latin


class TestConjugation:
    def test_transpositions_of_s3(self):
        gens = [Permutation.from_cycles(3, [(1, 2)]), Permutation.from_cycles(3, [(1, 2, 3)])]
        seed = Permutation.from_cycles(3, [(1, 2)])
        q = conjugation(gens, seed)
        assert q.n == 3
        assert are_isomorphic(q, dihedral(3)) is not None
        assert naive_isomorphic(q.rows, dihedral(3).rows) is not None

    def test_identity_seed(self):
        q = conjugation([Permutation.from_cycles(4, [(1, 2, 3, 4)])], Permutation.identity(4))
        assert q.n == 1

    def test_four_cycles_of_s4(self):
        gens = [Permutation.from_cycles(4, [(1, 2)]), Permutation.from_cycles(4, [(1, 2, 3, 4)])]
        q = conjugation(gens, Permutation.from_cycles(4, [(1, 2, 3, 4)]))
        assert q.n == 6

    def test_conjugation_identity_holds_on_output(self):
        from quandles.checks import check_conjugation_identity

        gens = [Permutation.from_cycles(4, [(1, 2)]), Permutation.from_cycles(4, [(1, 2, 3, 4)])]
        q = conjugation(gens, Permutation.from_cycles(4, [(1, 2, 3, 4)]))
        report = check_conjugation_identity(q)
        assert report.consistent and report.failure_count == 0

    def test_operation_matches_group_conjugation(self):
        gens = [Permutation.from_cycles(3, [(1, 2)]), Permutation.from_cycles(3, [(1, 2, 3)])]
        seed = Permutation.from_cycles(3, [(1, 2)])
        q = conjugation(gens, seed)
        # rebuild the member list the same way the constructor sorts it
        members = sorted(
            (Permutation.from_cycles(3, [c]) for c in [(1, 2), (1, 3), (2, 3)]),
            key=lambda p: p.images,
        )
        for x in range(1, 4):
            for y in range(1, 4):
                expected = members[y - 1].inverse() * members[x - 1] * members[y - 1]
                assert members[q.op(x, y) - 1] == expected

    def test_closure_cap(self, monkeypatch):
        gens = [Permutation.from_cycles(10, [(1, 2)]), Permutation.from_cycles(10, [tuple(range(1, 11))])]
        seed = Permutation.from_cycles(10, [(1, 2)])
        monkeypatch.setattr(constructions, "MAX_CLOSURE_MEMBERS", 45)
        assert conjugation(gens, seed).n == 45
        monkeypatch.setattr(constructions, "MAX_CLOSURE_MEMBERS", 44)
        with pytest.raises(ClosureTooLargeError, match="exceeds 44 members"):
            conjugation(gens, seed)

    def test_cap_admits_the_transpositions_of_s23(self):
        # 253 members: the largest transposition quandle under the cap of 256.
        assert MAX_CLOSURE_MEMBERS == 256
        gens = [Permutation.from_cycles(23, [(1, 2)]), Permutation.from_cycles(23, [tuple(range(1, 24))])]
        assert conjugation(gens, Permutation.from_cycles(23, [(1, 2)])).n == 253

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.lists(st.permutations(range(1, n + 1)), max_size=3), st.permutations(range(1, n + 1)))))
    def test_matches_a_round_by_round_closure(self, drawn):
        # The closure taken round by round with full Permutation products.
        gens, seed = [Permutation(g) for g in drawn[0]], Permutation(drawn[1])
        members = {seed}
        while True:
            conjugators = gens + [g.inverse() for g in gens] + list(members)
            new = {g.inverse() * x * g for x in members for g in conjugators} - members
            if not new:
                break
            members |= new
        ordered = sorted(members, key=lambda p: p.images)
        q = conjugation(gens, seed)
        assert q.n == len(ordered)
        for x in range(1, q.n + 1):
            for y in range(1, q.n + 1):
                a, b = ordered[x - 1], ordered[y - 1]
                assert ordered[q.op(x, y) - 1] == b.inverse() * a * b


class TestBuiltinExamples:
    def test_tables_match_stored_data(self):
        for name, rows in EXAMPLE_TABLES.items():
            assert builtin_example(name).rows == rows

    def test_unknown_name(self):
        with pytest.raises(UnknownExampleError):
            builtin_example("Q99_1")

    def test_all_outputs_revalidate(self):
        outputs = [
            dihedral(6), affine(9, 4), builtin_example("Q6_2"),
            conjugation([Permutation.from_cycles(3, [(1, 2, 3)])],
                        Permutation.from_cycles(3, [(1, 2)])),
        ]
        for q in outputs:
            assert axioms_hold(q.rows)
            Quandle(q.rows)


class TestSpecSyntax:
    def test_dihedral(self):
        assert build_from_spec("dihedral:5") == dihedral(5)

    def test_affine(self):
        assert build_from_spec("affine:9,4") == affine(9, 4)

    def test_example(self):
        assert build_from_spec("example:Q9_4") == builtin_example("Q9_4")

    def test_conjugation(self):
        q = build_from_spec("conjugation:3;(1 2);(1 2),(1 2 3)")
        assert q.n == 3

    def test_bad_specs(self):
        for text in ("dihedral", "dihedral:x", "affine:9", "banana:3", "conjugation:3;(1 2)"):
            with pytest.raises(ConstructionSpecError):
                ConstructionSpec.parse(text)

    def test_unknown_kind_is_refused_when_made(self):
        # It used to be accepted and fail only in build().
        with pytest.raises(ConstructionSpecError, match="unknown construction kind 'bogus'"):
            ConstructionSpec(kind="bogus")

    def test_conjugation_needs_a_seed(self):
        with pytest.raises(ConstructionSpecError, match="seed"):
            ConstructionSpec(kind="conjugation", degree=3)

    def test_degree_cap(self, monkeypatch):
        assert build_from_spec(f"conjugation:{MAX_CONJUGATION_DEGREE};(1 2);(1 2 3)").n == 3
        # The degree is refused before any permutation is built.
        def no_permutation(*args):
            raise AssertionError("a permutation was built")

        monkeypatch.setattr(constructions, "parse_permutation", no_permutation)
        with pytest.raises(ConstructionSpecError, match=f"degree {MAX_CONJUGATION_DEGREE + 1} exceeds"):
            ConstructionSpec.parse(f"conjugation:{MAX_CONJUGATION_DEGREE + 1};(1 2);(1 2 3)")
        seed = Permutation.from_cycles(MAX_CONJUGATION_DEGREE + 1, [(1, 2)])
        with pytest.raises(ConstructionSpecError, match="MAX_CONJUGATION_DEGREE"):
            ConstructionSpec(kind="conjugation", degree=MAX_CONJUGATION_DEGREE + 1, seed=seed)

    def test_parse_permutation(self):
        assert parse_permutation("(1 2)(3 4 5)", 5) == Permutation.from_cycles(5, [(1, 2), (3, 4, 5)])
        assert parse_permutation("()", 3) == Permutation.identity(3)
        with pytest.raises(ConstructionSpecError):
            parse_permutation("(1 2", 3)
        with pytest.raises(ConstructionSpecError):
            parse_permutation("(1 9)", 3)
