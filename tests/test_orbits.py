import pytest

from quandles.constructions import affine, dihedral
from quandles.orbits import NotConnectedError, connected_profile, is_connected, orbits
from quandles.quandle import Quandle

from _oracles import orbit_closure


def blocks_as_lists(q):
    return sorted(sorted(b) for b in orbits(q))


class TestOrbits:
    def test_q62_single_orbit(self, q62):
        assert blocks_as_lists(q62) == [[1, 2, 3, 4, 5, 6]]

    def test_nonlatin3_two_orbits(self, nonlatin3):
        assert blocks_as_lists(nonlatin3) == [[1], [2, 3]]

    def test_dihedral4_parity_orbits(self):
        assert blocks_as_lists(dihedral(4)) == [[1, 3], [2, 4]]

    def test_matches_closure_oracle(self, q62, q94, nonlatin3):
        for q in (q62, q94, nonlatin3, dihedral(4), dihedral(6), affine(8, 3), affine(9, 4)):
            assert blocks_as_lists(q) == orbit_closure(q.rows)

    def test_blocks_closed_under_generators(self, q62, nonlatin3):
        for q in (q62, nonlatin3, dihedral(4), affine(8, 3)):
            for block in orbits(q):
                for j in range(1, q.n + 1):
                    p = q.right_translation(j)
                    assert {p(x) for x in block} == set(block)
                    assert {p.inverse()(x) for x in block} == set(block)


    def test_computed_once_per_table(self, q62):
        q = Quandle(q62.rows)
        assert orbits(q) is orbits(q)
        assert is_connected(q)
        assert orbits(Quandle(q62.rows)) is not orbits(q)


class TestConnected:
    def test_examples(self, q62, q94, nonlatin3):
        assert is_connected(q62)
        assert is_connected(q94)
        assert not is_connected(nonlatin3)
        assert is_connected(Quandle([[1]]))

    def test_trivial_quandle_not_connected(self):
        assert not is_connected(affine(4, 1))


class TestExhaustiveSmallOrders:
    def test_connected_quandles_have_uniform_structures(self, enumerated):
        # connected_profile raises RuntimeError if any two columns disagree
        for n in range(1, 7):
            for q in enumerated(n, False):
                if is_connected(q):
                    connected_profile(q)

    def test_connected_profile_walks_every_column(self, monkeypatch):
        # column_structures shares one walked structure per orbit; the lemma's
        # check must not read it
        monkeypatch.setattr(Quandle, "column_structures", lambda self: pytest.fail("read column_structures"))
        assert str(connected_profile(dihedral(5))) == "(1,2^2)"

    def test_latin_implies_connected_and_unique_fixed_points(self, enumerated):
        for n in range(1, 7):
            for q in enumerated(n, False):
                if q.is_latin:
                    assert is_connected(q)
                    assert q.has_unique_fixed_points

    def test_blocks_closed_exhaustively(self, enumerated):
        for q in enumerated(4, False):
            for block in orbits(q):
                for j in range(1, q.n + 1):
                    p = q.right_translation(j)
                    assert {p(x) for x in block} == set(block)


class TestConnectedProfile:
    def test_q62(self, q62):
        assert str(connected_profile(q62)) == "(1^2,4)"

    def test_q94(self, q94):
        assert str(connected_profile(q94)) == "(1,2,6)"

    def test_order_one(self):
        assert str(connected_profile(Quandle([[1]]))) == "(1)"

    def test_rejects_disconnected(self, nonlatin3):
        with pytest.raises(NotConnectedError):
            connected_profile(nonlatin3)

    def test_all_columns_agree_on_connected_fixtures(self, q62, q94):
        for q in (q62, q94, dihedral(3), dihedral(5), affine(5, 2), affine(7, 3)):
            assert is_connected(q)
            first = q.column_structures()[0]
            assert all(cs == first for cs in q.column_structures())
