"""The contract of the package's seven value classes.

Each keeps its constructors and defaults, its validation, equality and
hash by type and fields (by identity for ``CheckReport``), its repr,
positional ``match`` patterns, its refusal of assignment and deletion,
and a round trip through pickle and copy.
"""

import copy
import pickle

import pytest

from quandles.catalog import CatalogEntry, StatsReport
from quandles.checks import CheckReport
from quandles.constructions import ConstructionSpec, ConstructionSpecError, builtin_example
from quandles.enumeration import EnumerationTask, OrderTooLargeError
from quandles.perm import CycleStructure, Permutation
from quandles.quandle import Profile

CS = CycleStructure(((1, 2), (4, 1)))
Q = builtin_example("nonlatin3")
SEED = Permutation.from_cycles(3, [(1, 2)])
GENS = (Permutation.from_cycles(3, [(1, 2, 3)]),)

# class name -> (positional args, the same as keywords, the repr, a different value)
CASES = {
    "CycleStructure": (
        CycleStructure, (((1, 2), (4, 1)),), {"entries": ((1, 2), (4, 1))},
        "CycleStructure(entries=((1, 2), (4, 1)))",
        CycleStructure(((1, 2), (4, 2))),
    ),
    "Profile": (
        Profile, ((CS, CS),), {"structures": (CS, CS)},
        "Profile(structures=(CycleStructure(entries=((1, 2), (4, 1))),"
        " CycleStructure(entries=((1, 2), (4, 1)))))",
        Profile((CS,)),
    ),
    "CheckReport": (
        CheckReport, ("x", True, False, 3, ((1, 2),), 1, {"k": 1}),
        {"name": "x", "hypothesis_holds": True, "conclusion_holds": False, "counted_instances": 3,
         "witnesses": ((1, 2),), "failure_count": 1, "details": {"k": 1}},
        "CheckReport(name='x', hypothesis_holds=True, conclusion_holds=False,"
        " counted_instances=3, witnesses=((1, 2),), failure_count=1, details={'k': 1})",
        CheckReport("y", True, True, 1),
    ),
    "EnumerationTask": (
        EnumerationTask, (5, True, "latin", 6),
        {"order": 5, "up_to_iso": True, "predicate_filter": "latin", "order_guard": 6},
        "EnumerationTask(order=5, up_to_iso=True, predicate_filter='latin', order_guard=6)",
        EnumerationTask(5),
    ),
    "CatalogEntry": (
        CatalogEntry, ("c", Q, False, False, True, False, Q.profile()),
        {"name": "c", "quandle": Q, "connected": False, "latin": False, "distinct_lengths": True,
         "unique_fixed_point": False, "profile": Q.profile()},
        "CatalogEntry(name='c', quandle=Quandle([[1, 1, 1], [3, 2, 2], [2, 3, 3]]),"
        " connected=False, latin=False, distinct_lengths=True, unique_fixed_point=False,"
        " profile=Profile(structures=(CycleStructure(entries=((1, 3),)),"
        " CycleStructure(entries=((1, 3),)), CycleStructure(entries=((1, 1), (2, 1))))))",
        CatalogEntry.from_quandle("d", Q),
    ),
    "StatsReport": (
        StatsReport, (3, 2, 1, 1, 0, 1, (("a", 6, "(1,2)"),)),
        {"total": 3, "connected": 2, "latin": 1, "latin_distinct_lengths": 1,
         "latin_with_repeats": 0, "nonlatin_unique_fixed_point": 1,
         "nonlatin_unique_fixed_point_entries": (("a", 6, "(1,2)"),)},
        "StatsReport(total=3, connected=2, latin=1, latin_distinct_lengths=1,"
        " latin_with_repeats=0, nonlatin_unique_fixed_point=1,"
        " nonlatin_unique_fixed_point_entries=(('a', 6, '(1,2)'),))",
        StatsReport(3, 2, 1, 1, 0, 0, ()),
    ),
    "ConstructionSpec": (
        ConstructionSpec, ("conjugation", 0, 0, "", 3, SEED, GENS),
        {"kind": "conjugation", "order": 0, "unit": 0, "name": "", "degree": 3,
         "seed": SEED, "generators": GENS},
        "ConstructionSpec(kind='conjugation', order=0, unit=0, name='', degree=3,"
        " seed=Permutation([2, 1, 3]), generators=(Permutation([2, 3, 1]),))",
        ConstructionSpec("dihedral", order=3),
    ),
}
NAMES = sorted(CASES)


def fields(value) -> tuple:
    """The field values, read through the attributes the repr names."""
    return tuple(getattr(value, name) for name in CASES[type(value).__name__][2])


@pytest.mark.parametrize("name", NAMES)
class TestValueContract:
    def test_positional_and_keyword_constructors_agree(self, name):
        cls, args, kwargs, text, _ = CASES[name]
        a, b = cls(*args), cls(**kwargs)
        assert fields(a) == fields(b) == tuple(kwargs.values())
        assert repr(a) == repr(b) == text

    def test_equality_and_hash(self, name):
        cls, args, kwargs, _, other = CASES[name]
        a, b = cls(*args), cls(**kwargs)
        assert a == a and not a != a
        assert a != other and other != a
        assert a != fields(a) and a != object()
        if cls is CheckReport:
            # compared and hashed by identity
            assert a != b and hash(a) == object.__hash__(a)
        else:
            assert a == b and hash(a) == hash(b)
            assert {a: 1}[b] == 1

    def test_assignment_and_deletion_raise(self, name):
        cls, args, kwargs, _, _ = CASES[name]
        a = cls(*args)
        first = next(iter(kwargs))
        with pytest.raises(AttributeError):
            setattr(a, first, kwargs[first])
        with pytest.raises(AttributeError):
            a.extra = 1
        with pytest.raises(AttributeError):
            delattr(a, first)
        assert fields(a) == tuple(kwargs.values())

    def test_positional_match(self, name):
        cls, args, kwargs, _, _ = CASES[name]
        assert cls.__match_args__ == tuple(kwargs)
        match cls(*args):
            case cls(first):
                assert first == args[0]
            case _:
                pytest.fail("no positional match")

    # from protocol 2: the Quandle and Permutation fields have __slots__
    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, name, protocol):
        cls, args, _, text, _ = CASES[name]
        a = cls(*args)
        b = pickle.loads(pickle.dumps(a, protocol))
        assert type(b) is cls and repr(b) == text
        if cls is not CheckReport:
            assert b == a and hash(b) == hash(a)

    @pytest.mark.parametrize("how", (copy.copy, copy.deepcopy))
    def test_copy_round_trip(self, name, how):
        cls, args, _, text, _ = CASES[name]
        a = cls(*args)
        b = how(a)
        assert type(b) is cls and repr(b) == text
        if cls is not CheckReport:
            assert b == a


class TestDefaults:
    def test_check_report(self):
        a = CheckReport("x", True, True, 1)
        b = CheckReport("x", True, True, 1)
        assert (a.witnesses, a.failure_count, a.details) == ((), 0, {})
        # a fresh details dict per report
        assert a.details is not b.details
        assert a.consistent and not CheckReport("x", True, False, 1).consistent

    def test_enumeration_task(self):
        task = EnumerationTask(4)
        assert (task.up_to_iso, task.predicate_filter, task.order_guard) == (False, None, None)

    def test_construction_spec(self):
        spec = ConstructionSpec("dihedral", 5)
        assert (spec.unit, spec.name, spec.degree, spec.seed, spec.generators) == (0, "", 0, None, ())
        assert spec.build().n == 5


REPORT_FIELDS = ("name", "hypothesis_holds", "conclusion_holds", "counted_instances",
                 "witnesses", "failure_count", "details")
REPORT_VALUES = ("x", True, False, 3, ((1, 2), (3,)), 2, {"k": [1]})


def report_values(report) -> tuple:
    return tuple(getattr(report, name) for name in REPORT_FIELDS)


@pytest.mark.parametrize("build", [
    lambda: CheckReport(*REPORT_VALUES),
    lambda: CheckReport(**dict(zip(REPORT_FIELDS, REPORT_VALUES))),
], ids=["positional", "keyword"])
class TestCheckReportConstructor:
    def test_every_field_is_stored(self, build):
        assert report_values(build()) == REPORT_VALUES
        assert CheckReport._fields == REPORT_FIELDS

    def test_equality_and_hash_by_identity(self, build):
        a, b = build(), build()
        assert a == a and a != b and not a == b
        assert hash(a) == object.__hash__(a) and hash(b) == object.__hash__(b)
        assert len({a, b}) == 2

    def test_repr_lists_the_fields_in_order(self, build):
        text = ", ".join(f"{name}={value!r}" for name, value in zip(REPORT_FIELDS, REPORT_VALUES))
        assert repr(build()) == f"CheckReport({text})"

    @pytest.mark.parametrize("name", REPORT_FIELDS)
    def test_assigning_or_deleting_a_field_raises(self, build, name):
        a = build()
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert report_values(a) == REPORT_VALUES

    @pytest.mark.parametrize("how", [
        lambda a: pickle.loads(pickle.dumps(a)),
        lambda a: pickle.loads(pickle.dumps(a, 2)),
        copy.copy,
        copy.deepcopy,
    ], ids=["pickle", "pickle-2", "copy", "deepcopy"])
    def test_pickle_and_copy_keep_every_field(self, build, how):
        a = build()
        b = how(a)
        assert type(b) is CheckReport and b is not a
        assert report_values(b) == REPORT_VALUES and repr(b) == repr(a)
        assert b.consistent == a.consistent
        with pytest.raises(AttributeError):
            b.name = "y"

    def test_an_omitted_details_is_a_fresh_dict(self, build):
        short = report_values(build())[:-1]
        reports = [CheckReport(*short), CheckReport(*short[:4]),
                   CheckReport(**dict(zip(REPORT_FIELDS, short))), CheckReport(*short, None)]
        assert all(r.details == {} for r in reports)
        assert len({id(r.details) for r in reports}) == len(reports)


class TestValidation:
    @pytest.mark.parametrize("entries", [((2, 1), (1, 1)), ((1, 1), (1, 2)), ((1, 0),)])
    def test_cycle_structure(self, entries):
        with pytest.raises(ValueError):
            CycleStructure(entries)

    def test_enumeration_task(self):
        with pytest.raises(ValueError, match="positive"):
            EnumerationTask(0)
        with pytest.raises(ValueError, match="unknown predicate"):
            EnumerationTask(3, predicate_filter="bogus")
        with pytest.raises(OrderTooLargeError):
            EnumerationTask(9, up_to_iso=True)
        assert EnumerationTask(9, up_to_iso=True, order_guard=9).order == 9

    @pytest.mark.parametrize("kwargs", [
        {"kind": "dihedral"}, {"kind": "affine", "order": 0, "unit": 2},
        {"kind": "conjugation"}, {"kind": "example", "name": "nope"},
    ])
    def test_construction_spec(self, kwargs):
        with pytest.raises(ConstructionSpecError):
            ConstructionSpec(**kwargs)


class TestCycleStructureExtras:
    def test_ordering(self):
        three_fixed = CycleStructure(((1, 3),))
        swap = CycleStructure(((1, 1), (2, 1)))
        assert three_fixed < swap and three_fixed <= swap
        assert swap > three_fixed and swap >= three_fixed
        assert not swap < swap and swap <= swap
        assert sorted([swap, three_fixed]) == [three_fixed, swap]

    def test_cached_property(self):
        cs = CycleStructure(((1, 1), (2, 1)))
        assert cs.has_distinct_lengths is True
        assert not CycleStructure(((2, 2),)).has_distinct_lengths
        # computed once and kept, and the cache changes neither equality nor pickling
        assert cs.has_distinct_lengths is cs.has_distinct_lengths
        twin = CycleStructure(((1, 1), (2, 1)))
        assert cs == twin and hash(cs) == hash(twin)
        assert pickle.loads(pickle.dumps(cs)) == twin

    def test_order_is_the_lcm_of_the_lengths(self):
        cs = CycleStructure(((1, 2), (4, 1), (6, 2)))
        assert cs.order == 12 and CycleStructure(((5, 1),)).order == 5
        assert CycleStructure(()).order == 1
        # a cached property, not a field
        assert cs == CycleStructure(((1, 2), (4, 1), (6, 2))) and "order" not in repr(cs)
