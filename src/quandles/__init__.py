"""Finite quandle toolkit.

Validation of quandle tables, right/left translations, cycle-structure
profiles, connectedness, latinity, mechanical checkers for the structural
facts relating them, exhaustive enumeration of small quandles, and catalog
reporting.

The public names below are exported lazily (PEP 562): a name such as
``quandles.all_checks`` or ``from quandles import all_checks`` imports
its submodule on first use and is then bound on the package, as an eager
import would bind it, so a process compiles only the modules it uses and
a later read is a plain attribute read. ``orbits`` is the one
exception: it names both a submodule and that submodule's function, and
loading a submodule binds it on the package, so the function is bound
below, after its module has loaded. So ``import quandles`` loads
``orbits`` and what it imports (``perm``, ``quandle``, ``_value``) and
nothing else.
"""

from importlib import import_module as _import_module

from .orbits import orbits

_SUBMODULE_NAMES = {
    "perm": ("CycleStructure", "DegreeMismatchError", "Permutation"),
    "quandle": (
        "ColumnNotPermutationError", "ElementOutOfRangeError", "EmptyTableError",
        "EntryOutOfRangeError", "NotIdempotentError", "NotRightDistributiveError", "Profile",
        "Quandle", "TableError", "TableTooLargeError", "serialize_table",
    ),
    "orbits": ("NotConnectedError", "connected_profile", "is_connected", "orbits"),
    "checks": (
        "CheckReport", "all_checks", "check_conjugation_identity", "check_cycle_length_division",
        "check_cycle_shift", "check_latin_necessary_conditions", "check_latin_sufficiency",
        "check_left_refinement", "check_regular_cycle", "has_repeat_free_profile", "render_report",
        "report_record", "search_nonconnected_refinement",
    ),
    "constructions": (
        "ClosureTooLargeError", "ConstructionSpec", "ConstructionSpecError", "NotAUnitError",
        "UnknownExampleError", "affine", "build_from_spec", "builtin_example", "conjugation",
        "dihedral",
    ),
    "enumeration": (
        "EnumerationTask", "OrderTooLargeError", "are_isomorphic", "canonical_form",
        "enumerate_parallel", "enumerate_quandles", "falsify",
    ),
    "catalog": (
        "CatalogEntry", "IllegalOmissionError", "MissingCatalogNameError", "StatsReport",
        "TableParseError", "appendix_tables", "catalog_stats", "load_catalog", "parse_structure",
        "parse_table", "render_structure",
    ),
}
# Each public name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(_import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
