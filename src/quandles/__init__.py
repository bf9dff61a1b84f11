"""Finite quandle toolkit.

Validation of quandle tables, right/left translations, cycle-structure
profiles, connectedness, latinity, mechanical checkers for the structural
facts relating them, exhaustive enumeration of small quandles, and catalog
reporting.
"""

from .perm import CycleStructure, DegreeMismatchError, Permutation
from .quandle import (
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
)
from .orbits import NotConnectedError, connected_profile, is_connected, orbits
from .checks import (
    CheckReport,
    all_checks,
    check_conjugation_identity,
    check_cycle_length_division,
    check_cycle_shift,
    check_latin_necessary_conditions,
    check_latin_sufficiency,
    check_left_refinement,
    check_regular_cycle,
    has_repeat_free_profile,
    render_report,
    report_record,
    search_nonconnected_refinement,
)
from .constructions import (
    ClosureTooLargeError,
    ConstructionSpec,
    ConstructionSpecError,
    NotAUnitError,
    UnknownExampleError,
    affine,
    build_from_spec,
    builtin_example,
    conjugation,
    dihedral,
)
from .enumeration import (
    EnumerationTask,
    OrderTooLargeError,
    are_isomorphic,
    canonical_form,
    enumerate_parallel,
    enumerate_quandles,
    falsify,
)
from .catalog import (
    CatalogEntry,
    IllegalOmissionError,
    MissingCatalogNameError,
    StatsReport,
    TableParseError,
    appendix_tables,
    catalog_stats,
    load_catalog,
    parse_structure,
    parse_table,
    render_structure,
    serialize_table,
)

__version__ = "0.1.0"
