"""gyrolab: a workbench for the twisted loop x*y = y^-1 x y^2 on a finite group.

The loop shares its underlying set with the group; for nilpotent groups of
class at most 3 it is a loop (a gyrogroup, in fact), and the package computes
its invariants, checks the structural statements that hold in that range on
concrete instances, and scans catalogs of 3-groups for the conditions tied to
the open question of loops with abelian inner mapping groups.
"""

from ._version import __version__
from .catalog import CATALOG_HELP, catalog_group
from .checks import (
    SuiteContext,
    charset_commutant,
    charset_left_nucleus,
    charset_middle_nucleus,
    charset_right_nucleus,
    class2_criterion,
    nine_identity,
    suite_check_ids,
    verify_suite,
)
from .cocycle import (
    FactorSet,
    GyroFactorSet,
    Transversal,
    build_gyro_extension,
    coboundary_relate,
    cocycle_violation,
    factor_set,
    gyro_coboundary_relate,
    gyro_factor_set,
    make_transversal,
    transversal_tau,
    verify_extension_isomorphism,
)
from .errors import (
    GyrolabError,
    InvariantViolated,
    NoIdentity,
    NotABijection,
    NotACocycle,
    NotALoop,
    NotASubgroup,
    NotASubloop,
    NotAssociative,
    NotCentral,
    NotLatinSquare,
    NotNormal,
    NotRightLoop,
    NotWellDefined,
    OrderCapExceeded,
    ParseError,
    UnknownSpec,
    ValueOutsideCenter,
    WrongClass,
)
from .fileio import (
    parse_group_file,
    report_document,
    resolve_group,
    write_group_file,
)
from .groups import (
    FiniteGroup,
    derived_subgroup,
    direct_product,
    group_center,
    group_commutator,
    group_exponent,
    group_from_permutations,
    group_from_table,
    is_subgroup,
    is_two_engel,
    lower_central_series,
    nilpotency_class,
    quotient_group,
    subgroup_as_group,
    subgroup_generated,
    subset_exponent,
)
from .gyro import (
    GyrationTable,
    GyroConstruction,
    build_gyro,
    gyration,
    gyration_table,
    is_gyrogroup,
)
from .invariants import (
    InvariantBundle,
    commutant,
    commutator_bracket_table,
    invariant_bundle,
    loop_associator,
    loop_center,
    loop_commutator,
    loop_nilpotency_class,
    loop_upper_central_series,
    nucleus,
)
from .loops import (
    FiniteLoop,
    divide,
    is_normal_subloop,
    is_subloop,
    loop_direct_product,
    loop_from_group,
    loop_from_table,
    normal_subloop_violation,
    quotient_loop,
    subloop_generated,
    table_associativity_violation,
)
from .mappings import (
    PermGroup,
    bracket_associativity_violation,
    inner_mapping_group,
    is_inner_abelian,
    mlt_inn_orders,
    multiplication_group,
)
from .report import CheckReport, summarize
from .search import SearchRecord, SearchSummary, evaluate_source, search_scan

__all__ = [name for name in dir() if not name.startswith("_")]
