"""Exact genus-zero Gromov-Witten calculator for multi-root stacks.

The package builds the hypergeometric generating series of root stacks
along simple normal-crossing arrangements on products of projective spaces,
takes their large-order limits, extracts one-point tangency invariants,
verifies the local / relative identities bit-exactly, and compares
regularized quantum periods with classical periods of the mirror
superpotential.  All arithmetic is exact rational.
"""

from .algebra import (
    AmbientRing,
    CohClass,
    ContractError,
    DivisibilityError,
    GradedSeries,
    NotInvertibleError,
    SeriesContext,
    TermKey,
    exact_divide_linear,
    invert_z_linear,
    series_sum,
)
from .config import ConfigError, JobConfig, config_from_dict, parse_config
from .identities import (
    IdentityReport,
    RefusedIdentityError,
    check_identities,
    divisor_derivative,
    pushforward_iota,
)
from .ifunctions import (
    ExtendedDataTooSmall,
    SectorFoldWarning,
    i_infinity_extended,
    i_infinity_extended_h0,
    i_infinity_nonextended,
    i_local,
    i_relative_smooth,
    i_root_extended,
    i_root_nonextended,
)
from .invariants import (
    InvariantTable,
    MirrorMapReport,
    StabilizationReport,
    TableEntry,
    UnsupportedMirrorMapError,
    extract_invariants,
    merge_tables,
    mirror_map,
    n_orb,
    stabilization_check,
)
from .periods import (
    LaurentPolynomial,
    PeriodComparison,
    PeriodError,
    PeriodSequence,
    classical_period_orbifold,
    compare_periods,
    laurent_classical_period,
    quantum_period,
    regularize,
)
from .targets import (
    AssumptionReport,
    ConfigurationError,
    Divisor,
    DivisorArrangement,
    RootData,
    TargetSpace,
    base_j_function,
    check_assumption,
    check_coprime,
    enumerate_curve_classes,
    pairing,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
