"""Exact genus-zero Gromov-Witten calculator for multi-root stacks.

The package builds the hypergeometric generating series of root stacks
along simple normal-crossing arrangements on products of projective spaces,
takes their large-order limits, extracts one-point tangency invariants,
verifies the local / relative identities bit-exactly, and compares
regularized quantum periods with classical periods of the mirror
superpotential.  All arithmetic is exact rational.

Public names load their submodule on first access, so a program that uses
one part of the package, such as one command of the command line, does not
import and compile the rest.
"""

from importlib import import_module as _import_module

# Submodule -> the public names it defines.  The submodules are public names
# too, each its own source.
_EXPORTS = {
    "algebra": (
        "AmbientRing",
        "CohClass",
        "ContractError",
        "DivisibilityError",
        "GradedSeries",
        "NotInvertibleError",
        "SeriesContext",
        "TermKey",
        "exact_divide_linear",
        "invert_z_linear",
        "series_sum",
    ),
    "config": ("ConfigError", "JobConfig", "config_from_dict", "parse_config"),
    "identities": (
        "IdentityReport",
        "RefusedIdentityError",
        "check_identities",
        "divisor_derivative",
        "pushforward_iota",
    ),
    "ifunctions": (
        "ExtendedBudgetError",
        "ExtendedDataTooSmall",
        "SectorFoldWarning",
        "i_infinity_extended",
        "i_infinity_extended_h0",
        "i_infinity_nonextended",
        "i_local",
        "i_relative_smooth",
        "i_root_extended",
        "i_root_nonextended",
    ),
    "invariants": (
        "InvariantTable",
        "StabilizationReport",
        "TableEntry",
        "extract_invariants",
        "n_orb",
        "stabilization_check",
    ),
    "laurent": ("LaurentPolynomial", "PeriodSequence", "laurent_classical_period"),
    "mirror": ("MirrorMapReport", "UnsupportedMirrorMapError", "mirror_map"),
    "periods": (
        "PeriodComparison",
        "PeriodError",
        "classical_period_orbifold",
        "compare_periods",
        "quantum_period",
        "regularize",
    ),
    "targets": (
        "AssumptionReport",
        "ConfigurationError",
        "Divisor",
        "DivisorArrangement",
        "RootData",
        "TargetSpace",
        "base_j_function",
        "check_assumption",
        "check_coprime",
        "enumerate_curve_classes",
        "pairing",
    ),
}
_SOURCE = {
    name: module for module, names in _EXPORTS.items() for name in (module, *names)
}

__version__ = "0.1.0"

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    """Import the submodule that defines ``name`` and keep the value here."""
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
