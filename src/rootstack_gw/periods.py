"""Quantum periods, their regularization, and classical periods of the
mirror superpotential computed from tangency counts.

The quantum period collects the one-point descendant invariants of the Fano
target by anticanonical degree.  Its regularization multiplies degree m by
m!.  On the mirror side the superpotential is the sum of one theta function
per divisor component of an anticanonical arrangement; the degree-d constant
term of its d-th power expands into multinomially weighted counts with
contact order one, one per curve class, which this module takes from the
extended tangency series (a contact tuple no class realizes has no count
and is not listed); :mod:`rootstack_gw.mirror` certifies the mirror map and
reads the counts off one dense body chain per class, as the quantum period
reads each class's term off its target slice: neither builds a series.  The
Laurent constant-term period, the fully independent cross-check oracle,
lives in :mod:`rootstack_gw.laurent` and is re-exported here
(``LaurentPolynomial``, ``PeriodSequence``, ``laurent_classical_period``).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from .laurent import LaurentPolynomial, PeriodSequence, laurent_classical_period
from .mirror import contact_one_counts
from .records import Record
from .targets import (
    ConfigurationError,
    DivisorArrangement,
    TargetSpace,
    _j_chain,
    check_assumption,
    enumerate_curve_classes,
)


class PeriodError(ValueError):
    """Hypotheses of the period pipeline fail."""

    exit_status = 2  # the command line's exit status for this refusal


def quantum_period(X: TargetSpace, cap: int) -> PeriodSequence:
    """Degree-m coefficients: point insertions against psi^(m-2), summed over
    classes of anticanonical degree m; degree 0 and 1 are pinned to 1 and 0.

    A class's term is the zero-monomial cell of its target slice, the
    z^(1-m) coefficient with insertion 1, read off the dense chain.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    coeffs = [Fraction(0)] * (cap + 1)
    coeffs[0] = Fraction(1)
    for beta in enumerate_curve_classes(X, cap):
        m = X.anticanonical_degree(beta)
        if m >= 2:
            coeffs[m] += _j_chain(X, beta).zero_cell()
    return PeriodSequence("quantum", tuple(coeffs))


def regularize(period: PeriodSequence) -> PeriodSequence:
    """Multiply the degree-m coefficient by m!."""
    if period.kind != "quantum":
        raise ValueError("only quantum periods regularize")
    return PeriodSequence(
        "regularized",
        tuple(c * factorial(m) for m, c in enumerate(period.coeffs)),
    )


class ClassicalPeriod(Record):
    """Classical period plus its mixed-grading breakdown.

    ``contributions`` keeps each class's contact tuple and count before the
    Novikov specialization to the single degree variable, for debugging; a
    contact tuple no class realizes has no entry.
    """

    sequence: PeriodSequence
    contributions: tuple[tuple[tuple[int, ...], tuple[int, ...], Fraction], ...]


def classical_period_orbifold(
    X: TargetSpace, arrangement: DivisorArrangement, cap: int
) -> ClassicalPeriod:
    """Constant-term coefficients of powers of the superpotential.

    Degree d collects d!/(d_1! ... d_n!) times the count with d_i
    contact-order-one markings per divisor, over classes beta whose
    intersection numbers realize the contact tuple; a formal tuple realized
    by no class carries no defined count and adds nothing.
    Requires the arrangement to be anticanonical and to satisfy the
    two-positive-pairings condition, which makes the mirror map trivial.
    :func:`~rootstack_gw.mirror.contact_one_counts` builds each class
    body chain once, certifies that mirror map from its cells at the cap
    and reads each count, the n_orb value, off its zero-monomial cell.
    """
    assumption = check_assumption(X, arrangement, cap)
    if not arrangement.is_anticanonical(X):
        raise ConfigurationError("arrangement must sum to the anticanonical class")
    if not assumption.holds:
        raise PeriodError(
            "two-positive-pairings condition fails at "
            f"{assumption.violations[0]}; the mirror map is not trivial"
        )
    counts = contact_one_counts(X, arrangement, cap)
    coeffs = [Fraction(0)] * (cap + 1)
    coeffs[0] = Fraction(1)
    contributions = []
    for beta in enumerate_curve_classes(X, cap):
        # anticanonical, so d is beta's anticanonical degree: 0 only at beta = 0
        degs = arrangement.degrees(beta)
        d = sum(degs)
        if d >= 2:
            count = counts[beta]
            contributions.append((beta, degs, count))
            coeffs[d] += factorial(d) // prod(map(factorial, degs)) * count
    return ClassicalPeriod(
        sequence=PeriodSequence("classical", tuple(coeffs)),
        contributions=tuple(contributions),
    )


class PeriodComparison(Record):
    regularized: PeriodSequence
    classical: PeriodSequence

    @property
    def ok(self) -> bool:
        return self.regularized.coeffs == self.classical.coeffs

    def first_mismatch(self) -> int | None:
        for m, (a, b) in enumerate(zip(self.regularized.coeffs, self.classical.coeffs)):
            if a != b:
                return m
        return None


def compare_periods(
    X: TargetSpace, arrangement: DivisorArrangement, cap: int
) -> PeriodComparison:
    """Coefficientwise exact comparison of the regularized quantum period
    with the classical period, two independent pipelines."""
    classical = classical_period_orbifold(X, arrangement, cap)
    regularized = regularize(quantum_period(X, cap))
    return PeriodComparison(regularized=regularized, classical=classical.sequence)
