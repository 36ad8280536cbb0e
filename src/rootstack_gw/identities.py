"""Series-level verification of the local / relative / tangency identities.

Each check compares two independently assembled series bit for bit, which is
strictly stronger than comparing extracted invariants and catches convention
drift immediately.

The tangency side pushes its sector classes into the ambient ring by
multiplying with the classes of the active divisors.  The local side starts
from the equivariant series of the dual bundle sum, in which each divisor
contributes a linear factor (lam_i - D_i) at step a = 0: that factor is the
equivariant normal weight of the divisor, and the comparison divides it out
exactly, restores the divisor class, sets the equivariant parameters to
zero, and applies the parity sign prod_i (-1)^(d_i - 1).  Carried out this
way the stated sign is exact for any number of divisors; substituting the
bare lam_i = 0 specialization without the normal-weight normalization would
flip the comparison by (-1)^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    GradedSeries,
    SeriesContext,
    TermKey,
    exact_divide_linear,
    series_sum,
)
from .ifunctions import (
    h0_body,
    infinity_slice,
    local_slice,
    relative_slice,
)
from .targets import ConfigurationError, DivisorArrangement, TargetSpace


class RefusedIdentityError(ValueError):
    """The hypotheses of the identity fail, so nothing is asserted."""


@dataclass(frozen=True)
class IdentityReport:
    """One verified (or failed) identity at a fixed curve class."""

    name: str
    beta: tuple[int, ...]
    sign: int
    left: GradedSeries
    right: GradedSeries

    @property
    def ok(self) -> bool:
        return self.left == self.right

    def first_mismatch(self) -> TermKey | None:
        return self.left.first_mismatch(self.right)


def pushforward_iota(
    series: GradedSeries, X: TargetSpace, arrangement: DivisorArrangement
) -> GradedSeries:
    """Send each integer-tangency class to the ambient ring.

    A term in sector s becomes its coefficient class times the product of
    the divisor classes with s_i != 0; sectors whose divisors do not meet
    die with the class product.
    """
    if series.ctx.roots is not None:
        raise ConfigurationError("pushforward needs integer tangency labels")
    ctx = series.ctx
    untwisted = ctx.zero_key().sector
    pieces = []
    for key, c in series.terms.items():
        support = tuple(i for i, s in enumerate(key.sector) if s)
        cls = arrangement.intersection_class(X, support)
        piece = GradedSeries(ctx, {key._replace(sector=untwisted): c})
        pieces.append(piece.times_class(cls))
    return series_sum(ctx, pieces)


def divisor_derivative(
    series: GradedSeries,
    X: TargetSpace,
    arrangement: DivisorArrangement,
    index: int,
) -> GradedSeries:
    """Divisor-direction derivative acting degree by degree.

    On a one-point-type series each class-beta slice is multiplied by
    (D_i + d_i z) / z with d_i the intersection number, which is how the
    divisor equation moves a divisor insertion into the series.
    """
    ctx = series.ctx
    divisor = arrangement.divisors[index]
    cls_series = GradedSeries.from_class(ctx, divisor.cls(X))
    out = GradedSeries.zero(ctx)
    for beta in series.betas():
        piece = series.beta_slice(beta)
        d = divisor.degree(beta)
        out = out + (piece * cls_series).shift_z(-1) + piece.scale(d)
    return out


def parity_sign(degrees: tuple[int, ...]) -> int:
    """prod_i (-1)^(d_i - 1)."""
    return -1 if sum(d - 1 for d in degrees) % 2 else 1


def _without_normal_weights(
    series: GradedSeries, X: TargetSpace, arrangement: DivisorArrangement
) -> GradedSeries:
    """Divide out each divisor's a = 0 equivariant weight (lam_i - D_i)
    exactly and drop the parameters."""
    for i, divisor in enumerate(arrangement.divisors):
        series = exact_divide_linear(series, -divisor.cls(X), i)
    return series.without_lambda()


def _euler_normalized_local(
    series: GradedSeries, X: TargetSpace, arrangement: DivisorArrangement
) -> GradedSeries:
    """The local series without its normal weights, times the product of
    the divisor classes."""
    support = tuple(range(arrangement.n))
    return _without_normal_weights(series, X, arrangement).times_class(
        arrangement.intersection_class(X, support)
    )


def _positive_degrees(
    arrangement: DivisorArrangement, beta: tuple[int, ...]
) -> tuple[int, ...]:
    """The intersection numbers of beta, refused unless all are positive."""
    degs = arrangement.degrees(beta)
    if any(d <= 0 for d in degs):
        raise RefusedIdentityError(
            f"every divisor must meet the class; degrees {degs} at beta={beta}"
        )
    return degs


def _class_context(
    X: TargetSpace, arrangement: DivisorArrangement, beta: tuple[int, ...]
) -> SeriesContext:
    """Validate the arrangement; the context of a one-class check, capped at
    the class's own anticanonical degree."""
    arrangement.validate_on(X)
    return X.context(arrangement.n, X.anticanonical_degree(beta))


def local_point_invariant(
    X: TargetSpace,
    arrangement: DivisorArrangement,
    beta: tuple[int, ...],
) -> Fraction:
    """One-point invariant of the dual-bundle-sum theory with a point
    insertion.

    Builds the class-beta slice of the local series at cap deg(beta), divides
    out the equivariant normal weights (the pairing of the local theory
    carries their inverse), drops the parameters and reads the untwisted
    coefficient of z^-1.  A class missing some divisor has no such weight
    to divide out and is refused.
    """
    beta = tuple(beta)
    _positive_degrees(arrangement, beta)
    ctx = _class_context(X, arrangement, beta)
    local = local_slice(X, arrangement, beta, ctx)
    return _without_normal_weights(local, X, arrangement).coefficient(
        beta=beta,
        zpow=-1,
        mono=ctx.ring.zero_mono,
        sector=(0,) * ctx.divisors,
        lam=(0,) * ctx.divisors,
    ).scalar()


def check_local_orbifold_nonextended(
    X: TargetSpace,
    arrangement: DivisorArrangement,
    beta: tuple[int, ...],
) -> IdentityReport:
    """Tangency side against local side, one interior-free marking.

    Builds only the class-beta slices of the non-extended limit series and
    of the local series, at cap deg(beta).  Requires every intersection
    number positive and a nonempty common intersection of the divisors;
    outside those hypotheses nothing is asserted and the check refuses to
    run.
    """
    beta = tuple(beta)
    degs = _positive_degrees(arrangement, beta)
    if not arrangement.intersection_nonempty(X, tuple(range(arrangement.n))):
        raise RefusedIdentityError(
            "the divisors have empty common intersection, the tangency side "
            "is the zero sector and no identity is asserted"
        )
    ctx = _class_context(X, arrangement, beta)
    tangency = infinity_slice(X, arrangement, beta, ctx)
    left = pushforward_iota(tangency, X, arrangement)
    sign = parity_sign(degs)
    local = local_slice(X, arrangement, beta, ctx)
    right = _euler_normalized_local(local, X, arrangement).scale(sign)
    return IdentityReport(
        name="local-tangency", beta=beta, sign=sign, left=left, right=right
    )


def check_local_relative_smooth(
    X: TargetSpace,
    arrangement: DivisorArrangement,
    beta: tuple[int, ...],
) -> IdentityReport:
    """Single smooth divisor: relative side against local side.

    Builds only the class-beta slices of the relative and local series, at
    cap deg(beta).  The relative series is built from its own closed form,
    so this is not a restatement of the n = 1 specialization of the tangency
    check even though the two must agree exactly.
    """
    if arrangement.n != 1:
        raise ConfigurationError("smooth-divisor check takes exactly one divisor")
    beta = tuple(beta)
    d = arrangement.divisors[0].degree(beta)
    if d <= 0:
        raise RefusedIdentityError(f"divisor degree {d} must be positive")
    ctx = _class_context(X, arrangement, beta)
    relative = relative_slice(X, arrangement, beta, ctx)
    left = pushforward_iota(relative, X, arrangement)
    sign = parity_sign((d,))
    local = local_slice(X, arrangement, beta, ctx)
    right = _euler_normalized_local(local, X, arrangement).scale(sign)
    return IdentityReport(
        name="local-relative", beta=beta, sign=sign, left=left, right=right
    )


def check_local_orbifold_extended(
    X: TargetSpace,
    arrangement: DivisorArrangement,
    beta: tuple[int, ...],
) -> IdentityReport:
    """Maximal-tangency contact coefficient against divisor derivatives of
    the local series.

    Builds only the class-beta body of the untwisted extended limit and the
    class-beta slice of the local series, at cap deg(beta).  Left side: the
    coefficient of prod_i x_{i,d_i}, which is the body moved down by one
    z-power per divisor (that tiling has weight 1), read without forming the
    other tilings.  No mirror-map certificate runs here.  Right side:
    apply one divisor derivative per divisor to the local slice, divide out
    the equivariant normal weights exactly, set the parameters to zero and
    apply the parity sign.  An inexact division here means a transcription
    error somewhere and must never happen.
    """
    beta = tuple(beta)
    degs = _positive_degrees(arrangement, beta)
    ctx = _class_context(X, arrangement, beta)
    left = h0_body(X, arrangement, beta, ctx).shift_z(-arrangement.n)
    work = local_slice(X, arrangement, beta, ctx)
    for i in range(arrangement.n):
        work = divisor_derivative(work, X, arrangement, i)
    sign = parity_sign(degs)
    right = _without_normal_weights(work, X, arrangement).scale(sign)
    return IdentityReport(
        name="local-tangency-extended", beta=beta, sign=sign, left=left, right=right
    )
