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

from .algebra import GradedSeries, TermKey, exact_divide_linear
from .ifunctions import (
    i_infinity_extended_h0,
    i_infinity_nonextended,
    i_local,
    i_relative_smooth,
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
    out = GradedSeries.zero(ctx)
    for key, c in series.terms.items():
        support = tuple(i for i, s in enumerate(key.sector) if s)
        cls = arrangement.intersection_class(X, support)
        piece = GradedSeries(ctx, {key._replace(sector=ctx.zero_key().sector): c})
        out = out + piece.times_class(cls)
    return out


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


def _euler_normalized_local(
    local_slice: GradedSeries,
    X: TargetSpace,
    arrangement: DivisorArrangement,
) -> GradedSeries:
    """Divide out each divisor's a = 0 equivariant weight (lam_i - D_i),
    drop the parameters, and restore the product of divisor classes."""
    out = local_slice
    for i, divisor in enumerate(arrangement.divisors):
        out = exact_divide_linear(out, -divisor.cls(X), i)
    out = out.without_lambda()
    support = tuple(range(arrangement.n))
    return out.times_class(arrangement.intersection_class(X, support))


def local_point_invariant(
    X: TargetSpace,
    arrangement: DivisorArrangement,
    beta: tuple[int, ...],
    psi: int = 0,
    local_series: GradedSeries | None = None,
) -> Fraction:
    """One-point invariant of the dual-bundle-sum theory with a point
    insertion and the given psi power.

    Read off the local series after dividing out the equivariant normal
    weights (the pairing of the local theory carries their inverse) and
    dropping the parameters: the untwisted coefficient of z^(-psi-1).
    """
    beta = tuple(beta)
    cap = X.anticanonical_degree(beta)
    if local_series is None:
        local_series = i_local(X, arrangement, cap)
    work = local_series.beta_slice(beta)
    for i, divisor in enumerate(arrangement.divisors):
        work = exact_divide_linear(work, -divisor.cls(X), i)
    work = work.without_lambda()
    ctx = work.ctx
    return work.coefficient(
        beta=beta,
        zpow=-psi - 1,
        mono=ctx.ring.zero_mono,
        sector=(0,) * ctx.divisors,
        lam=(0,) * ctx.divisors,
    ).scalar()


def check_local_orbifold_nonextended(
    X: TargetSpace,
    arrangement: DivisorArrangement,
    beta: tuple[int, ...],
    limit_series: GradedSeries | None = None,
    local_series: GradedSeries | None = None,
) -> IdentityReport:
    """Tangency side against local side, one interior-free marking.

    Requires every intersection number positive and a nonempty common
    intersection of the divisors; outside those hypotheses nothing is
    asserted and the check refuses to run.
    """
    beta = tuple(beta)
    degs = arrangement.degrees(beta)
    if any(d <= 0 for d in degs):
        raise RefusedIdentityError(
            f"every divisor must meet the class; degrees {degs} at beta={beta}"
        )
    if not arrangement.intersection_nonempty(X, tuple(range(arrangement.n))):
        raise RefusedIdentityError(
            "the divisors have empty common intersection, the tangency side "
            "is the zero sector and no identity is asserted"
        )
    cap = X.anticanonical_degree(beta)
    if limit_series is None:
        limit_series = i_infinity_nonextended(X, arrangement, cap)
    if local_series is None:
        local_series = i_local(X, arrangement, cap)
    left = pushforward_iota(limit_series.beta_slice(beta), X, arrangement)
    sign = parity_sign(degs)
    right = _euler_normalized_local(
        local_series.beta_slice(beta), X, arrangement
    ).scale(sign)
    return IdentityReport(
        name="local-tangency", beta=beta, sign=sign, left=left, right=right
    )


def check_local_relative_smooth(
    X: TargetSpace,
    arrangement: DivisorArrangement,
    beta: tuple[int, ...],
) -> IdentityReport:
    """Single smooth divisor: relative side against local side.

    The relative series is built from its own closed form, so this is not a
    restatement of the n = 1 specialization of the tangency check even
    though the two must agree exactly.
    """
    if arrangement.n != 1:
        raise ConfigurationError("smooth-divisor check takes exactly one divisor")
    beta = tuple(beta)
    d = arrangement.divisors[0].degree(beta)
    if d <= 0:
        raise RefusedIdentityError(f"divisor degree {d} must be positive")
    cap = X.anticanonical_degree(beta)
    relative = i_relative_smooth(X, arrangement, cap)
    local = i_local(X, arrangement, cap)
    left = pushforward_iota(relative.beta_slice(beta), X, arrangement)
    sign = parity_sign((d,))
    right = _euler_normalized_local(local.beta_slice(beta), X, arrangement).scale(sign)
    return IdentityReport(
        name="local-relative", beta=beta, sign=sign, left=left, right=right
    )


def check_local_orbifold_extended(
    X: TargetSpace,
    arrangement: DivisorArrangement,
    beta: tuple[int, ...],
    h0_series: GradedSeries | None = None,
    local_series: GradedSeries | None = None,
) -> IdentityReport:
    """Maximal-tangency contact coefficient against divisor derivatives of
    the local series.

    Left side: the coefficient of prod_i x_{i,d_i} in the untwisted extended
    limit.  Right side: apply one divisor derivative per divisor to the
    local series, divide out the equivariant normal weights exactly, set the
    parameters to zero and apply the parity sign.  An inexact division here
    means a transcription error somewhere and must never happen.
    """
    beta = tuple(beta)
    degs = arrangement.degrees(beta)
    if any(d <= 0 for d in degs):
        raise RefusedIdentityError(
            f"every divisor must meet the class; degrees {degs} at beta={beta}"
        )
    cap = X.anticanonical_degree(beta)
    if h0_series is None:
        h0_series = i_infinity_extended_h0(
            X, arrangement, max(1, *arrangement.max_degrees(X, cap)), cap
        )
    if local_series is None:
        local_series = i_local(X, arrangement, cap)
    xexp = tuple((i, d, 1) for i, d in enumerate(degs))
    left = h0_series.beta_slice(beta).coefficient(xexp=xexp)
    work = local_series.beta_slice(beta)
    for i in range(arrangement.n):
        work = divisor_derivative(work, X, arrangement, i)
    for i, divisor in enumerate(arrangement.divisors):
        work = exact_divide_linear(work, -divisor.cls(X), i)
    sign = parity_sign(degs)
    right = work.without_lambda().scale(sign)
    return IdentityReport(
        name="local-tangency-extended",
        beta=beta,
        sign=sign,
        left=left,
        right=right,
    )
