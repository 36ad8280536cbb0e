"""Series-level verification of the local / relative / tangency identities.

Each check compares two independently assembled series bit for bit, which is
strictly stronger than comparing extracted invariants and catches convention
drift immediately.  :func:`check_identities` runs both identities of one
curve class against one local side, built once.

The tangency side pushes its sector classes into the ambient ring by
multiplying with the classes of the active divisors.  The local side starts
from the equivariant series of the dual bundle sum, in which each divisor
contributes a linear factor (lam_i - D_i) at step a = 0: that factor is the
equivariant normal weight of the divisor.  The local side leaves that
step-zero factor out and sets the equivariant parameters to zero, so it is
one dense chain, the target slice times prod_i prod_{0<a<d_i}(-D_i - a z);
that equals dividing the factor out of the equivariant slice exactly, as
``test_dividing_commutes_with_the_derivatives`` checks on 37 classes.  The
non-extended identity restores the divisor classes on that side, the
extended identity applies one divisor derivative per divisor to it (a
derivative multiplies each class slice by (D_i + d_i z)/z, which commutes
with the division), and both apply the parity sign prod_i (-1)^(d_i - 1).
Carried out this way the stated sign is exact for any number of divisors;
substituting the bare lam_i = 0 specialization without the normal-weight
normalization would flip the comparison by (-1)^n.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import GradedSeries, SeriesContext, TermKey, series_sum
from .ifunctions import infinity_slice, relative_slice
from .records import Record
from .targets import ConfigurationError, DivisorArrangement, TargetSpace, _j_chain
from .targets import _class_body_chain


class RefusedIdentityError(ValueError):
    """The hypotheses of the identity fail, so nothing is asserted."""


class IdentityReport(Record):
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


def _positive_degrees(
    X: TargetSpace, arrangement: DivisorArrangement, beta: tuple[int, ...]
) -> tuple[int, ...]:
    """Validate the arrangement, then read the intersection numbers of
    beta, refused unless all are positive."""
    arrangement.validate_on(X)
    degs = arrangement.degrees(beta)
    if any(d <= 0 for d in degs):
        raise RefusedIdentityError(
            f"every divisor must meet the class; degrees {degs} at beta={beta}"
        )
    return degs


def _class_context(
    X: TargetSpace, arrangement: DivisorArrangement, beta: tuple[int, ...]
) -> SeriesContext:
    """The context of a one-class check, capped at beta's anticanonical degree."""
    return X.context(arrangement.n, X.anticanonical_degree(beta))


def _local_side(
    X: TargetSpace,
    arrangement: DivisorArrangement,
    beta: tuple[int, ...],
    ctx: SeriesContext,
) -> GradedSeries:
    """The class-beta local slice with each divisor's a = 0 equivariant
    weight (lam_i - D_i) divided out and the parameters set to zero: the
    target slice times prod_i prod_{0<a<d_i}(-D_i - a z)."""
    chain = _j_chain(X, beta)
    for divisor, d in zip(arrangement.divisors, arrangement.degrees(beta)):
        negated = tuple(-c for c in divisor.coeffs)
        for a in range(1, d):
            chain = chain.times_linear(negated, -a)
    return chain.series(ctx, beta)


def local_point_invariant(
    X: TargetSpace,
    arrangement: DivisorArrangement,
    beta: tuple[int, ...],
) -> Fraction:
    """One-point invariant of the dual-bundle-sum theory with a point
    insertion.

    Reads the untwisted coefficient of z^-1 off the class-beta local side
    at cap deg(beta): the pairing of the local theory carries the inverse
    of the equivariant normal weights that side leaves out.  A class
    missing some divisor has no such weight to leave out and is refused.
    """
    beta = tuple(beta)
    _positive_degrees(X, arrangement, beta)
    ctx = _class_context(X, arrangement, beta)
    return _local_side(X, arrangement, beta, ctx).coefficient(
        beta=beta,
        zpow=-1,
        mono=ctx.ring.zero_mono,
        sector=(0,) * ctx.divisors,
        lam=(0,) * ctx.divisors,
    ).scalar()


def check_identities(
    X: TargetSpace,
    arrangement: DivisorArrangement,
    beta: tuple[int, ...],
) -> tuple[IdentityReport, IdentityReport]:
    """Both identities of one curve class, against one local side.

    Builds only class-beta slices, at cap deg(beta), and the local side once.
    The first report puts the tangency side, one interior-free marking,
    against the local side times the product of the divisor classes.  For a
    single divisor (``local-relative``) the tangency side is the relative
    series, built from its own closed form, so this is not a restatement of
    the n = 1 limit series even though the two must agree exactly; otherwise
    (``local-tangency``) it is the non-extended limit series.  The second
    report (``local-tangency-extended``) puts the maximal-tangency contact
    coefficient prod_i x_{i,d_i} of the untwisted extended limit, which is
    the class body moved down by one z-power per divisor (that tiling has
    weight 1), against the divisor derivatives of the local side.  No
    mirror-map certificate runs here.  Both right sides carry the parity
    sign.

    Requires every intersection number positive and a nonempty common
    intersection of the divisors; outside those hypotheses nothing is
    asserted and the check refuses to run.
    """
    beta = tuple(beta)
    degs = _positive_degrees(X, arrangement, beta)
    n = arrangement.n
    meet = arrangement.intersection_class(X, tuple(range(n)))
    if meet.is_zero:
        raise RefusedIdentityError(
            "the divisors have empty common intersection, the tangency side "
            "is the zero sector and no identity is asserted"
        )
    ctx = _class_context(X, arrangement, beta)
    sign = parity_sign(degs)
    local = _local_side(X, arrangement, beta, ctx)
    if n == 1:
        name, tangency = "local-relative", relative_slice(X, arrangement, beta, ctx)
    else:
        name, tangency = "local-tangency", infinity_slice(X, arrangement, beta, ctx)
    first = IdentityReport(
        name=name,
        beta=beta,
        sign=sign,
        left=pushforward_iota(tangency, X, arrangement),
        right=local.times_class(meet).scale(sign),
    )
    derived = local
    for i in range(n):
        derived = divisor_derivative(derived, X, arrangement, i)
    second = IdentityReport(
        name="local-tangency-extended",
        beta=beta,
        sign=sign,
        left=_class_body_chain(X, arrangement, beta).series(ctx, beta).shift_z(-n),
        right=derived.scale(sign),
    )
    return first, second


# perfbench/trace_child.py times these three names in its per-layer trace;
# each returns one report of check_identities.


def check_local_orbifold_nonextended(
    X: TargetSpace, arrangement: DivisorArrangement, beta: tuple[int, ...]
) -> IdentityReport:
    """The first report of :func:`check_identities`."""
    return check_identities(X, arrangement, beta)[0]


def check_local_relative_smooth(
    X: TargetSpace, arrangement: DivisorArrangement, beta: tuple[int, ...]
) -> IdentityReport:
    """The first report of :func:`check_identities`."""
    return check_identities(X, arrangement, beta)[0]


def check_local_orbifold_extended(
    X: TargetSpace, arrangement: DivisorArrangement, beta: tuple[int, ...]
) -> IdentityReport:
    """The second report of :func:`check_identities`."""
    return check_identities(X, arrangement, beta)[1]
