"""Hypergeometric generating series for multi-root stacks.

Six families are built here, all as exact :class:`~rootstack_gw.algebra.GradedSeries`:

* the non-extended and contact-variable-extended series of the root stack
  for finite root orders,
* their infinite-order limits (the extended limit both in full and as its
  untwisted slice),
* the relative-pair series for a single smooth divisor (its untwisted
  extended form is the n = 1 case of the untwisted extended limit),
* the equivariant local series of the dual direct-sum bundle.

Each closed-form family has a per-class ``<family>_slice(X, arrangement,
[m,] beta, ctx)`` that returns one curve class's terms and leaves input
validation to its caller; its capped builder validates and sums the slices
over the classes in the cap.  A slice is one dense chain (the target slice
times the divisor weights, see :class:`~rootstack_gw.algebra._Chain`),
turned into a series once, in its sector.  The extended series are built
from the same chains by :mod:`rootstack_gw.extended`, one body chain per
tuple of net shifts that can reach the z floor, one curve class at a time;
:func:`i_root_extended` and :func:`i_infinity_extended` import it when they
are called, so a program that never builds them never loads it.

Conventions.  A term of curve class beta meets divisor i in d_i points.  The
hypergeometric weight of divisor i is a ratio of linear factors (D_i + a z);
for finite root order r_i the fractional steps a run over rationals with
denominator r_i, which we store exactly as (D_i + k z) / r_i with k an
integer.  Finite-order sector labels are residues mod r_i; the infinite
limit uses integer tangency labels.  A term whose active divisors have empty
intersection is zero.
"""

from __future__ import annotations

import sys
import warnings
from fractions import Fraction
from itertools import product
from math import factorial, prod
from typing import Iterator

from .algebra import GradedSeries, SeriesContext, TermKey, _Chain, series_sum
from .targets import (
    ConfigurationError,
    DivisorArrangement,
    RootData,
    TargetSpace,
    _j_chain,
    enumerate_curve_classes,
)


class ExtendedDataTooSmall(ValueError):
    """The contact-order bound m misses a required tangency."""


class ExtendedBudgetError(ValueError):
    """An extended series would form more contact combinations than
    :data:`rootstack_gw.extended.MAX_CONTACT_COMBINATIONS`, so it is refused
    before any body."""


class SectorFoldWarning(UserWarning):
    """A nonzero tangency shift landed in the untwisted residue class.

    Happens when a contact order is divisible by the root order; the
    fractional-part convention then folds the sector to zero, which deserves
    manual review.
    """


# ---------------------------------------------------------------------------
# Shared factor builders
# ---------------------------------------------------------------------------


def ascending_product(
    chain: _Chain, coeffs: tuple[int, ...], lo: int, hi: int, skip: int | None = None
) -> _Chain:
    """``chain`` times prod_{lo <= a <= hi} (D + a z), optionally omitting one
    integer step, where D is the class with coefficients ``coeffs``."""
    for a in range(lo, hi + 1):
        if a != skip:
            chain = chain.times_linear(coeffs, a)
    return chain


def _upper_steps(d: int, r: int) -> list[int]:
    """Integers k with k = d mod r and 0 < k <= d; the fractional ladder k/r."""
    rem = d % r
    start = rem if rem else r
    return list(range(start, d + 1, r))


def _lower_steps(m: int, r: int) -> list[int]:
    """Integers k with k = m mod r and m/r < k/r <= 0, for negative shifts m."""
    rem = m % r
    start = rem - r if rem else 0
    return [k for k in range(start, m, -r) if k > m]


def _root_factor(
    chain: _Chain, coeffs: tuple[int, ...], d: int, shift: int, r: int
) -> _Chain:
    """``chain`` times the hypergeometric weight of one divisor, with class
    coefficients ``coeffs``, at finite root order.

    ``d`` is the intersection number, ``shift`` the net tangency
    d - sum_j j k_{ij} (equal to d itself in the non-extended series).  The
    weight is prod_{0<a<=d}(cls + a z) divided by the fractional ladder up to
    shift/r when the shift is positive, or multiplied by the nonpositive
    ladder down to shift/r when it is negative.
    """
    chain = ascending_product(chain, coeffs, 1, d)
    if shift > 0:
        for k in _upper_steps(shift, r):
            chain = chain.over_linear(coeffs, k).scaled(r)
    elif shift < 0:
        for k in _lower_steps(shift, r):
            chain = chain.times_linear(coeffs, k).scaled(1, r)
    return chain


def _limit_factor(chain: _Chain, coeffs: tuple[int, ...], d: int, shift: int) -> _Chain:
    """``chain`` times the infinite-order limit of the weight of
    :func:`_root_factor`.

    A positive shift cancels exactly the step a = shift of the ascending
    product; nonpositive shifts keep the full product.  The non-extended
    case shift = d gives the strict product over 0 < a < d.
    """
    if shift > d:
        raise ValueError("net tangency shift cannot exceed the intersection number")
    return ascending_product(chain, coeffs, 1, d, skip=shift if shift > 0 else None)


def _body_chain(
    X: TargetSpace,
    arrangement: DivisorArrangement,
    beta: tuple[int, ...],
    shifts: tuple[int, ...],
    roots: tuple[int, ...] | None,
) -> _Chain:
    """The class-beta body at the net shifts: the target slice times each
    divisor's weight, :func:`_root_factor` at the root orders ``roots`` or
    :func:`_limit_factor` at infinite order (``roots`` None)."""
    chain = _j_chain(X, beta)
    degs = arrangement.degrees(beta)
    for i, (divisor, d, shift) in enumerate(zip(arrangement.divisors, degs, shifts)):
        if roots is None:
            chain = _limit_factor(chain, divisor.coeffs, d, shift)
        else:
            chain = _root_factor(chain, divisor.coeffs, d, shift, roots[i])
    return chain


def _weight_degree(d: int, shift: int, r: int | None) -> int:
    """The z-degree one divisor's weight adds to a body at the net shift, at
    root order r (None at infinite order): the ascending product's d steps,
    less the cancelled step or the upper ladder, plus the lower ladder.

    A body's top z-power is exactly the target slice's 1 - deg(beta) plus
    these at infinite order, and at most that at finite order, where a lower
    step k = 0 contributes a factor D without z.
    """
    if r is None:
        return d - 1 if shift > 0 else d
    if shift > 0:
        return d - len(_upper_steps(shift, r))
    if shift < 0:
        return d + len(_lower_steps(shift, r))
    return d


# The modules whose frames a builder's warning skips.
_BUILDER_MODULES = (__name__, f"{__package__}.extended")


def _outside_stacklevel() -> int:
    """The ``warnings`` stacklevel that points a warning issued by the
    calling function at the nearest frame outside the builder modules: the
    line that called the public builder, at whatever depth the warning
    arose."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals.get("__name__") in _BUILDER_MODULES:
        frame, level = frame.f_back, level + 1
    return level


def _finite_sector(shifts: tuple[int, ...], roots: tuple[int, ...]) -> tuple[int, ...]:
    """Residue labels (-shift_i) mod r_i, warning when a nonzero shift folds."""
    out = []
    for shift, r in zip(shifts, roots):
        s = (-shift) % r
        if shift % r == 0 and shift != 0:
            warnings.warn(
                f"tangency shift {shift} folds into the untwisted sector at root order {r}",
                SectorFoldWarning,
                stacklevel=_outside_stacklevel(),
            )
        out.append(s)
    return tuple(out)


def _sector_meets(
    X: TargetSpace, arrangement: DivisorArrangement, sector: tuple[int, ...]
) -> bool:
    """Whether the support of the sector has nonempty intersection."""
    support = tuple(i for i, s in enumerate(sector) if s)
    return not support or arrangement.intersection_nonempty(X, support)


def _validated(
    X: TargetSpace, arrangement: DivisorArrangement, roots: RootData | None
) -> None:
    arrangement.validate_on(X)
    if roots is not None:
        roots.validate_for(arrangement)


# ---------------------------------------------------------------------------
# Finite root orders
# ---------------------------------------------------------------------------


def root_slice(
    X: TargetSpace,
    arrangement: DivisorArrangement,
    beta: tuple[int, ...],
    ctx: SeriesContext,
) -> GradedSeries:
    """Class-beta terms of the non-extended root-stack series, root orders
    read from ``ctx.roots``; zero when the sector's support does not meet.

    Degree zero contributes z times the untwisted unit; a general class
    contributes the one-point slice of the target times the per-divisor
    hypergeometric weights, in the sector labelled by the residues of the
    negated intersection numbers.
    """
    degs = arrangement.degrees(beta)
    sector = _finite_sector(degs, ctx.roots)
    if not _sector_meets(X, arrangement, sector):
        return GradedSeries.zero(ctx)
    return _body_chain(X, arrangement, beta, degs, ctx.roots).series(ctx, beta, sector)


def i_root_nonextended(
    X: TargetSpace, arrangement: DivisorArrangement, roots: RootData, cap: int
) -> GradedSeries:
    """Non-extended series of the root stack: the sum of
    :func:`root_slice` over beta up to the cap."""
    _validated(X, arrangement, roots)
    ctx = X.context(arrangement.n, cap, roots=roots.orders)
    betas = enumerate_curve_classes(X, cap)
    return series_sum(ctx, [root_slice(X, arrangement, b, ctx) for b in betas])


def i_root_extended(
    X: TargetSpace,
    arrangement: DivisorArrangement,
    roots: RootData,
    m: int,
    cap: int,
    z_floor: int = -1,
) -> GradedSeries:
    """Extended series of the root stack with contact orders 1..m per divisor.

    Setting every contact variable to zero recovers the non-extended series
    bit for bit.  Richer extended data (contact orders tied to divisor
    intersections, or orders at or above a root order) is rejected.
    """
    from .extended import _rows_series, extended_rows

    return _rows_series(*extended_rows(X, arrangement, m, cap, z_floor, roots))


# ---------------------------------------------------------------------------
# Infinite root orders
# ---------------------------------------------------------------------------


def infinity_slice(
    X: TargetSpace,
    arrangement: DivisorArrangement,
    beta: tuple[int, ...],
    ctx: SeriesContext,
) -> GradedSeries:
    """Class-beta terms of the large-order limit of the non-extended series;
    zero when the sector's support does not meet.

    Per divisor the weight is the strict product over 0 < a < d_i, and the
    unit carries the integer tangency labels (-d_1, ..., -d_n), absorbing the
    product of root orders of the finite-order picture.
    """
    degs = arrangement.degrees(beta)
    sector = tuple(-d for d in degs)
    if not _sector_meets(X, arrangement, sector):
        return GradedSeries.zero(ctx)
    return _body_chain(X, arrangement, beta, degs, None).series(ctx, beta, sector)


def i_infinity_nonextended(
    X: TargetSpace, arrangement: DivisorArrangement, cap: int
) -> GradedSeries:
    """Large-order limit of the non-extended series: the sum of
    :func:`infinity_slice` over beta up to the cap."""
    _validated(X, arrangement, None)
    ctx = X.context(arrangement.n, cap)
    betas = enumerate_curve_classes(X, cap)
    return series_sum(ctx, [infinity_slice(X, arrangement, b, ctx) for b in betas])


def i_infinity_extended(
    X: TargetSpace,
    arrangement: DivisorArrangement,
    m: int,
    cap: int,
    z_floor: int = -1,
) -> GradedSeries:
    """Large-order limit of the extended series, all sectors.

    Terms whose net tangency to some divisor is positive lose exactly one
    linear step from that divisor's weight; terms with nonpositive net
    tangency keep the full product.  Sector labels are the integer net
    shifts.  The untwisted slice agrees with
    :func:`i_infinity_extended_h0`, which is built independently.
    """
    from .extended import _rows_series, extended_rows

    return _rows_series(*extended_rows(X, arrangement, m, cap, z_floor))


def _tilings(i: int, d: int, m: int, max_total: int) -> list[tuple[tuple, int, int]]:
    """(xexp, total, weight) of each contact monomial prod_j x_{ij}^{e_j} of
    divisor i with sum_j j e_j = d, every j <= m and total = sum_j e_j at
    most max_total, where the monomial's coefficient is 1 / weight, with
    weight = prod_j e_j!."""
    out = []

    def rec(remaining: int, j: int, xexp: tuple, total: int, weight: int):
        if remaining == 0:
            out.append((xexp, total, weight))
            return
        # the rest needs at least ceil(remaining / j) more parts
        if j == 0 or total - (-remaining // j) > max_total:
            return
        for e in range(remaining // j + 1):
            with_e = ((i, j, e),) + xexp if e else xexp
            rec(remaining - j * e, j - 1, with_e, total + e, weight * factorial(e))

    rec(d, m, (), 0, 1)
    return out


def h0_body(
    X: TargetSpace,
    arrangement: DivisorArrangement,
    beta: tuple[int, ...],
    ctx: SeriesContext,
) -> GradedSeries:
    """Class-beta body of the untwisted extended limit series: the target
    slice times prod_i prod_{0<a<=d_i}(D_i + a z), no contact monomial yet.

    Each contact tiling moves the body whole (see :func:`h0_slice`), so one
    tiling's coefficient can be read here without forming the others.
    """
    chain = _j_chain(X, beta)
    for divisor, d in zip(arrangement.divisors, arrangement.degrees(beta)):
        chain = ascending_product(chain, divisor.coeffs, 1, d)
    return chain.series(ctx, beta)


def h0_slice(
    X: TargetSpace,
    arrangement: DivisorArrangement,
    m: int,
    beta: tuple[int, ...],
    ctx: SeriesContext,
) -> GradedSeries:
    """Class-beta terms of the untwisted extended limit series: every contact
    tiling attached to :func:`h0_body`.

    Contact orders of each term must tile the intersection numbers exactly
    (sum_j j k_{ij} = d_i), so the sum is finite without a z floor; the
    tilings are attached by :func:`attach_tilings`.  Raises
    ExtendedDataTooSmall when m misses an intersection number, since the
    maximal-tangency directions would otherwise be silently missing.
    """
    degs = check_contact_bound(arrangement, m, beta)
    body = h0_body(X, arrangement, beta, ctx._replace(z_floor=None))
    return attach_tilings(body, degs, m, ctx)


def check_contact_bound(
    arrangement: DivisorArrangement, m: int, beta: tuple[int, ...]
) -> tuple[int, ...]:
    """The intersection numbers of beta; raises ExtendedDataTooSmall when the
    contact bound m misses one of them."""
    degs = arrangement.degrees(beta)
    if max(degs, default=0) > m:
        raise ExtendedDataTooSmall(
            f"contact bound m={m} misses tangency {max(degs)} needed at beta={beta}"
        )
    return degs


def attach_tilings(
    body: GradedSeries, degs: tuple[int, ...], m: int, ctx: SeriesContext
) -> GradedSeries:
    """Every contact tiling of the intersection numbers ``degs``, with contact
    orders up to m, attached to a class body from :func:`h0_body`.

    Each tiling k moves every body term to z-power zpow - |k|, with contact
    monomial x^k and weight 1 / prod k!; the floor of ``ctx`` applies to the
    moved terms only.
    """
    base = body.terms.items()
    floor = ctx.z_floor
    # a tiling with more parts moves every body term below the floor
    if floor is None or body.is_zero:
        max_total = sum(degs)
    else:
        max_total = max(key.zpow for key in body.terms) - floor
    out: dict[TermKey, Fraction] = {}
    tilings = (_tilings(i, d, m, max_total) for i, d in enumerate(degs))
    for tiling in product(*tilings):
        xexp = sum((t[0] for t in tiling), ())
        total = sum(t[1] for t in tiling)
        weight = prod(t[2] for t in tiling)
        for key, c in base:
            zpow = key.zpow - total
            if floor is None or zpow >= floor:
                out[key._replace(zpow=zpow, xexp=xexp)] = c / weight
    return GradedSeries._trusted(ctx, out)


def h0_slices(
    X: TargetSpace, arrangement: DivisorArrangement, m: int, cap: int
) -> tuple[SeriesContext, Iterator[GradedSeries]]:
    """(ctx, slices): the :func:`h0_slice` of each class up to the cap, in
    lex order, built as they are read.  Every refusal comes first, the
    contact bound checked on every class, so the iterator never raises."""
    _validated(X, arrangement, None)
    if m < 1:
        raise ConfigurationError("at least one contact order is required")
    ctx = X.context(arrangement.n, cap)
    betas = enumerate_curve_classes(X, cap)
    for beta in betas:
        check_contact_bound(arrangement, m, beta)
    return ctx, (h0_slice(X, arrangement, m, b, ctx) for b in betas)


def i_infinity_extended_h0(
    X: TargetSpace, arrangement: DivisorArrangement, m: int, cap: int
) -> GradedSeries:
    """Untwisted part of the extended limit series: the sum of :func:`h0_slice`
    over beta up to the cap, so m must reach every intersection number."""
    ctx, slices = h0_slices(X, arrangement, m, cap)
    return series_sum(ctx, list(slices))


# ---------------------------------------------------------------------------
# Smooth-divisor relative series and the local series
# ---------------------------------------------------------------------------


def relative_slice(
    X: TargetSpace,
    arrangement: DivisorArrangement,
    beta: tuple[int, ...],
    ctx: SeriesContext,
) -> GradedSeries:
    """Class-beta terms of the relative-pair series of the single divisor.

    Weight prod_{0<a<=d-1}(D + a z) in sector (-d); built from its own
    displayed formula rather than as the n = 1 specialization of the limit
    series, so agreement of the two is a real check.
    """
    divisor = arrangement.divisors[0]
    d = divisor.degree(beta)
    if not _sector_meets(X, arrangement, (-d,)):
        return GradedSeries.zero(ctx)
    chain = ascending_product(_j_chain(X, beta), divisor.coeffs, 1, d - 1)
    return chain.series(ctx, beta, (-d,))


def i_relative_smooth(
    X: TargetSpace, arrangement: DivisorArrangement, cap: int
) -> GradedSeries:
    """Relative-pair series for a single smooth divisor: the sum of
    :func:`relative_slice` over beta up to the cap."""
    _validated(X, arrangement, None)
    if arrangement.n != 1:
        raise ConfigurationError("relative series needs exactly one divisor")
    ctx = X.context(1, cap)
    betas = enumerate_curve_classes(X, cap)
    return series_sum(ctx, [relative_slice(X, arrangement, b, ctx) for b in betas])


def local_slice(
    X: TargetSpace,
    arrangement: DivisorArrangement,
    beta: tuple[int, ...],
    ctx: SeriesContext,
) -> GradedSeries:
    """Class-beta terms of the equivariant series of the sum of dual line
    bundles of the divisors.

    Weight per divisor: prod_{0<=a<d_i}(-D_i + lam_i - a z), the equivariant
    parameters carried symbolically.  No sectors appear; states live on the
    target itself.
    """
    degs = arrangement.degrees(beta)
    chain = _j_chain(X, beta).with_lam(degs)
    for i, (divisor, d) in enumerate(zip(arrangement.divisors, degs)):
        negated = tuple(-c for c in divisor.coeffs)
        for a in range(d):
            chain = chain.times_linear(negated, -a, lam=i)
    return chain.series(ctx, beta)


def i_local(
    X: TargetSpace, arrangement: DivisorArrangement, cap: int
) -> GradedSeries:
    """Equivariant local series: the sum of :func:`local_slice` over beta up
    to the cap."""
    _validated(X, arrangement, None)
    ctx = X.context(arrangement.n, cap)
    betas = enumerate_curve_classes(X, cap)
    return series_sum(ctx, [local_slice(X, arrangement, b, ctx) for b in betas])
