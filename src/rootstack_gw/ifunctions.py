"""Hypergeometric generating series for multi-root stacks.

Six families are built here, all as exact :class:`~rootstack_gw.algebra.GradedSeries`:

* the non-extended and contact-variable-extended series of the root stack
  for finite root orders,
* their infinite-order limits (the extended limit both in full and as its
  untwisted slice),
* the relative-pair series for a single smooth divisor (its untwisted
  extended form is the n = 1 case of the untwisted extended limit),
* the equivariant local series of the dual direct-sum bundle.

The four closed-form families each have a per-class ``<family>_slice(X,
arrangement, beta, ctx)``, which leaves validation to its caller;
:func:`slice_classes` validates once and yields a family's slices class by
class, and its capped builder sums them.  A slice is one dense chain (see
:class:`~rootstack_gw.chain._Chain`) turned into a series in its sector;
the local one, a chain per vector of equivariant exponents, is built in
:mod:`rootstack_gw.local`.  :mod:`rootstack_gw.extended` builds the
extended series from the same chains, one body chain per tuple of net
shifts that can reach the z floor; :func:`i_root_extended` and
:func:`i_infinity_extended` import it when called, as :func:`slice_classes`
imports the local module, so a program that never builds those series
never loads either.  The untwisted extended limit lives in
:mod:`rootstack_gw.h0`; :func:`i_infinity_extended_h0` is looked up there
when first read here.

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
from typing import Iterator

from .algebra import GradedSeries, SeriesContext, _Chain, series_sum
from .chain import ascending_product
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


def _upper_steps(d: int, r: int) -> list[int]:
    """Integers k with k = d mod r and 0 < k <= d; the fractional ladder k/r."""
    rem = d % r
    start = rem if rem else r
    return list(range(start, d + 1, r))


def _lower_steps(m: int, r: int) -> list[int]:
    """Integers k with k = m mod r and m/r < k/r <= 0, for negative shifts m."""
    rem = m % r
    start = rem - r if rem else 0
    return list(range(start, m, -r))


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
    divisor's :func:`_divisor_weight`, at the root orders ``roots`` (None at
    infinite order)."""
    chain = _j_chain(X, beta)
    for i, shift in enumerate(shifts):
        r = None if roots is None else roots[i]
        chain = _divisor_weight(chain, arrangement.divisors[i], beta, shift, r)
    return chain


def _divisor_weight(chain, divisor, beta, shift, r) -> _Chain:
    """``chain`` times the weight of one divisor of class beta at the net
    shift: :func:`_root_factor` at root order r, :func:`_limit_factor` at
    infinite order (r None)."""
    if r is None:
        return _limit_factor(chain, divisor.coeffs, divisor.degree(beta), shift)
    return _root_factor(chain, divisor.coeffs, divisor.degree(beta), shift, r)


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
_BUILDER_MODULES = (__name__, f"{__package__}.extended", f"{__package__}.h0")


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
    ctx, classes = slice_classes(X, arrangement, "root", cap, roots)
    return series_sum(ctx, [s for _, s in classes])


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
    ctx, classes = slice_classes(X, arrangement, "infinity", cap)
    return series_sum(ctx, [s for _, s in classes])


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
    :func:`~rootstack_gw.h0.i_infinity_extended_h0`, which is built
    independently.
    """
    from .extended import _rows_series, extended_rows

    return _rows_series(*extended_rows(X, arrangement, m, cap, z_floor))


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
    ctx, classes = slice_classes(X, arrangement, "relative", cap)
    return series_sum(ctx, [s for _, s in classes])


def i_local(
    X: TargetSpace, arrangement: DivisorArrangement, cap: int
) -> GradedSeries:
    """Equivariant local series: the sum of
    :func:`~rootstack_gw.local.local_slice` over beta up to the cap."""
    ctx, classes = slice_classes(X, arrangement, "local", cap)
    return series_sum(ctx, [s for _, s in classes])


def slice_classes(
    X: TargetSpace,
    arrangement: DivisorArrangement,
    family: str,
    cap: int,
    roots: RootData | None = None,
) -> tuple[SeriesContext, Iterator[tuple[tuple[int, ...], GradedSeries]]]:
    """The context of the closed-form ``family`` and its (beta, slice) pairs,
    every beta up to the cap in lex order, each slice built as it is read.
    Every refusal is made before this returns; only ``root`` reads ``roots``."""
    _validated(X, arrangement, roots)
    if family == "relative" and arrangement.n != 1:
        raise ConfigurationError("relative series needs exactly one divisor")
    if family == "local":
        from .local import local_slice as build
    else:
        build = dict(root=root_slice, infinity=infinity_slice, relative=relative_slice)[family]
    ctx = X.context(arrangement.n, cap, roots=None if roots is None else roots.orders)
    betas = enumerate_curve_classes(X, cap)
    return ctx, ((beta, build(X, arrangement, beta, ctx)) for beta in betas)


def __getattr__(name: str):
    """``i_infinity_extended_h0`` from :mod:`rootstack_gw.h0`, which imports
    this module, so it is looked up on first use and kept here."""
    if name != "i_infinity_extended_h0":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .h0 import i_infinity_extended_h0

    globals()[name] = i_infinity_extended_h0
    return i_infinity_extended_h0
