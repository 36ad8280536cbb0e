"""Hypergeometric generating series for multi-root stacks.

Six families are built here, all as exact :class:`~rootstack_gw.algebra.GradedSeries`:

* the non-extended and contact-variable-extended series of the root stack
  for finite root orders,
* their infinite-order limits (the extended limit both in full and as its
  untwisted slice),
* the relative-pair series for a single smooth divisor (its untwisted
  extended form is the n = 1 case of the untwisted extended limit),
* the equivariant local series of the dual direct-sum bundle.

Conventions.  A term of curve class beta meets divisor i in d_i points.  The
hypergeometric weight of divisor i is a ratio of linear factors (D_i + a z);
for finite root order r_i the fractional steps a run over rationals with
denominator r_i, which we store exactly as (D_i + k z) / r_i with k an
integer.  Finite-order sector labels are residues mod r_i; the infinite
limit uses integer tangency labels.  A term whose active divisors have empty
intersection is zero.
"""

from __future__ import annotations

import warnings
from dataclasses import replace
from fractions import Fraction
from typing import Iterator

from .algebra import (
    CohClass,
    GradedSeries,
    SeriesContext,
    invert_z_linear,
    series_sum,
    xexp_from_dict,
)
from .targets import (
    ConfigurationError,
    DivisorArrangement,
    RootData,
    TargetSpace,
    base_j_function,
    enumerate_curve_classes,
)


class ExtendedDataTooSmall(ValueError):
    """The contact-order bound m misses a required tangency."""


class SectorFoldWarning(UserWarning):
    """A nonzero tangency shift landed in the untwisted residue class.

    Happens when a contact order is divisible by the root order; the
    fractional-part convention then folds the sector to zero, which deserves
    manual review.
    """


# ---------------------------------------------------------------------------
# Shared factor builders
# ---------------------------------------------------------------------------


def _linear(ctx: SeriesContext, cls: CohClass, zcoeff: Fraction | int) -> GradedSeries:
    """The factor (cls + zcoeff * z)."""
    return GradedSeries.from_class(ctx, cls) + GradedSeries.term(
        ctx, zcoeff, zpow=1
    )


def ascending_product(
    ctx: SeriesContext, cls: CohClass, lo: int, hi: int, skip: int | None = None
) -> GradedSeries:
    """prod_{lo <= a <= hi} (cls + a z), optionally omitting one integer step."""
    out = GradedSeries.one(ctx)
    for a in range(lo, hi + 1):
        if skip is not None and a == skip:
            continue
        out = out * _linear(ctx, cls, a)
    return out


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
    ctx: SeriesContext,
    cls: CohClass,
    d: int,
    shift: int,
    r: int,
) -> GradedSeries:
    """Hypergeometric weight of one divisor at finite root order.

    ``d`` is the intersection number, ``shift`` the net tangency
    d - sum_j j k_{ij} (equal to d itself in the non-extended series).  The
    weight is prod_{0<a<=d}(cls + a z) divided by the fractional ladder up to
    shift/r when the shift is positive, or multiplied by the nonpositive
    ladder down to shift/r when it is negative.
    """
    out = ascending_product(ctx, cls, 1, d)
    if shift > 0:
        for k in _upper_steps(shift, r):
            out = out * invert_z_linear(ctx, Fraction(k), cls).scale(r)
    elif shift < 0:
        for k in _lower_steps(shift, r):
            out = out * _linear(ctx, cls, k).scale(Fraction(1, r))
    return out


def _limit_factor(ctx: SeriesContext, cls: CohClass, d: int, shift: int) -> GradedSeries:
    """Infinite-order limit of :func:`_root_factor`.

    A positive shift cancels exactly the step a = shift of the ascending
    product; nonpositive shifts keep the full product.  The non-extended
    case shift = d gives the strict product over 0 < a < d.
    """
    if shift > d:
        raise ValueError("net tangency shift cannot exceed the intersection number")
    return ascending_product(ctx, cls, 1, d, skip=shift if shift > 0 else None)


def _finite_sector(shifts: tuple[int, ...], roots: tuple[int, ...]) -> tuple[int, ...]:
    """Residue labels (-shift_i) mod r_i, warning when a nonzero shift folds."""
    out = []
    for shift, r in zip(shifts, roots):
        s = (-shift) % r
        if shift % r == 0 and shift != 0:
            warnings.warn(
                f"tangency shift {shift} folds into the untwisted sector at root order {r}",
                SectorFoldWarning,
                stacklevel=3,
            )
        out.append(s)
    return tuple(out)


def _sector_unit(
    ctx: SeriesContext,
    X: TargetSpace,
    arrangement: DivisorArrangement,
    sector: tuple[int, ...],
) -> GradedSeries | None:
    """Unit of the given sector, or None when its support has empty intersection."""
    support = tuple(i for i, s in enumerate(sector) if s)
    if support and not arrangement.intersection_nonempty(X, support):
        return None
    return GradedSeries.term(ctx, 1, sector=sector)


def _validated(
    X: TargetSpace, arrangement: DivisorArrangement, roots: RootData | None
) -> None:
    arrangement.validate_on(X)
    if roots is not None:
        roots.validate_for(arrangement)


# ---------------------------------------------------------------------------
# Finite root orders
# ---------------------------------------------------------------------------


def i_root_nonextended(
    X: TargetSpace,
    arrangement: DivisorArrangement,
    roots: RootData,
    cap: int,
) -> GradedSeries:
    """Non-extended series of the root stack, summed over beta up to the cap.

    Degree zero contributes z times the untwisted unit; a general class
    contributes the one-point slice of the target times the per-divisor
    hypergeometric weights, in the sector labelled by the residues of the
    negated intersection numbers.
    """
    _validated(X, arrangement, roots)
    ctx = X.context(arrangement.n, cap, roots=roots.orders)
    parts = []
    for beta in enumerate_curve_classes(X, cap):
        degs = arrangement.degrees(beta)
        sector = _finite_sector(degs, roots.orders)
        unit = _sector_unit(ctx, X, arrangement, sector)
        if unit is None:
            continue
        term = base_j_function(X, beta, ctx)
        for i, d in enumerate(degs):
            term = term * _root_factor(
                ctx, arrangement.divisors[i].cls(X), d, d, roots.orders[i]
            )
        parts.append(term * unit)
    return series_sum(ctx, parts)


def _contact_vectors(
    slots: list[tuple[int, int]],
    weights: list[Fraction],
    budget: Fraction,
) -> Iterator[dict[tuple[int, int], int]]:
    """All exponent assignments to (divisor, order) slots with bounded
    weighted total.  Each unit of slot s costs weights[s] > 0 of the budget,
    so the enumeration is finite and prunes early."""

    def rec(idx: int, left: Fraction, acc: dict) -> Iterator[dict]:
        if idx == len(slots):
            yield dict(acc)
            return
        e = 0
        while e * weights[idx] <= left:
            if e:
                acc[slots[idx]] = e
            yield from rec(idx + 1, left - e * weights[idx], acc)
            e += 1
        acc.pop(slots[idx], None)

    yield from rec(0, budget, {})


def _extended_terms(
    X: TargetSpace,
    arrangement: DivisorArrangement,
    out_ctx: SeriesContext,
    m: int,
    cap: int,
    roots: tuple[int, ...] | None,
) -> GradedSeries:
    """Shared double sum of the extended series, finite or infinite orders.

    The truncation driver is the output z floor: a contact vector k can only
    reach z-powers below it once the total weight sum(k) outgrows the broad
    degree bound, at which point enumeration stops.  For finite orders every
    contact order must stay below each root order so the bound decreases.
    Terms are assembled without a floor (products with positive z parts may
    climb back above it) and projected to the output truncation at the end.
    """
    if out_ctx.z_floor is None:
        raise ConfigurationError("extended series need a finite z floor to truncate")
    if roots is not None and any(m >= r for r in roots):
        raise ConfigurationError(
            "contact orders up to m must stay below every root order"
        )
    ctx = replace(out_ctx, z_floor=None)
    slots = [(i, j) for i in range(arrangement.n) for j in range(1, m + 1)]
    if roots is None:
        weights = [Fraction(1)] * len(slots)
    else:
        weights = [Fraction(roots[i] - j, roots[i]) for i, j in slots]
    classes = [d.cls(X) for d in arrangement.divisors]
    parts = []
    for beta in enumerate_curve_classes(X, cap):
        degs = arrangement.degrees(beta)
        top = 1 + sum(degs) + arrangement.n
        if any(beta):
            top -= ctx.beta_degree(beta)
        budget = Fraction(top - out_ctx.z_floor)
        j_slice = base_j_function(X, beta, ctx)
        body_cache: dict[tuple[int, ...], GradedSeries | None] = {}

        def weighted_body(shifts: tuple[int, ...]) -> GradedSeries | None:
            """j-slice times all divisor weights times the sector unit."""
            if shifts not in body_cache:
                if roots is None:
                    sector = tuple(-s for s in shifts)
                else:
                    sector = _finite_sector(shifts, roots)
                unit = _sector_unit(ctx, X, arrangement, sector)
                if unit is None:
                    body_cache[shifts] = None
                else:
                    body = j_slice
                    for i in range(arrangement.n):
                        if roots is None:
                            body = body * _limit_factor(
                                ctx, classes[i], degs[i], shifts[i]
                            )
                        else:
                            body = body * _root_factor(
                                ctx, classes[i], degs[i], shifts[i], roots[i]
                            )
                    body_cache[shifts] = body * unit
            return body_cache[shifts]

        for kvec in _contact_vectors(slots, weights, budget):
            total = sum(kvec.values())
            weight = Fraction(1)
            for e in kvec.values():
                for t in range(1, e + 1):
                    weight /= t
            shifts = tuple(
                degs[i] - sum(j * e for (ii, j), e in kvec.items() if ii == i)
                for i in range(arrangement.n)
            )
            body = weighted_body(shifts)
            if body is None or body.is_zero:
                continue
            term = GradedSeries.term(
                ctx, weight, zpow=-total, xexp=xexp_from_dict(kvec)
            )
            parts.append(term * body)
    return series_sum(ctx, parts).in_context(out_ctx)


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
    _validated(X, arrangement, roots)
    if m < 1:
        raise ConfigurationError("at least one contact order is required")
    ctx = X.context(arrangement.n, cap, z_floor=z_floor, roots=roots.orders)
    return _extended_terms(X, arrangement, ctx, m, cap, roots.orders)


# ---------------------------------------------------------------------------
# Infinite root orders
# ---------------------------------------------------------------------------


def i_infinity_nonextended(
    X: TargetSpace, arrangement: DivisorArrangement, cap: int
) -> GradedSeries:
    """Large-order limit of the non-extended series.

    Per divisor the weight is the strict product over 0 < a < d_i, and the
    unit carries the integer tangency labels (-d_1, ..., -d_n), absorbing the
    product of root orders of the finite-order picture.
    """
    _validated(X, arrangement, None)
    ctx = X.context(arrangement.n, cap)
    parts = []
    for beta in enumerate_curve_classes(X, cap):
        degs = arrangement.degrees(beta)
        sector = tuple(-d for d in degs)
        unit = _sector_unit(ctx, X, arrangement, sector)
        if unit is None:
            continue
        term = base_j_function(X, beta, ctx)
        for i, d in enumerate(degs):
            term = term * _limit_factor(ctx, arrangement.divisors[i].cls(X), d, d)
        parts.append(term * unit)
    return series_sum(ctx, parts)


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
    _validated(X, arrangement, None)
    if m < 1:
        raise ConfigurationError("at least one contact order is required")
    ctx = X.context(arrangement.n, cap, z_floor=z_floor)
    return _extended_terms(X, arrangement, ctx, m, cap, None)


def _partitions_with_parts(total: int, max_part: int) -> Iterator[dict[int, int]]:
    """Multiplicity vectors {part: count} with sum(part * count) == total."""

    def rec(remaining: int, part: int, acc: dict) -> Iterator[dict]:
        if remaining == 0:
            yield dict(acc)
            return
        if part == 0:
            return
        for count in range(remaining // part + 1):
            if count:
                acc[part] = count
            yield from rec(remaining - part * count, part - 1, acc)
            acc.pop(part, None)

    yield from rec(total, max_part, {})


def i_infinity_extended_h0(
    X: TargetSpace,
    arrangement: DivisorArrangement,
    m: int,
    cap: int,
) -> GradedSeries:
    """Untwisted part of the extended limit series.

    Contact orders of each term must tile the intersection numbers exactly
    (sum_j j k_{ij} = d_i), so the sum is finite without a z floor and every
    divisor contributes its full ascending product up to d_i.  The bound m
    must reach the largest intersection number in the cap, otherwise the
    maximal-tangency directions would be silently missing.
    """
    _validated(X, arrangement, None)
    if m < 1:
        raise ConfigurationError("at least one contact order is required")
    ctx = X.context(arrangement.n, cap)
    parts = []
    for beta in enumerate_curve_classes(X, cap):
        degs = arrangement.degrees(beta)
        if max(degs, default=0) > m:
            raise ExtendedDataTooSmall(
                f"contact bound m={m} misses tangency {max(degs)} needed at beta={beta}"
            )
        j_slice = base_j_function(X, beta, ctx)
        hyper = GradedSeries.one(ctx)
        for i, d in enumerate(degs):
            hyper = hyper * ascending_product(
                ctx, arrangement.divisors[i].cls(X), 1, d
            )
        base = j_slice * hyper
        per_divisor = [list(_partitions_with_parts(d, m)) for d in degs]

        def spread(i: int, kacc: dict, weight: Fraction, total: int) -> None:
            if i == arrangement.n:
                parts.append(
                    GradedSeries.term(
                        ctx, weight, zpow=-total, xexp=xexp_from_dict(kacc)
                    )
                    * base
                )
                return
            for partition in per_divisor[i]:
                w = weight
                t = total
                for j, e in partition.items():
                    kacc[(i, j)] = e
                    t += e
                    for s in range(1, e + 1):
                        w /= s
                spread(i + 1, kacc, w, t)
                for j in partition:
                    kacc.pop((i, j), None)

        spread(0, {}, Fraction(1), 0)
    return series_sum(ctx, parts)


# ---------------------------------------------------------------------------
# Smooth-divisor relative series and the local series
# ---------------------------------------------------------------------------


def i_relative_smooth(
    X: TargetSpace, arrangement: DivisorArrangement, cap: int
) -> GradedSeries:
    """Relative-pair series for a single smooth divisor.

    Weight prod_{0<a<=d-1}(D + a z) in sector (-d); built from its own
    displayed formula rather than as the n = 1 specialization of the limit
    series, so agreement of the two is a real check.
    """
    _validated(X, arrangement, None)
    if arrangement.n != 1:
        raise ConfigurationError("relative series needs exactly one divisor")
    ctx = X.context(1, cap)
    divisor = arrangement.divisors[0]
    parts = []
    for beta in enumerate_curve_classes(X, cap):
        d = divisor.degree(beta)
        unit = _sector_unit(ctx, X, arrangement, (-d,))
        if unit is None:
            continue
        term = base_j_function(X, beta, ctx) * ascending_product(
            ctx, divisor.cls(X), 1, d - 1
        )
        parts.append(term * unit)
    return series_sum(ctx, parts)


def i_local(
    X: TargetSpace, arrangement: DivisorArrangement, cap: int
) -> GradedSeries:
    """Equivariant series of the sum of dual line bundles of the divisors.

    Weight per divisor: prod_{0<=a<d_i}(-D_i + lam_i - a z), the equivariant
    parameters carried symbolically.  No sectors appear; states live on the
    target itself.
    """
    _validated(X, arrangement, None)
    ctx = X.context(arrangement.n, cap)
    parts = []
    for beta in enumerate_curve_classes(X, cap):
        term = base_j_function(X, beta, ctx)
        for i, d in enumerate(arrangement.degrees(beta)):
            cls = arrangement.divisors[i].cls(X)
            for a in range(d):
                factor = (
                    GradedSeries.from_class(ctx, -cls)
                    + GradedSeries.term(ctx, 1, lam=tuple(
                        1 if t == i else 0 for t in range(arrangement.n)
                    ))
                    + GradedSeries.term(ctx, -a, zpow=1)
                )
                term = term * factor
        parts.append(term)
    return series_sum(ctx, parts)
