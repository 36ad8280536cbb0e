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
from the same chains: :func:`extended_rows` builds one body chain per tuple
of net shifts that can reach the z floor and attaches the contact monomials
to its cells, one curve class at a time.

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
from math import factorial, lcm, prod
from typing import Iterable, Iterator, NamedTuple

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
    :data:`MAX_CONTACT_COMBINATIONS`, so it is refused before any body."""


# Most contact combinations an extended build may form, as counted by
# _combination_count.  Every benchmark job counts at most 6,188.  A
# `--format records` child holds one class at a time, so its peak follows
# the largest class (2-vCPU Xeon, CPython 3.11).  On the README job (line +
# conic, roots 7, 11, m 6) the infinite-order series counts 251,940 at cap
# 5 and writes its 312,458 records in 3.0 s at a peak of 69 MB, and
# 1,939,938 at cap 7, writing 2,721,572 records in 24 s at 337 MB; it
# counts 10,816,624 at cap 9, where degree zero alone keeps 2,704,156
# terms.  The finite-order series counts 418,390 at cap 2 and writes its
# 221,078 records in 2.8 s at 64 MB.  On P^1 x P^1 with both diagonals the
# infinite-order series counts 1,889,550 at cap 9 and writes 3,929,548
# records in 44 s at 102 MB.
MAX_CONTACT_COMBINATIONS = 2_000_000


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


def _outside_stacklevel() -> int:
    """The ``warnings`` stacklevel that points a warning issued by the
    calling function at the nearest frame outside this module: the line
    that called the public builder, at whatever depth the warning arose."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals.get("__name__") == __name__:
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


class _Contact(NamedTuple):
    """One divisor's contact monomial prod_j x_{ij}^{e_j}."""

    total: int  # sum_j e_j: the z-power the monomial divides out
    weight: int  # prod_j e_j!, the monomial's coefficient is 1 / weight
    xexp: tuple[tuple[int, int, int], ...]


def _contact_vectors(
    i: int, costs: list[int], budget: int
) -> dict[int, list[_Contact]]:
    """Contact monomials of divisor i whose cost stays within the budget,
    where order j costs costs[j - 1] > 0 per unit.

    Grouped by the reduction sum_j j e_j they take off the intersection
    number, each group sorted by total.  Within a group the cost is the
    total less a constant, so the first monomial is also the cheapest.
    """
    groups: dict[int, list[_Contact]] = {}

    def rec(j0: int, left: int, reduction: int, total: int, denom: int, xexp: tuple):
        # one call per monomial: record it, then extend it by one more
        # order j >= j0 with a positive exponent
        groups.setdefault(reduction, []).append(_Contact(total, denom, xexp))
        for j in range(j0, len(costs) + 1):
            cost = costs[j - 1]
            e, weight = 1, denom
            while e * cost <= left:
                weight *= e
                with_e = xexp + ((i, j, e),)
                rec(j + 1, left - e * cost, reduction + j * e, total + e, weight, with_e)
                e += 1

    rec(1, budget, 0, 0, 1, ())
    for group in groups.values():
        group.sort(key=lambda c: c.total)
    return groups


def _combination_count(
    costs: list[list[int]], budget: int, steps: int
) -> tuple[int, int] | None:
    """(count, steps taken): how many choices of one contact monomial per
    divisor have summed cost at most ``budget``, where divisor i's order j
    costs costs[i][j - 1] > 0 per unit.  That is the most combinations
    :func:`_combinations` can form over all shift tuples of one class.

    Monomials are counted by cost, never listed, since one divisor alone can
    have millions within the budget.  Each loop step adds at least one
    monomial or combination, or ends a row, so a count of C takes at most
    3 n C steps; None means more than ``steps`` would be needed.
    """
    if budget < 0:
        return 0, 0
    taken = 0
    joint = {0: 1}  # choices for the divisors so far, by summed cost
    for divisor_costs in costs:
        counts = {0: 1}  # this divisor's monomials by cost
        for cost in divisor_costs:
            grown = dict(counts)
            for c, k in counts.items():
                c += cost
                while c <= budget:
                    grown[c] = grown.get(c, 0) + k
                    c += cost
                    taken += 1
            counts = grown
            if taken > steps:
                return None
        ordered = sorted(counts.items())
        pairs: dict[int, int] = {}
        for a, ka in joint.items():
            for c, k in ordered:
                taken += 1
                if a + c > budget:
                    break
                pairs[a + c] = pairs.get(a + c, 0) + ka * k
            if taken > steps:
                return None
        joint = pairs
    return sum(joint.values()), taken


def _check_contact_budget(costs: list[list[int]], budgets: list[int]) -> None:
    """Refuse, with the count, an extended build whose classes, at the given
    contact budgets, would form more than :data:`MAX_CONTACT_COMBINATIONS`
    contact combinations in total."""
    estimate = 0
    # a count up to the limit takes at most this many steps
    steps = 3 * len(costs) * MAX_CONTACT_COMBINATIONS
    limit = f"the limit of {MAX_CONTACT_COMBINATIONS:,}; lower the cap or m"
    for budget in budgets:
        counted = _combination_count(costs, budget, steps)
        if counted is None:
            raise ExtendedBudgetError(
                f"the extended series would form more contact combinations than {limit}"
            )
        estimate += counted[0]
        steps -= counted[1]
    if estimate > MAX_CONTACT_COMBINATIONS:
        raise ExtendedBudgetError(
            f"the extended series would form up to {estimate:,} contact "
            f"combinations, over {limit}"
        )


def _combinations(
    groups: list[list[_Contact]], max_total: int
) -> Iterator[tuple[int, int, tuple[tuple[int, int, int], ...]]]:
    """(total, weight, xexp) of each choice of one contact monomial per group
    whose summed total is at most ``max_total``; the weight is the product
    of the monomials' integer weights.  Every choice that passes also stays
    within the contact budget of :func:`extended_rows`."""
    n = len(groups)
    rest_total = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        rest_total[i] = rest_total[i + 1] + groups[i][0].total

    def rec(i: int, total: int, weight: int, xexp: tuple):
        if i == n:
            yield total, weight, xexp
            return
        for c in groups[i]:
            if total + c.total + rest_total[i + 1] > max_total:
                break
            yield from rec(i + 1, total + c.total, weight * c.weight, xexp + c.xexp)

    yield from rec(0, 0, 1, ())


def extended_rows(
    X: TargetSpace,
    arrangement: DivisorArrangement,
    m: int,
    cap: int,
    z_floor: int | None = -1,
    roots: RootData | None = None,
) -> tuple[SeriesContext, Iterator[tuple[tuple[int, ...], list[tuple]]]]:
    """(ctx, classes): the extended series of the root stack at the orders
    ``roots``, or its infinite-order limit (``roots`` None), with contact
    orders 1..m, as (beta, rows) per curve class in lex order, the class's
    terms as :func:`~rootstack_gw.algebra.print_row` rows in print order.
    Every refusal comes first, so the iterator never raises.

    A contact vector k multiplies the body of its net shifts s_i = d_i -
    sum_j j k_ij (:func:`_body_chain`, in the sector of the negated shifts)
    by prod x^k / (prod k! z^|k|).  One exact bound keeps the sum finite: a
    vector whose total |k| exceeds the highest z-power of its body minus
    the floor has no term at or above the floor.  The body's z-degree, the
    target slice's 1 - deg(beta) plus each divisor's :func:`_weight_degree`,
    is its top z-power at infinite order and at least that at finite order.

    The contact budget is that bound spread over the monomials.  Contact
    order j of divisor i weighs w_ij = (r_i - j)/r_i (1 at infinite order;
    every contact order must stay below each root order so the weights are
    positive), and a monomial costs sum_j w_ij k_ij = T_i - (d_i - s_i)/r_i,
    with T_i = sum_j k_ij.  Since _weight_degree(d, s, r) <= d - s/r (at
    most d at infinite order), T_i less its weight degree is at least the
    cost less d_i w_i1, so a vector that reaches the floor costs at most
    1 - deg(beta) - floor + sum_i d_i w_i1 in total.  The combinations
    within the budget are counted per class before anything is built; past
    :data:`MAX_CONTACT_COMBINATIONS` in total the build is refused with
    :class:`ExtendedBudgetError`.

    Each divisor's monomials within that budget are enumerated once per
    budget, grouped by shift and sorted by total.  A shift tuple whose
    groups' smallest totals already sum past its body degree minus the floor
    is skipped before its sector is labelled or its body built, so
    :class:`SectorFoldWarning` names only shifts that can reach the floor.
    The rest are combined while the totals stay within the built body's top
    z-power minus the floor; every combination reached keeps at least its
    body's top term and stays within the budget.  The contact monomial is
    attached by moving each body term to z-power zpow - |k|, its
    coefficient the body cell's integer numerator over the chain's
    denominator times prod k!, reduced once per distinct pair in the class.
    """
    _validated(X, arrangement, roots)
    if m < 1:
        raise ConfigurationError("at least one contact order is required")
    floor = z_floor
    if floor is None:
        raise ConfigurationError("extended series need a finite z floor to truncate")
    roots = None if roots is None else roots.orders  # from here on, the orders
    if roots is not None and any(m >= r for r in roots):
        raise ConfigurationError(
            "contact orders up to m must stay below every root order"
        )
    ctx = X.context(arrangement.n, cap, z_floor=floor, roots=roots)
    n = arrangement.n
    # costs are the weights w_ij in units of 1/scale, so budgets stay
    # integral; costs[i][0] is w_i1
    if roots is None:
        scale, costs = 1, [[1] * m for _ in range(n)]
    else:
        scale = lcm(*roots)
        costs = [[(r - j) * (scale // r) for j in range(1, m + 1)] for r in roots]
    budgets = {}  # by class: (reach, budget)
    for beta in enumerate_curve_classes(X, cap):
        # the target slice's top z-power less the floor
        reach = 1 - ctx.beta_degree(beta) - floor
        degs = arrangement.degrees(beta)
        # a divisor's cost exceeds T_i less its weight degree by at most d_i w_i1
        spread = sum(d * c[0] for d, c in zip(degs, costs))
        budgets[beta] = reach, reach * scale + spread
    _check_contact_budget(costs, [budget for _, budget in budgets.values()])

    def classes():
        contact_cache: dict[tuple[int, int], dict[int, list[_Contact]]] = {}
        meets: dict[tuple[bool, ...], bool] = {}  # by the sector's support
        no_lam = (0,) * n
        for beta, (reach, budget) in budgets.items():
            degs = arrangement.degrees(beta)
            per_divisor = []
            # per divisor and shift: its weight's z-degree less the group's
            # smallest contact total
            slack = []
            for i in range(n):
                if (i, budget) not in contact_cache:
                    contact_cache[(i, budget)] = _contact_vectors(i, costs[i], budget)
                by_shift = {degs[i] - red: g for red, g in contact_cache[(i, budget)].items()}
                r = None if roots is None else roots[i]
                per_divisor.append(by_shift)
                slack.append(
                    {
                        s: _weight_degree(degs[i], s, r) - group[0].total
                        for s, group in by_shift.items()
                    }
                )
            reduced: dict[tuple[int, int], Fraction] = {}  # (numerator, denominator)
            rows = []
            for shifts in product(*per_divisor):
                if reach + sum(slack[i][s] for i, s in enumerate(shifts)) < 0:
                    continue
                if roots is None:
                    sector = tuple(-s for s in shifts)
                else:
                    sector = _finite_sector(shifts, roots)
                support = tuple(map(bool, sector))
                if support not in meets:
                    meets[support] = _sector_meets(X, arrangement, sector)
                if not meets[support]:
                    continue
                chain = _body_chain(X, arrangement, beta, shifts, roots)
                cells = chain.top_down()
                if not cells:
                    continue
                groups = [per_divisor[i][s] for i, s in enumerate(shifts)]
                den, max_total = chain.den, cells[0][0] - floor
                for total, weight, xexp in _combinations(groups, max_total):
                    denom = den * weight
                    for zpow, mono, c in cells:
                        # the moved term's z-power is zpow - total
                        negz = total - zpow
                        if negz > -floor:
                            break
                        q = reduced.get((c, denom))
                        if q is None:
                            q = reduced[(c, denom)] = Fraction(c, denom)
                        rows.append((negz, mono, xexp, sector, no_lam, q))
            rows.sort()
            yield beta, rows

    return ctx, classes()


def _rows_series(
    ctx: SeriesContext, classes: Iterable[tuple[tuple[int, ...], list[tuple]]]
) -> GradedSeries:
    """The series of ``classes``, rows as :func:`extended_rows` gives them:
    within the cap, at or above the floor, every coefficient nonzero."""
    out: dict[TermKey, Fraction] = {}
    for beta, rows in classes:
        for negz, mono, xexp, sector, lam, c in rows:
            out[TermKey(beta, -negz, xexp, sector, mono, lam)] = c
    return GradedSeries._trusted(ctx, out)


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


def i_infinity_extended_h0(
    X: TargetSpace, arrangement: DivisorArrangement, m: int, cap: int
) -> GradedSeries:
    """Untwisted part of the extended limit series: the sum of :func:`h0_slice`
    over beta up to the cap, so m must reach every intersection number."""
    _validated(X, arrangement, None)
    if m < 1:
        raise ConfigurationError("at least one contact order is required")
    ctx = X.context(arrangement.n, cap)
    betas = enumerate_curve_classes(X, cap)
    return series_sum(ctx, [h0_slice(X, arrangement, m, b, ctx) for b in betas])


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
