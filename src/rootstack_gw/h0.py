"""The untwisted extended limit series: one class body, every contact tiling.

Its terms of class beta are the body of :func:`h0_body`, the target slice
times prod_i prod_{0<a<=d_i}(D_i + a z), with every contact tiling of the
intersection numbers attached: a tiling k with sum_j j k_ij = d_i moves
each body term down by |k| and weighs it 1 / prod k!.  The contact
monomials tile the intersection numbers exactly, so the series is finite
without a z floor.

The ``infinity-extended-h0`` series of the command line is written from
:func:`h0_rows`, each class's rows read straight off its body in print
order; :func:`i_infinity_extended_h0` sums the class slices into one
series, and :func:`attach_tilings` names the terms of a refused mirror map.
The body itself is :func:`~rootstack_gw.targets._class_body_chain`, which
the period pipeline reads without this module.
:mod:`rootstack_gw.ifunctions` provides :func:`i_infinity_extended_h0` too,
importing this module when the name is first looked up.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial, prod
from typing import Iterator

from .algebra import GradedSeries, SeriesContext, TermKey, series_sum
from .ifunctions import ExtendedDataTooSmall, _validated
from .records import fmt_ints
from .targets import (
    ConfigurationError,
    DivisorArrangement,
    TargetSpace,
    _class_body_chain,
    enumerate_curve_classes,
)


def _tilings(i: int, d: int, m: int, max_total: int) -> list[tuple[tuple, int, int, str]]:
    """(xexp, total, weight, text) of each contact monomial prod_j
    x_{ij}^{e_j} of divisor i with sum_j j e_j = d, every j <= m and total =
    sum_j e_j at most max_total, where the monomial's coefficient is
    1 / weight, with weight = prod_j e_j!, and its record text is ``text``
    ("" for the empty monomial)."""
    out = []

    def rec(remaining: int, j: int, xexp: tuple, total: int, weight: int):
        if remaining == 0:
            # each x_{ij}^e as report.fmt_contact writes it
            out.append((xexp, total, weight, ",".join(f"{i + 1}:{j}^{e}" for i, j, e in xexp)))
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
    return _class_body_chain(X, arrangement, beta).series(ctx, beta)


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


def _checked_classes(
    X: TargetSpace, arrangement: DivisorArrangement, m: int, cap: int
) -> list[tuple[int, ...]]:
    """The classes up to the cap, in lex order, once every refusal is made:
    the target and the arrangement, m >= 1 and m against every class."""
    _validated(X, arrangement, None)
    if m < 1:
        raise ConfigurationError("at least one contact order is required")
    betas = enumerate_curve_classes(X, cap)
    for beta in betas:
        check_contact_bound(arrangement, m, beta)
    return betas


def _tiling_products(degs, m) -> Iterator[tuple]:
    """(xexp, text, total) of each choice of one tiling of d_i per divisor
    (:func:`_tilings`), in lex order of the joined contact monomials xexp,
    with its record text and its total: no tiling of d_i is a prefix of
    another, so the product of each divisor's sorted tilings keeps lex
    order."""
    for tiling in product(*(sorted(_tilings(i, d, m, d)) for i, d in enumerate(degs))):
        text = ",".join([t[3] for t in tiling if t[0]]) or "-"
        yield sum((t[0] for t in tiling), ()), text, sum(t[1] for t in tiling)


def _class_rows(
    X: TargetSpace,
    arrangement: DivisorArrangement,
    m: int,
    beta: tuple[int, ...],
    ctx: SeriesContext,
) -> Iterator[tuple]:
    """The terms of :func:`h0_slice` at beta as
    :func:`~rootstack_gw.series.print_row` rows, in print order, each with
    its record text after the class.

    A tiling of total t moves the body cell of z-power p to -zpow = t - p,
    so the rows at -zpow = s are, cell by cell in monomial order, the
    tilings of total s + p in lex order.  Those come from each divisor's
    sorted tilings in turn, the last divisor's looked up by total: no
    tiling of d_i is a prefix of another, so joining them keeps lex order.
    Each cell's quotient by a weight is reduced and written once, and each
    divisor's tilings and each cell's fields are written once.
    """
    body = h0_body(X, arrangement, beta, ctx).terms
    cells = sorted((key.mono, key.zpow, c) for key, c in body.items())
    if not cells:
        return
    degs = arrangement.degrees(beta)
    tilings = [sorted(_tilings(i, d, m, d)) for i, d in enumerate(degs)]
    # the least and the greatest total of the divisors from i on
    least = [sum(min(t[1] for t in ts) for ts in tilings[i:]) for i in range(len(degs) + 1)]
    most = [sum(degs[i:]) for i in range(len(degs) + 1)]
    last = len(degs) - 1
    by_total = {}  # the last divisor's (xexp, text, weight) by total
    for xexp, total, weight, text in tilings[last]:
        by_total.setdefault(total, []).append((xexp, text, weight))

    def joined(i: int, total: int):
        if i == last:
            return by_total.get(total, ())
        return (
            (xexp + tail, f"{text},{rest}" if text and rest else text or rest, weight * w)
            for xexp, t, weight, text in tilings[i]
            if least[i + 1] <= total - t <= most[i + 1]
            for tail, rest, w in joined(i + 1, total - t)
        )

    untwisted = (0,) * len(degs)
    zeros = "\t" + fmt_ints(untwisted) + "\t"
    texts = [f"{zeros}{fmt_ints(mono)}{zeros}" for mono, _, _ in cells]
    quotients = [{} for _ in cells]  # by weight: the reduced quotient and its text
    zpows = [p for _, p, _ in cells]
    for negz in range(least[0] - max(zpows), most[0] - min(zpows) + 1):
        ztext = f"{-negz}\t"
        for (mono, zpow, c), cell, quotient in zip(cells, texts, quotients):
            total = negz + zpow
            if least[0] <= total <= most[0]:
                for xexp, text, weight in joined(0, total):
                    hit = quotient.get(weight)
                    if hit is None:
                        q = c / weight
                        hit = quotient[weight] = q, f"{q.numerator}/{q.denominator}"
                    row_text = f"{ztext}{text or '-'}{cell}{hit[1]}"
                    yield negz, mono, xexp, untwisted, untwisted, hit[0], row_text


def h0_rows(
    X: TargetSpace, arrangement: DivisorArrangement, m: int, cap: int
) -> Iterator[tuple[tuple[int, ...], Iterator[tuple]]]:
    """The untwisted extended limit series as (beta, rows) per curve class
    in lex order, the rows of :func:`_class_rows`, to be read before the
    next class.  Every refusal comes first, so the iterator never raises."""
    betas = _checked_classes(X, arrangement, m, cap)
    ctx = X.context(arrangement.n, cap)
    return ((beta, _class_rows(X, arrangement, m, beta, ctx)) for beta in betas)


def i_infinity_extended_h0(
    X: TargetSpace, arrangement: DivisorArrangement, m: int, cap: int
) -> GradedSeries:
    """Untwisted part of the extended limit series: the sum of :func:`h0_slice`
    over beta up to the cap, so m must reach every intersection number."""
    betas = _checked_classes(X, arrangement, m, cap)
    ctx = X.context(arrangement.n, cap)
    return series_sum(ctx, [h0_slice(X, arrangement, m, b, ctx) for b in betas])
