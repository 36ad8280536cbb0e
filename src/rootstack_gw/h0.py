"""The untwisted extended limit series: one class body, every contact tiling.

Its terms of class beta are the cells of the class body
:func:`~rootstack_gw.targets._class_body_chain`, the target slice times
prod_i prod_{0<a<=d_i}(D_i + a z), with every contact tiling of the
intersection numbers attached: a tiling k with sum_j j k_ij = d_i moves
each body term down by |k| and weighs it 1 / prod k!.  The contact
monomials tile the intersection numbers exactly, so the series is finite
without a z floor.

:func:`h0_rows` is its one construction, each class's rows read straight
off its body in print order: the ``infinity-extended-h0`` series of the
command line writes them, :func:`i_infinity_extended_h0` folds them into
one series, and a refused mirror map names its terms at z^0 and above
(:func:`~rootstack_gw.mirror.contact_one_counts`).  The period pipeline
reads the class bodies without this module.
:mod:`rootstack_gw.ifunctions` provides :func:`i_infinity_extended_h0`
too, importing this module when the name is first looked up.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial
from typing import Iterator

from .algebra import GradedSeries
from .ifunctions import ExtendedDataTooSmall, _validated
from .records import fmt_ints
from .targets import (
    ConfigurationError,
    DivisorArrangement,
    TargetSpace,
    _class_body_chain,
    enumerate_curve_classes,
)


def _tilings(i: int, d: int, m: int) -> list[tuple[tuple, int, int, str]]:
    """(xexp, total, weight, text) of each contact monomial prod_j
    x_{ij}^{e_j} of divisor i with sum_j j e_j = d and every j <= m, where
    total = sum_j e_j, the monomial's coefficient is 1 / weight, with
    weight = prod_j e_j!, and its record text is ``text`` ("" for the empty
    monomial)."""
    out = []

    def rec(remaining: int, j: int, xexp: tuple, total: int, weight: int):
        if remaining == 0:
            # each x_{ij}^e as report.fmt_contact writes it
            out.append((xexp, total, weight, ",".join(f"{i + 1}:{j}^{e}" for i, j, e in xexp)))
            return
        if j == 0:
            return
        for e in range(remaining // j + 1):
            with_e = ((i, j, e),) + xexp if e else xexp
            rec(remaining - j * e, j - 1, with_e, total + e, weight * factorial(e))

    rec(d, m, (), 0, 1)
    return out


def _checked_classes(
    X: TargetSpace, arrangement: DivisorArrangement, m: int, cap: int
) -> list[tuple[int, ...]]:
    """The classes up to the cap, in lex order, once every refusal is made:
    the target and the arrangement, m >= 1, and ExtendedDataTooSmall when m
    misses an intersection number of some class, since the
    maximal-tangency directions would otherwise be silently missing."""
    _validated(X, arrangement, None)
    if m < 1:
        raise ConfigurationError("at least one contact order is required")
    betas = enumerate_curve_classes(X, cap)
    for beta in betas:
        top = max(arrangement.degrees(beta), default=0)
        if top > m:
            raise ExtendedDataTooSmall(
                f"contact bound m={m} misses tangency {top} needed at beta={beta}"
            )
    return betas


def _tiling_products(degs, m) -> Iterator[tuple]:
    """(xexp, text, total) of each choice of one tiling of d_i per divisor
    (:func:`_tilings`), in lex order of the joined contact monomials xexp,
    with its record text and its total: no tiling of d_i is a prefix of
    another, so the product of each divisor's sorted tilings keeps lex
    order."""
    for tiling in product(*(sorted(_tilings(i, d, m)) for i, d in enumerate(degs))):
        text = ",".join([t[3] for t in tiling if t[0]]) or "-"
        yield sum((t[0] for t in tiling), ()), text, sum(t[1] for t in tiling)


def _class_rows(
    X: TargetSpace,
    arrangement: DivisorArrangement,
    m: int,
    beta: tuple[int, ...],
) -> Iterator[tuple]:
    """The class-beta terms of the series, read off the cells of the class
    body, as :func:`~rootstack_gw.series.print_row` rows, in print order,
    each with its record text after the class.

    A tiling of total t moves the body cell of z-power p to -zpow = t - p,
    so the rows at -zpow = s are, cell by cell in monomial order, the
    tilings of total s + p in lex order.  Those come from each divisor's
    sorted tilings in turn, the last divisor's looked up by total: no
    tiling of d_i is a prefix of another, so joining them keeps lex order.
    Each cell's quotient by a weight is reduced and written once, and each
    divisor's tilings and each cell's fields are written once.
    """
    body = _class_body_chain(X, arrangement, beta)
    cells = sorted(
        (mono, body.degree - sum(mono), Fraction(c, body.den)) for mono, c in body.cells().items()
    )
    if not cells:
        return
    degs = arrangement.degrees(beta)
    tilings = [sorted(_tilings(i, d, m)) for i, d in enumerate(degs)]
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
    return ((beta, _class_rows(X, arrangement, m, beta)) for beta in betas)


def i_infinity_extended_h0(
    X: TargetSpace, arrangement: DivisorArrangement, m: int, cap: int
) -> GradedSeries:
    """Untwisted part of the extended limit series up to the cap: the rows
    of :func:`h0_rows` as one series, so m must reach every intersection
    number."""
    from .extended import _rows_series

    return _rows_series(X.context(arrangement.n, cap), h0_rows(X, arrangement, m, cap))
