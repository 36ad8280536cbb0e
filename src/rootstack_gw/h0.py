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
(:func:`~rootstack_gw.mirror.contact_one_counts`).  They and the invariant
rows read one enumerator: :func:`_tilings` walks a divisor's tilings in a
window of totals, lazily in lex order, and :func:`_joined` joins a class's.
The period pipeline reads the class bodies without this module.
:mod:`rootstack_gw.ifunctions` provides :func:`i_infinity_extended_h0`
too, importing this module when the name is first looked up.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import factorial, inf
from typing import Callable, Iterable, Iterator

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


def _tilings(i, d, m, lo=0, hi=inf, j=1, xexp=(), total=0, weight=1, text="") -> Iterator[tuple]:
    """(xexp, total, weight, text) of each contact monomial prod_j
    x_{ij}^{e_j} of divisor i with sum_j j e_j = d, parts j..m and total
    sum_j e_j in [lo, hi], after the given one, walked lazily in lex order:
    its coefficient is 1 / weight, weight = prod_j e_j!, and text is its
    record text, as report.fmt_contact writes it ("-" for the empty one)."""
    if not d and lo <= 0 <= hi:
        yield xexp, total, weight, text or "-"
    # no branch whose total cannot land in the window is entered: the least
    # part p, taken e times, leaves r = d - p e to ceil(r/m)..r//(p+1) parts
    hi = min(hi, d)
    for part in range(j, min(m, d // max(lo, 1)) + 1):
        most = (hi * m - d) // (m - part) if part < m else hi
        for e in range(max(1, lo * (part + 1) - d), min(d // part, most) + 1):
            r = d - part * e
            if -(-r // m) <= r // (part + 1):
                head = (*xexp, (i, part, e)), total + e, weight * factorial(e)
                here = f"{text},{i + 1}:{part}^{e}" if text else f"{i + 1}:{part}^{e}"
                yield from _tilings(i, r, m, lo - e, hi - e, part + 1, *head, here)


def _joined(degs: list[int], m: int) -> Callable[..., Iterable[tuple]]:
    """The function (lo=0, hi=inf) -> a class's contact monomials of total
    in [lo, hi] as :func:`_tilings` gives them, one tiling per d_i joined in
    lex order (no tiling of d_i is a prefix of another).  A lone divisor's
    tilings are walked, never listed; joined divisors' are listed once, the
    last one's also by total, each passed over when the rest cannot fit."""
    met = [(i, d) for i, d in enumerate(degs) if d] or [(0, 0)]
    if len(met) == 1:
        return partial(_tilings, *met[0], m)
    *listed, last = [list(_tilings(i, d, m)) for i, d in met]
    by_total = {}
    for tiling in last:
        by_total.setdefault(tiling[1], []).append(tiling)
    # the least and the greatest total of the divisors from k on
    least = [sum(-(-d // m) for _, d in met[k:]) for k in range(len(met))]
    most = [sum(d for _, d in met[k:]) for k in range(len(met))]

    def tilings(lo=0, hi=inf, k=0):
        if k == len(listed):
            return by_total.get(lo, ()) if lo == hi else [t for t in last if lo <= t[1] <= hi]
        low, high = lo - most[k + 1], hi - least[k + 1]  # this divisor's totals
        return (
            (xexp + tail, total + t, weight * w, f"{text},{rest}")
            for xexp, total, weight, text in listed[k]
            if low <= total <= high
            for tail, t, w, rest in tilings(lo - total, hi - total, k + 1)
        )

    return tilings


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


def _class_rows(
    X: TargetSpace, arrangement: DivisorArrangement, m: int, beta: tuple[int, ...]
) -> Iterator[tuple]:
    """The class-beta terms of the series off the cells of its body, as
    :func:`~rootstack_gw.series.print_row` rows in print order, each with
    its record text after the class.

    A tiling of total t moves the body cell of z-power p to -zpow = t - p,
    so the rows at -zpow = s are, cell by cell in monomial order, the
    tilings of total s + p in lex order, read off the class's one join
    (:func:`_joined`) by that exact total.  Each cell's quotient by a
    weight is reduced and written once, and so are each cell's fields.
    """
    body = _class_body_chain(X, arrangement, beta)
    cells = sorted(
        (mono, body.degree - sum(mono), Fraction(c, body.den)) for mono, c in body.cells().items()
    )
    if not cells:
        return
    degs = arrangement.degrees(beta)
    # a lone divisor's tilings of a total are walked once, kept while later z-powers read them
    tilings, walked, lone = _joined(degs, m), {}, sum(map(bool, degs)) < 2
    untwisted = (0,) * len(degs)
    zeros = "\t" + fmt_ints(untwisted) + "\t"
    texts = [f"{zeros}{fmt_ints(mono)}{zeros}" for mono, _, _ in cells]
    quotients = [{} for _ in cells]  # by weight: the reduced quotient and its text
    zpows = [p for _, p, _ in cells]
    for negz in range(-max(zpows), sum(degs) - min(zpows) + 1):
        walked.pop(negz + min(zpows) - 1, None)  # read by no later z-power
        ztext = f"{-negz}\t"
        for (mono, zpow, c), cell, quotient in zip(cells, texts, quotients):
            total = negz + zpow
            if lone and total not in walked:
                walked[total] = list(tilings(total, total))
            for xexp, _, weight, text in walked[total] if lone else tilings(total, total):
                hit = quotient.get(weight)
                if hit is None:
                    q = c / weight
                    hit = quotient[weight] = q, f"{q.numerator}/{q.denominator}"
                row_text = f"{ztext}{text}{cell}{hit[1]}"
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
