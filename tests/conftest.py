from __future__ import annotations

import random
from fractions import Fraction
from itertools import groupby

import pytest

from rootstack_gw import Divisor, DivisorArrangement, TargetSpace, i_infinity_extended
from rootstack_gw.algebra import GradedSeries, SeriesContext, TermKey, print_row


@pytest.fixture
def p2() -> TargetSpace:
    return TargetSpace((2,))


@pytest.fixture
def p1p1() -> TargetSpace:
    return TargetSpace((1, 1))


@pytest.fixture
def line_conic() -> DivisorArrangement:
    return DivisorArrangement((Divisor("L", (1,)), Divisor("C", (2,))))


@pytest.fixture
def conic_only() -> DivisorArrangement:
    return DivisorArrangement((Divisor("C", (2,)),))


@pytest.fixture
def cubic_only() -> DivisorArrangement:
    return DivisorArrangement((Divisor("E", (3,)),))


@pytest.fixture
def two_diagonals() -> DivisorArrangement:
    return DivisorArrangement((Divisor("L1", (1, 1)), Divisor("L2", (1, 1))))


def random_series(
    rng: random.Random, ctx: SeriesContext, max_terms: int = 4
) -> GradedSeries:
    """Small random series in the given context, exact rational coefficients."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        beta = tuple(rng.randint(0, 1) for _ in ctx.beta_weights)
        mono = tuple(rng.randint(0, c) for c in ctx.ring.caps)
        key = TermKey(
            beta=beta,
            zpow=rng.randint(-3, 3),
            xexp=tuple(
                [(rng.randint(0, max(0, ctx.divisors - 1)), rng.randint(1, 2), 1)]
                if ctx.divisors and rng.random() < 0.3
                else []
            ),
            sector=(0,) * ctx.divisors,
            mono=mono,
            lam=tuple(
                rng.randint(0, 1) if rng.random() < 0.3 else 0
                for _ in range(ctx.divisors)
            ),
        )
        terms[key] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return GradedSeries(ctx, terms)


def untwisted_extended(X, arrangement, m: int, cap: int, floor: int) -> GradedSeries:
    """The sector-0 terms of the extended limit series at the z floor,
    built apart from :mod:`rootstack_gw.h0`: the oracle for the untwisted
    extended series at the floor and above."""
    series = i_infinity_extended(X, arrangement, m, cap, z_floor=floor)
    return GradedSeries(series.ctx, {k: c for k, c in series.terms.items() if not any(k.sector)})


def print_classes(series: GradedSeries) -> list[tuple[tuple[int, ...], list[tuple]]]:
    """(beta, rows) of each class of a whole series that has terms: its
    ``ordered_terms()`` grouped by class, each term as its print row and
    then its record text after the class, as :func:`term_record` writes
    it.  The oracle for the per-class rows the command line writes."""
    return [
        (beta, [(*print_row(key, c), term_record(*key, c).split("\t", 2)[2]) for key, c in group])
        for beta, group in groupby(series.ordered_terms(), key=lambda item: item[0].beta)
    ]


# The records layout of README, written out here apart from the package's
# own formatting code: fields joined by tabs; an integer tuple as its
# entries joined by commas, "-" when empty; a contact monomial as i:j^e for
# each factor x_{ij}^e, joined by commas, "-" when there is none; a
# rational as numerator/denominator.


def _ints(values) -> str:
    return ",".join(str(v) for v in values) or "-"


def _contacts(xexp) -> str:
    return ",".join(f"{i + 1}:{j}^{e}" for i, j, e in xexp) or "-"


def term_record(beta, zpow, xexp, sector, mono, lam, c: Fraction) -> str:
    fields = (_ints(beta), str(zpow), _contacts(xexp), _ints(sector), _ints(mono), _ints(lam))
    return "\t".join(("term", *fields, f"{c.numerator}/{c.denominator}"))


def invariant_record(beta, xexp, insertion, psi, sector, value: Fraction) -> str:
    fields = (_ints(beta), _contacts(xexp), _ints(insertion), str(psi), _ints(sector))
    return "\t".join(("invariant", *fields, f"{value.numerator}/{value.denominator}"))


def flagged_record(key: TermKey) -> str:
    beta, zpow, xexp, sector, mono, lam = key
    fields = (_ints(beta), str(zpow), _contacts(xexp), _ints(sector), _ints(mono), _ints(lam))
    return "\t".join(("flagged", *fields))
