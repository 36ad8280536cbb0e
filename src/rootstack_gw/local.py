"""The equivariant local series of the dual direct-sum bundle, in closed form.

Divisor i's weight prod_{0<=a<d}(lam_i - D_i - a z) is a falling factorial
in lam_i - D_i, so its lam_i^k part is sum_j s(d, k+j) C(k+j, k) (-D_i)^j
z^(d-k-j), with s the signed Stirling numbers of the first kind; (-D_i)^j
vanishes past the ring's top degree.  So each vector of lam exponents labels
one lam-free chain: the target slice times one such polynomial per divisor.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import mul

from .algebra import GradedSeries, SeriesContext, TermKey, _Chain
from .targets import DivisorArrangement, TargetSpace, _j_chain


def _stirling(d: int) -> tuple[int, ...]:
    """s(d, m) for m = 0..d: prod_{0<=a<d}(x - a) = sum_m s(d, m) x^m."""
    row = (1,)
    for n in range(d):
        # s(n+1, m) = s(n, m-1) - n s(n, m)
        row = tuple(a - n * b for a, b in zip((0,) + row, row + (0,)))
    return row


def _lambda_part(d: int, top: int) -> list[tuple[int, ...]]:
    """Divisor weight prod_{0<=a<d}(lam - D - a z) by powers of lam: per
    k = 0..d, the coefficients s(d, k+j) C(k+j, k) of (-D)^j z^(d-k-j) in
    its lam^k part, for j up to the ring's top degree ``top``."""
    s = _stirling(d)
    return [
        tuple(s[k + j] * comb(k + j, k) for j in range(min(d - k, top) + 1)) for k in range(d + 1)
    ]


def local_slice(
    X: TargetSpace, arrangement: DivisorArrangement, beta: tuple[int, ...], ctx: SeriesContext
) -> GradedSeries:
    """Class-beta terms of the local series, no sectors: the lam vectors
    walked depth first, divisor by divisor, each prefix's chain shared and a
    vanishing one ending its branch.  A leaf's cells are its terms, so
    ``ctx`` must keep all of them: beta within its cap and no z floor."""
    target, untwisted = _j_chain(X, beta), (0,) * arrangement.n
    weights = [
        (tuple(-c for c in divisor.coeffs), _lambda_part(d, target.layout.top))
        for divisor, d in zip(arrangement.divisors, arrangement.degrees(beta))
    ]
    out: dict = {}
    stack = [(target, ())]
    while stack:
        chain, lam = stack.pop()
        if len(lam) == len(weights):
            degree, den = chain.degree, chain.den
            for (mono, w), c in zip(chain.layout.cells, chain.num):
                if c:
                    out[TermKey(beta, degree - w, (), untwisted, mono, lam)] = Fraction(c, den)
            continue
        negated, parts = weights[len(lam)]
        powers = [chain]
        for _ in parts[0][1:]:  # chain times (-D)^j, j up to the lam^0 part's reach
            powers.append(powers[-1].times_linear(negated, 0))
        cells = list(zip(*(p.num for p in powers)))
        for k, coeffs in enumerate(parts):
            num = tuple(sum(map(mul, coeffs, cell)) for cell in cells)
            if any(num):
                degree = chain.degree + len(parts) - 1 - k
                stack.append((_Chain(chain.layout, degree, num, chain.den), lam + (k,)))
    return GradedSeries._trusted(ctx, out)
