"""Sparse reference routines for the linear factors of the series.

:func:`invert_z_linear` and :func:`exact_divide_linear` work on
:class:`~rootstack_gw.series.GradedSeries` terms, independently of the dense
kernel :class:`~rootstack_gw.chain._Chain`.  No series builder calls them,
since every slice and every extended body is a chain, and no command loads
this module; the tests use them to check the chains.
:mod:`rootstack_gw.algebra` provides both names, and
:class:`DivisibilityError`, when they are first looked up.
"""

from __future__ import annotations

from fractions import Fraction

from .chain import NotInvertibleError
from .records import rat
from .ring import CohClass
from .series import GradedSeries, SeriesContext, TermKey, _accumulate, _nonzero


class DivisibilityError(ValueError):
    """Exact division failed: the claimed polynomial identity does not hold."""


def invert_z_linear(
    ctx: SeriesContext, zcoeff: Fraction | int, cls: CohClass
) -> GradedSeries:
    """Inverse of the linear factor (zcoeff*z + cls) as a finite expansion.

    Nilpotency of ``cls`` makes the geometric series

        (c z)^{-1} sum_{k>=0} (-cls / (c z))^k

    terminate.  A vanishing z-coefficient would require inverting a ring
    element, which this engine does not do.
    """
    c = rat(zcoeff)
    if not c:
        raise NotInvertibleError("factor has no z part; only z-linear factors invert")
    out: dict[TermKey, Fraction] = {}
    power = CohClass.one(ctx.ring)
    sign = Fraction(1)
    k = 0
    while not power.is_zero:
        piece = GradedSeries.from_class(ctx, power.scale(sign / c ** (k + 1)))
        _accumulate(out, piece.shift_z(-k - 1).terms.items())
        power = power * cls
        sign = -sign
        k += 1
    return GradedSeries._trusted(ctx, _nonzero(out))


def exact_divide_linear(num: GradedSeries, cls: CohClass, index: int) -> GradedSeries:
    """Exact quotient num / (lam_index + cls).

    Synthetic division in the equivariant parameter, top degree down.  A
    nonzero remainder means the claimed divisibility is false and raises
    DivisibilityError: that signals a wrong identity, never a rounding issue.
    """
    if num.is_zero:
        return num
    top = num.lambda_degree(index)
    coeffs = [num.lambda_coefficient(index, k) for k in range(top + 1)]
    cls_series = GradedSeries.from_class(num.ctx, cls)
    quotient: list[GradedSeries] = [GradedSeries.zero(num.ctx)] * (top + 1)
    carry = GradedSeries.zero(num.ctx)
    for k in range(top, 0, -1):
        q = coeffs[k] - carry
        quotient[k - 1] = q
        carry = cls_series * q
    remainder = coeffs[0] - carry
    if not remainder.is_zero:
        raise DivisibilityError(
            f"series is not divisible by (lam_{index} + {cls!r}); "
            f"remainder has {len(remainder)} terms"
        )
    out: dict[TermKey, Fraction] = {}
    for k, q in enumerate(quotient):
        shifted = []
        for key, c in q.terms.items():
            lam = list(key.lam)
            lam[index] += k
            shifted.append((key._replace(lam=tuple(lam)), c))
        _accumulate(out, shifted)
    return GradedSeries._trusted(num.ctx, _nonzero(out))
