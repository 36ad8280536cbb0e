"""The dense kernel for closed-form slices.

A closed-form slice (one curve class, one sector, a product of linear
factors) is built as a :class:`_Chain`: integer numerators over one common
denominator, in the manner of FLINT's ``fmpq_poly``.  A chain is reduced
once, when :meth:`_Chain.series` turns it into a
:class:`~rootstack_gw.series.GradedSeries` at the slice boundary; the cap,
the z floor and the sector apply there too.  The extended builder reads a
body's cells unreduced (:meth:`_Chain.cells`) and multiplies the common
denominator by each contact monomial's integer weight prod k!, so each
term is reduced once, as one ``Fraction``, and one reduction serves every
term with the same numerator and denominator.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .ring import ContractError
from .series import GradedSeries, SeriesContext, TermKey


class NotInvertibleError(ValueError):
    """The factor has no z part, so it has no geometric-series inverse here."""


class _Layout(NamedTuple):
    """Cell numbering of a chain, every ring monomial within ``caps``: a
    generator moves a cell to a larger index, so one pass in index order
    sees a cell's sources first."""

    caps: tuple[int, ...]
    cells: tuple[tuple[tuple[int, ...], int], ...]  # mono, |mono|
    gen_moves: tuple[tuple[tuple[int, int], ...], ...]  # per generator k: (cell * P_k, cell)
    below: tuple[tuple[tuple[int, int], ...], ...]  # per cell: (k, source) with source * P_k
    top: int  # the largest monomial degree; a degree-one class to top + 1 vanishes


@functools.lru_cache(maxsize=64)
def _layout(caps: tuple[int, ...]) -> _Layout:
    cells = [(mono, sum(mono)) for mono in product(*(range(c + 1) for c in caps))]
    index = {mono: i for i, (mono, _) in enumerate(cells)}
    gen_moves: list[list[tuple[int, int]]] = [[] for _ in caps]
    below: list[list[tuple[int, int]]] = [[] for _ in cells]
    for src, (mono, _) in enumerate(cells):
        for k, cap in enumerate(caps):
            if mono[k] < cap:
                dst = index[mono[:k] + (mono[k] + 1,) + mono[k + 1 :]]
                gen_moves[k].append((dst, src))
                below[dst].append((k, src))
    return _Layout(
        caps, tuple(cells), tuple(map(tuple, gen_moves)), tuple(map(tuple, below)), sum(caps)
    )


class _Chain(NamedTuple):
    """A product of linear factors at one curve class, held densely.

    Every factor, (D + a z) or (D + a z)^-1 with D a degree-one class
    sum_k c_k P_k, is homogeneous of degree +1 or -1 in the generators and
    z.  So a chain of total degree ``degree`` needs no z index: the cell of
    mono holds the coefficient of mono * z^(degree - |mono|), as the integer
    ``num[cell]`` over the common denominator ``den``.  Nothing is reduced
    until the cells become terms.  A chain is a tuple, so a cached one
    cannot change.
    """

    layout: _Layout
    degree: int
    num: tuple[int, ...]
    den: int

    @staticmethod
    def z_power(caps: tuple[int, ...], p: int) -> _Chain:
        """The chain z^p over the ring with exponent caps ``caps``."""
        layout = _layout(tuple(caps))
        return _Chain(layout, p, (1,) + (0,) * (len(layout.cells) - 1), 1)

    def times_linear(self, coeffs: tuple[int, ...], a: int) -> _Chain:
        """This chain times (D + a z)."""
        layout, num = self.layout, self.num
        out = [a * x for x in num]
        for moves, c in zip(layout.gen_moves, coeffs):
            if c:
                for dst, src in moves:
                    out[dst] += c * num[src]
        return _Chain(layout, self.degree + 1, tuple(out), self.den)

    def over_linear(self, coeffs: tuple[int, ...], k: int) -> _Chain:
        """This chain divided by (D + k z).

        With T the top monomial degree, (D + k z) sum_{j<=T} (-D)^j (k z)^(T-j)
        = (k z)^(T+1).  So the quotient is w / (den k^(T+1)), where
        k w + D w = k^(T+1) num, solved cell by cell in index order.  The
        division by k there is exact: w at a cell whose monomial has degree
        e is a multiple of k^(T-e).
        """
        if not k:
            raise NotInvertibleError("factor has no z part; only z-linear factors invert")
        layout, num = self.layout, self.num
        head = k**layout.top
        w: list[int] = []
        for x, sources in zip(num, layout.below):
            acc = 0
            for g, src in sources:
                acc += coeffs[g] * w[src]
            w.append(head * x - acc // k)
        return _Chain(layout, self.degree - 1, tuple(w), self.den * k * head)

    def scaled(self, p: int, q: int = 1) -> _Chain:
        """This chain times p / q, for nonzero integers p and q."""
        return _Chain(self.layout, self.degree, tuple(p * x for x in self.num), self.den * q)

    def zero_cell(self) -> Fraction:
        """The first cell, reduced: the coefficient of z^degree alone."""
        return Fraction(self.num[0], self.den)

    def cells(self) -> dict[tuple[int, ...], int]:
        """The numerator of each nonzero cell, by monomial: the cell of mono
        holds mono z^(degree - |mono|).

        A cell's coefficient is its numerator over ``den``, not reduced: a
        caller that scales the cells before they become series terms (the
        extended builder's contact weights) reduces each product once.
        """
        return {mono: c for (mono, _), c in zip(self.layout.cells, self.num) if c}

    def series(
        self, ctx: SeriesContext, beta: tuple[int, ...], sector: tuple[int, ...] | None = None
    ) -> GradedSeries:
        """The chain as the class-``beta`` terms of ``ctx`` in ``sector`` (the
        untwisted one by default), no equivariant exponents, each coefficient
        reduced once.

        The cap and the z floor of ``ctx`` apply here, to the finished
        product only.
        """
        layout, n, beta = self.layout, ctx.divisors, tuple(beta)
        untwisted = (0,) * n
        sector = untwisted if sector is None else tuple(sector)
        if (
            ctx.ring.caps != layout.caps
            or len(beta) != len(ctx.beta_weights)
            or any(b < 0 for b in beta)
            or len(sector) != n
        ):
            raise ContractError("chain does not fit the series context")
        if ctx.beta_cap is not None and ctx.beta_degree(beta) > ctx.beta_cap:
            return GradedSeries._trusted(ctx, {})
        floor = ctx.z_floor
        degree, den = self.degree, self.den
        out: dict[TermKey, Fraction] = {}
        for (mono, weight), c in zip(layout.cells, self.num):
            if c and (floor is None or degree - weight >= floor):
                out[TermKey(beta, degree - weight, (), sector, mono, untwisted)] = Fraction(c, den)
        return GradedSeries._trusted(ctx, out)


def ascending_product(
    chain: _Chain, coeffs: tuple[int, ...], lo: int, hi: int, skip: int | None = None
) -> _Chain:
    """``chain`` times prod_{lo <= a <= hi} (D + a z), optionally omitting one
    integer step, where D is the class with coefficients ``coeffs``."""
    for a in range(lo, hi + 1):
        if a != skip:
            chain = chain.times_linear(coeffs, a)
    return chain
