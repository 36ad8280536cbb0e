"""Exact sparse series over the nilpotent cohomology ring.

A :class:`GradedSeries` maps each :class:`TermKey` (curve class, z-power,
contact monomial, sector, ring monomial, equivariant exponents) to a nonzero
``Fraction``.  Its :class:`SeriesContext` fixes the ring, the tangency slots,
the curve-class cap and an optional z floor; two series combine only when
their contexts agree, and equal stored maps are equal series within the
truncation.  Keys are checked at the public constructors and nowhere else;
ring operations skip the checks but still apply the cap and the floor.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, gt, mul
from types import MappingProxyType
from typing import Iterable, NamedTuple

from .records import Record, rat
from .ring import AmbientRing, CohClass, ContractError


class TermKey(NamedTuple):
    """Exponent data of one stored term.

    ``xexp`` is a sorted tuple of (divisor index, contact order, exponent)
    triples with positive exponents; ``sector`` holds the tangency labels
    (residues mod the root orders when the context carries roots, plain
    integers otherwise); ``lam`` holds equivariant-parameter exponents.
    """

    beta: tuple[int, ...]
    zpow: int
    xexp: tuple[tuple[int, int, int], ...]
    sector: tuple[int, ...]
    mono: tuple[int, ...]
    lam: tuple[int, ...]


def merge_xexp(
    a: tuple[tuple[int, int, int], ...], b: tuple[tuple[int, int, int], ...]
) -> tuple[tuple[int, int, int], ...]:
    if not a:
        return b
    if not b:
        return a
    acc: dict[tuple[int, int], int] = {(i, j): e for i, j, e in a}
    for i, j, e in b:
        acc[(i, j)] = acc.get((i, j), 0) + e
    return tuple(sorted((i, j, e) for (i, j), e in acc.items() if e))


class SeriesContext(Record):
    """Ring plus truncation data shared by all series of one computation.

    ``beta_weights`` are the anticanonical degrees of the curve-class basis,
    so the cap test is sum(w_k * beta_k) <= beta_cap.  ``z_floor`` is the
    lowest retained z-power (None keeps everything; all series here are
    finite anyway).  ``roots`` marks sector entries as residues mod the given
    orders; None means integer tangency labels.
    """

    ring: AmbientRing
    divisors: int
    beta_weights: tuple[int, ...]
    beta_cap: int | None = None
    z_floor: int | None = None
    roots: tuple[int, ...] | None = None

    def beta_degree(self, beta: tuple[int, ...]) -> int:
        return sum(map(mul, self.beta_weights, beta))

    def keeps(self, key: TermKey) -> bool:
        """Truncation test: dropped keys are never an error, just absent."""
        if self.beta_cap is not None and self.beta_degree(key.beta) > self.beta_cap:
            return False
        if self.z_floor is not None and key.zpow < self.z_floor:
            return False
        return True

    def check_key(self, key: TermKey) -> None:
        if len(key.beta) != len(self.beta_weights):
            raise ContractError("curve-class length mismatch")
        if len(key.sector) != self.divisors or len(key.lam) != self.divisors:
            raise ContractError("sector/equivariant slot mismatch")
        if not self.ring.mono_ok(key.mono):
            raise ContractError(f"monomial {key.mono} exceeds ring caps")
        if any(b < 0 for b in key.beta):
            raise ContractError("curve classes must be effective")
        if any(e < 0 for e in key.lam):
            raise ContractError("equivariant exponents must be nonnegative")

    def zero_key(self) -> TermKey:
        return TermKey(
            beta=(0,) * len(self.beta_weights),
            zpow=0,
            xexp=(),
            sector=(0,) * self.divisors,
            mono=self.ring.zero_mono,
            lam=(0,) * self.divisors,
        )


def print_row(key: TermKey, c: Fraction) -> tuple:
    """A term as its print row (-zpow, mono, xexp, sector, lam, c).

    The keys of one curve class are unique, so its rows sort natively into
    print order, z descending and then the other key fields, and the
    coefficient is never compared.  The extended and h0 builders yield their
    rows in this form directly.
    """
    _, zpow, xexp, sector, mono, lam = key
    return -zpow, mono, xexp, sector, lam, c


def print_key(item: tuple[TermKey, Fraction]) -> tuple:
    """Fixed print order of a series' (key, coefficient) items: beta lex,
    then :func:`print_row`."""
    key, c = item
    return key.beta, print_row(key, c)


_UNSET = object()


class GradedSeries:
    """Immutable sparse series: a finite map TermKey -> Fraction.

    ``terms`` is a read-only view, so a shared series (such as a cached
    target slice) cannot be changed by any holder.  All operations are pure;
    results never store zero coefficients, so two series are equal exactly
    when their stored maps agree.

    The public constructors check every key against the context and drop
    the keys it truncates; ring operations build their results through
    :meth:`_trusted`, which checks nothing.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: SeriesContext, terms: dict[TermKey, Fraction]):
        clean: dict[TermKey, Fraction] = {}
        for key, c in terms.items():
            c = rat(c)
            if not c:
                continue
            ctx.check_key(key)
            if ctx.keeps(key):
                clean[key] = c
        self.ctx = ctx
        self.terms = MappingProxyType(clean)

    @classmethod
    def _trusted(
        cls, ctx: SeriesContext, terms: dict[TermKey, Fraction]
    ) -> GradedSeries:
        """Wrap ``terms`` as is.  Every key must already be valid for ``ctx``
        and kept by it, and every coefficient a nonzero Fraction; the dict
        must not be used by the caller afterwards."""
        out = object.__new__(cls)
        out.ctx = ctx
        out.terms = MappingProxyType(terms)
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ctx: SeriesContext) -> GradedSeries:
        return cls(ctx, {})

    @classmethod
    def term(
        cls,
        ctx: SeriesContext,
        coeff: Fraction | int,
        *,
        beta: tuple[int, ...] | None = None,
        zpow: int = 0,
        xexp: tuple[tuple[int, int, int], ...] = (),
        sector: tuple[int, ...] | None = None,
        mono: tuple[int, ...] | None = None,
        lam: tuple[int, ...] | None = None,
    ) -> GradedSeries:
        base = ctx.zero_key()
        key = TermKey(
            beta=base.beta if beta is None else tuple(beta),
            zpow=zpow,
            xexp=tuple(xexp),
            sector=base.sector if sector is None else tuple(sector),
            mono=base.mono if mono is None else tuple(mono),
            lam=base.lam if lam is None else tuple(lam),
        )
        return cls(ctx, {key: rat(coeff)})

    @classmethod
    def one(cls, ctx: SeriesContext) -> GradedSeries:
        return cls.term(ctx, 1)

    @classmethod
    def z_power(cls, ctx: SeriesContext, p: int) -> GradedSeries:
        return cls.term(ctx, 1, zpow=p)

    @classmethod
    def from_class(cls, ctx: SeriesContext, value: CohClass) -> GradedSeries:
        if value.ring != ctx.ring:
            raise ContractError("class ring differs from series ring")
        base = ctx.zero_key()
        if not ctx.keeps(base):
            return cls._trusted(ctx, {})
        # CohClass already holds only in-ring monomials with nonzero Fractions
        return cls._trusted(
            ctx, {base._replace(mono=m): c for m, c in value.coeffs.items()}
        )

    # -- basic structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def ordered_terms(self) -> list[tuple[TermKey, Fraction]]:
        """The terms in print order (see :func:`print_key`)."""
        return sorted(self.terms.items(), key=print_key)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GradedSeries)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def first_mismatch(self, other: GradedSeries) -> TermKey | None:
        """Smallest key, in sorted order, whose coefficients differ; None if equal."""
        keys = self.terms.keys() | other.terms.keys()
        return min(
            (k for k in keys if self.terms.get(k) != other.terms.get(k)), default=None
        )

    def _require_same_ctx(self, other: GradedSeries) -> None:
        if self.ctx != other.ctx:
            raise ContractError("series have different ring or truncation contexts")

    def in_context(self, ctx: SeriesContext) -> GradedSeries:
        """Reinterpret the stored terms under another compatible context.

        The ring, slot count and curve-class grading must agree; a tighter
        truncation in the new context simply drops terms.
        """
        if (ctx.ring, ctx.divisors, ctx.beta_weights) != (
            self.ctx.ring, self.ctx.divisors, self.ctx.beta_weights
        ):
            raise ContractError("contexts disagree on ring shape")
        # same ring shape, so every key stays valid; only the truncation moves
        keeps = ctx.keeps
        return GradedSeries._trusted(
            ctx, {k: c for k, c in self.terms.items() if keeps(k)}
        )

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: GradedSeries) -> GradedSeries:
        self._require_same_ctx(other)
        out = dict(self.terms)
        _accumulate(out, other.terms.items())
        return GradedSeries._trusted(self.ctx, _nonzero(out))

    def __neg__(self) -> GradedSeries:
        return self.scale(-1)

    def __sub__(self, other: GradedSeries) -> GradedSeries:
        return self + (-other)

    def scale(self, q: Fraction | int) -> GradedSeries:
        q = rat(q)
        if not q:
            return GradedSeries._trusted(self.ctx, {})
        return GradedSeries._trusted(
            self.ctx, {k: c * q for k, c in self.terms.items()}
        )

    def _mul_operand(self) -> list[tuple[TermKey, Fraction, bool, int]]:
        """(key, coefficient, twisted?, anticanonical degree) of each term."""
        degree = self.ctx.beta_degree
        return [(k, c, any(k.sector), degree(k.beta)) for k, c in self.terms.items()]

    def __mul__(self, other: GradedSeries | Fraction | int) -> GradedSeries:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._require_same_ctx(other)
        ctx = self.ctx
        left, right = self._mul_operand(), other._mul_operand()
        if any(t[2] for t in left) and any(t[2] for t in right):
            raise ContractError(
                "product of two twisted-sector terms is outside this engine"
            )
        caps = ctx.ring.caps
        cap = ctx.beta_cap
        floor = ctx.z_floor
        out: dict[TermKey, Fraction] = {}
        get = out.get
        for ka, ca, twisted, da in left:
            beta_a, zpow_a, xexp_a, sector_a, mono_a, lam_a = ka
            for kb, cb, _, db in right:
                if cap is not None and da + db > cap:
                    continue
                beta_b, zpow_b, xexp_b, sector_b, mono_b, lam_b = kb
                zpow = zpow_a + zpow_b
                if floor is not None and zpow < floor:
                    continue
                mono = tuple(map(add, mono_a, mono_b))
                if any(map(gt, mono, caps)):
                    continue
                key = TermKey(
                    tuple(map(add, beta_a, beta_b)),
                    zpow,
                    merge_xexp(xexp_a, xexp_b),
                    sector_a if twisted else sector_b,
                    mono,
                    tuple(map(add, lam_a, lam_b)),
                )
                c = get(key)
                out[key] = ca * cb if c is None else c + ca * cb
        return GradedSeries._trusted(ctx, _nonzero(out))

    __rmul__ = __mul__

    # -- cheap special multiplications --------------------------------------

    def times_class(self, value: CohClass) -> GradedSeries:
        return self * GradedSeries.from_class(self.ctx, value)

    def shift_z(self, p: int) -> GradedSeries:
        floor = self.ctx.z_floor
        out = {}
        for key, c in self.terms.items():
            zpow = key.zpow + p
            if floor is None or zpow >= floor:
                out[key._replace(zpow=zpow)] = c
        return GradedSeries._trusted(self.ctx, out)

    # -- selection ----------------------------------------------------------

    def coefficient(
        self,
        *,
        beta=_UNSET,
        zpow=_UNSET,
        xexp=_UNSET,
        sector=_UNSET,
        mono=_UNSET,
        lam=_UNSET,
    ) -> GradedSeries:
        """Sub-series of keys matching the fixed components, components removed.

        The empty result is the zero series.
        """
        base = self.ctx.zero_key()
        out: dict[TermKey, Fraction] = {}
        for key, c in self.terms.items():
            if beta is not _UNSET and key.beta != tuple(beta):
                continue
            if zpow is not _UNSET and key.zpow != zpow:
                continue
            if xexp is not _UNSET and key.xexp != tuple(xexp):
                continue
            if sector is not _UNSET and key.sector != tuple(sector):
                continue
            if mono is not _UNSET and key.mono != tuple(mono):
                continue
            if lam is not _UNSET and key.lam != tuple(lam):
                continue
            new = TermKey(
                beta=base.beta if beta is not _UNSET else key.beta,
                zpow=0 if zpow is not _UNSET else key.zpow,
                xexp=() if xexp is not _UNSET else key.xexp,
                sector=base.sector if sector is not _UNSET else key.sector,
                mono=base.mono if mono is not _UNSET else key.mono,
                lam=base.lam if lam is not _UNSET else key.lam,
            )
            out[new] = out.get(new, Fraction(0)) + c
        keeps = self.ctx.keeps
        return GradedSeries._trusted(
            self.ctx, {k: c for k, c in out.items() if c and keeps(k)}
        )

    def beta_slice(self, beta: tuple[int, ...]) -> GradedSeries:
        """Terms of one curve class, with the class kept in the keys."""
        beta = tuple(beta)
        return GradedSeries._trusted(
            self.ctx, {k: c for k, c in self.terms.items() if k.beta == beta}
        )

    def scalar(self) -> Fraction:
        """The coefficient of the neutral key (constant term)."""
        return self.terms.get(self.ctx.zero_key(), Fraction(0))

    def betas(self) -> list[tuple[int, ...]]:
        return sorted({k.beta for k in self.terms})

    # -- equivariant parameters ---------------------------------------------

    def lambda_degree(self, index: int) -> int:
        return max((k.lam[index] for k in self.terms), default=0)

    def lambda_coefficient(self, index: int, power: int) -> GradedSeries:
        """Coefficient of lam_index^power, that exponent removed."""
        out = {}
        for key, c in self.terms.items():
            if key.lam[index] != power:
                continue
            lam = list(key.lam)
            lam[index] = 0
            out[key._replace(lam=tuple(lam))] = c
        return GradedSeries._trusted(self.ctx, out)

    def without_lambda(self) -> GradedSeries:
        """Drop every key carrying an equivariant parameter (set all lam_i = 0)."""
        return GradedSeries._trusted(
            self.ctx, {k: c for k, c in self.terms.items() if not any(k.lam)}
        )

    def __repr__(self) -> str:
        if self.is_zero:
            return "GradedSeries(0)"
        from heapq import nsmallest

        bits = [f"{c}*{key}" for key, c in nsmallest(8, self.terms.items(), key=print_key)]
        more = "" if len(self.terms) <= 8 else f" ... ({len(self.terms)} terms)"
        return "GradedSeries(" + "; ".join(bits) + more + ")"


def _accumulate(
    acc: dict[TermKey, Fraction], items: Iterable[tuple[TermKey, Fraction]]
) -> None:
    """Add each (key, coefficient) into ``acc``; sums may reach zero."""
    get = acc.get
    for key, c in items:
        s = get(key)
        acc[key] = c if s is None else s + c


def _nonzero(acc: dict[TermKey, Fraction]) -> dict[TermKey, Fraction]:
    return {k: c for k, c in acc.items() if c}


def series_sum(ctx: SeriesContext, parts: Iterable[GradedSeries]) -> GradedSeries:
    acc: dict[TermKey, Fraction] = {}
    for part in parts:
        if part.ctx != ctx:
            raise ContractError("series have different ring or truncation contexts")
        _accumulate(acc, part.terms.items())
    return GradedSeries._trusted(ctx, _nonzero(acc))
