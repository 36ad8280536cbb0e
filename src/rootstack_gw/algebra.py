"""Exact sparse arithmetic for multigraded series over a nilpotent cohomology ring.

Every generating series in this package is a finite rational linear
combination of terms

    Q^beta * z^p * prod_{i,j} x_{ij}^{e_{ij}} * prod_i lam_i^{l_i} * mono * [sector]

where ``mono`` is a monomial in the hyperplane generators of a product of
projective spaces and ``sector`` is an integer tangency vector tagging the
component of the state space the term lives in.  The generators are
nilpotent, so every geometric expansion is finite and all coefficients stay
exact ``fractions.Fraction`` values.  There is no floating point anywhere.

Truncation is part of a series' identity: a context fixes the ring, the
number of tangency slots, the curve-class cap (measured in anticanonical
degree) and an optional lowest retained z-power.  Two series combine only
when their contexts agree, and structural equality of the stored maps is
mathematical equality within the truncation because zero coefficients are
never stored.

Keys are validated where a series is built from outside data, at the public
constructors (``GradedSeries(ctx, terms)``, ``term``, ``one``, ``z_power``,
``zero``, ``from_class``, ``in_context``), and nowhere else.  Ring
operations only combine keys that are already valid, so their results skip
the checks; an operation that can move a key across the truncation (a
product, a z shift, a coefficient extraction) still applies the cap and
the floor.

Where Fractions are reduced.  A ``GradedSeries`` product reduces every
coefficient it forms.  The closed-form slices (one curve class, one sector,
a product of linear factors) are instead built by the dense kernel
:class:`_Chain`: integer numerators over one common denominator, in the
manner of FLINT's ``fmpq_poly``.  A chain is reduced once, when
:meth:`_Chain.series` turns it into a ``GradedSeries`` at the slice
boundary; the cap, the z floor and the sector label apply there too.  The
extended builder reads a body's cells unreduced (:meth:`_Chain.cells`)
and multiplies the common denominator by each contact monomial's integer
weight prod k!, so each term's coefficient is reduced once, as one
``Fraction``, and one reduction serves every term with the same numerator
and denominator.

:func:`invert_z_linear` and :func:`exact_divide_linear` are sparse
reference routines: no series builder calls them, since every slice and
every extended body is a chain, and the tests use them to check the chains.

``Record`` and ``rat`` are defined in :mod:`rootstack_gw.records` and
re-exported here.  Every job compiles this module, the largest, and that
compile sets the job's peak memory, so what it does not need lives
elsewhere.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import product
from operator import add, gt, mul
from types import MappingProxyType
from typing import Iterable, Iterator, NamedTuple

from .records import Record, rat


class ContractError(ValueError):
    """Operands disagree on ring or truncation context."""


class NotInvertibleError(ValueError):
    """The factor has no z part, so it has no geometric-series inverse here."""


class DivisibilityError(ValueError):
    """Exact division failed: the claimed polynomial identity does not hold."""


# ---------------------------------------------------------------------------
# The ambient cohomology ring
# ---------------------------------------------------------------------------


class AmbientRing(Record):
    """Monomial-truncation model of H^*(prod_k P^{n_k}).

    One degree-two generator per projective factor, with exponent cap
    ``caps[k] = n_k``; any monomial exceeding a cap is zero.  Integration is
    the coefficient of the top monomial, so Poincare pairing of complementary
    monomials is 1.
    """

    caps: tuple[int, ...]
    names: tuple[str, ...]

    @staticmethod
    def for_product(caps: Iterable[int]) -> AmbientRing:
        caps = tuple(int(c) for c in caps)
        if len(caps) == 1:
            names = ("P",)
        else:
            names = tuple(f"P{k + 1}" for k in range(len(caps)))
        return AmbientRing(caps, names)

    @property
    def rank(self) -> int:
        return len(self.caps)

    @property
    def zero_mono(self) -> tuple[int, ...]:
        return (0,) * len(self.caps)

    @property
    def top_mono(self) -> tuple[int, ...]:
        return self.caps

    def mono_ok(self, mono: tuple[int, ...]) -> bool:
        return len(mono) == len(self.caps) and all(
            0 <= e <= c for e, c in zip(mono, self.caps)
        )

    def mul_mono(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...] | None:
        """Product of monomials, or None once any exponent passes its cap."""
        out = tuple(ea + eb for ea, eb in zip(a, b))
        if any(e > c for e, c in zip(out, self.caps)):
            return None
        return out

    def dual_mono(self, mono: tuple[int, ...]) -> tuple[int, ...]:
        """Poincare-complementary monomial."""
        return tuple(c - e for e, c in zip(mono, self.caps))

    def render_mono(self, mono: tuple[int, ...]) -> str:
        parts = []
        for name, e in zip(self.names, mono):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"


class CohClass:
    """A cohomology class: finite rational combination of ring monomials."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: AmbientRing, coeffs: dict[tuple[int, ...], Fraction]):
        self.ring = ring
        clean: dict[tuple[int, ...], Fraction] = {}
        for mono, c in coeffs.items():
            if not ring.mono_ok(mono):
                raise ValueError(f"monomial {mono} outside ring caps {ring.caps}")
            c = rat(c)
            if c:
                clean[mono] = c
        self.coeffs = clean

    @staticmethod
    def zero(ring: AmbientRing) -> CohClass:
        return CohClass(ring, {})

    @staticmethod
    def one(ring: AmbientRing) -> CohClass:
        return CohClass(ring, {ring.zero_mono: Fraction(1)})

    @staticmethod
    def generator(ring: AmbientRing, k: int) -> CohClass:
        mono = tuple(1 if i == k else 0 for i in range(ring.rank))
        return CohClass(ring, {mono: Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def items(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        return iter(sorted(self.coeffs.items()))

    def __add__(self, other: CohClass) -> CohClass:
        if self.ring != other.ring:
            raise ContractError("classes live in different rings")
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            out[mono] = out.get(mono, Fraction(0)) + c
        return CohClass(self.ring, out)

    def __neg__(self) -> CohClass:
        return self.scale(Fraction(-1))

    def __sub__(self, other: CohClass) -> CohClass:
        return self + (-other)

    def scale(self, q: Fraction | int) -> CohClass:
        q = rat(q)
        return CohClass(self.ring, {m: c * q for m, c in self.coeffs.items()})

    def __mul__(self, other: CohClass) -> CohClass:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if self.ring != other.ring:
            raise ContractError("classes live in different rings")
        out: dict[tuple[int, ...], Fraction] = {}
        for ma, ca in self.coeffs.items():
            for mb, cb in other.coeffs.items():
                mono = self.ring.mul_mono(ma, mb)
                if mono is None:
                    continue
                out[mono] = out.get(mono, Fraction(0)) + ca * cb
        return CohClass(self.ring, out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CohClass)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        parts = [
            f"{c}*{self.ring.render_mono(m)}" for m, c in sorted(self.coeffs.items())
        ]
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# Series terms and contexts
# ---------------------------------------------------------------------------


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
    coefficient is never compared.  The extended builders yield their rows
    in this form directly.
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

    def class_rows(self) -> Iterator[tuple[tuple[int, ...], list[tuple]]]:
        """(beta, rows) of each curve class in lex order, the class's terms
        as :func:`print_row` rows sorted into print order.  Only the class
        being walked is ever held as rows."""
        classes: dict[tuple[int, ...], list[TermKey]] = {}
        for key in self.terms:
            classes.setdefault(key.beta, []).append(key)
        terms = self.terms
        for beta in sorted(classes):
            rows = [print_row(key, terms[key]) for key in classes.pop(beta)]
            rows.sort()
            yield beta, rows

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
        if (
            ctx.ring != self.ctx.ring
            or ctx.divisors != self.ctx.divisors
            or ctx.beta_weights != self.ctx.beta_weights
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

        bits = []
        for key, c in nsmallest(8, self.terms.items(), key=print_key):
            bits.append(f"{c}*{key}")
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


# ---------------------------------------------------------------------------
# Inversion and exact division
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# The dense kernel for closed-form slices
# ---------------------------------------------------------------------------


class _Layout(NamedTuple):
    """Cell numbering of a chain: every ring monomial within ``caps`` times
    every lam exponent vector within ``lam_caps``, lam varying fastest.

    Multiplying a cell by a generator or a lam parameter always moves it to
    a larger index, so one pass in index order sees a cell's sources first.
    """

    caps: tuple[int, ...]
    lam_caps: tuple[int, ...]
    cells: tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]  # mono, lam, |mono|+|lam|
    gen_moves: tuple[tuple[tuple[int, int], ...], ...]  # per generator k: (cell * P_k, cell)
    lam_moves: tuple[tuple[tuple[int, int], ...], ...]  # per lam slot i: (cell * lam_i, cell)
    below: tuple[tuple[tuple[int, int], ...], ...]  # per cell: (k, source) with source * P_k
    top: int  # the largest monomial degree; a degree-one class to top + 1 vanishes


@functools.lru_cache(maxsize=64)
def _layout(caps: tuple[int, ...], lam_caps: tuple[int, ...]) -> _Layout:
    cells = [
        (mono, lam, sum(mono) + sum(lam))
        for mono in product(*(range(c + 1) for c in caps))
        for lam in product(*(range(c + 1) for c in lam_caps))
    ]
    index = {(mono, lam): i for i, (mono, lam, _) in enumerate(cells)}
    gen_moves: list[list[tuple[int, int]]] = [[] for _ in caps]
    lam_moves: list[list[tuple[int, int]]] = [[] for _ in lam_caps]
    below: list[list[tuple[int, int]]] = [[] for _ in cells]
    for src, (mono, lam, _) in enumerate(cells):
        for k, cap in enumerate(caps):
            if mono[k] < cap:
                up = mono[:k] + (mono[k] + 1,) + mono[k + 1 :]
                dst = index[(up, lam)]
                gen_moves[k].append((dst, src))
                below[dst].append((k, src))
        for i, cap in enumerate(lam_caps):
            if lam[i] < cap:
                up = lam[:i] + (lam[i] + 1,) + lam[i + 1 :]
                lam_moves[i].append((index[(mono, up)], src))
    return _Layout(
        caps,
        lam_caps,
        tuple(cells),
        tuple(map(tuple, gen_moves)),
        tuple(map(tuple, lam_moves)),
        tuple(map(tuple, below)),
        sum(caps),
    )


class _Chain(NamedTuple):
    """A product of linear factors at one curve class, held densely.

    Every factor, (D + a z), (D + a z)^-1 or (-D + lam_i - a z) with D a
    degree-one class sum_k c_k P_k, is homogeneous of degree +1 or -1 in the
    generators, z and lam.  So a chain of total degree ``degree`` needs no z
    index: cell (mono, lam) holds the coefficient of
    mono * lam * z^(degree - |mono| - |lam|), as the integer ``num[cell]``
    over the common denominator ``den``.  Nothing is reduced until
    :meth:`series`.  A chain is a tuple, so a cached one cannot change.
    """

    layout: _Layout
    degree: int
    num: tuple[int, ...]
    den: int

    @staticmethod
    def z_power(caps: tuple[int, ...], p: int) -> _Chain:
        """The chain z^p over the ring with exponent caps ``caps``, no lam slots."""
        layout = _layout(tuple(caps), ())
        return _Chain(layout, p, (1,) + (0,) * (len(layout.cells) - 1), 1)

    def with_lam(self, lam_caps: tuple[int, ...]) -> _Chain:
        """This lam-free chain, in a layout with lam slots up to ``lam_caps``."""
        layout = _layout(self.layout.caps, tuple(lam_caps))
        num = [0] * len(layout.cells)
        num[:: len(layout.cells) // len(self.num)] = self.num
        return _Chain(layout, self.degree, tuple(num), self.den)

    def times_linear(
        self, coeffs: tuple[int, ...], a: int, lam: int | None = None
    ) -> _Chain:
        """This chain times (D + a z), plus lam_``lam`` when it is given.

        ``lam`` slots must have room: a chain meant for k such factors of
        slot i needs ``lam_caps[i] >= k``.
        """
        layout, num = self.layout, self.num
        out = [a * x for x in num]
        for moves, c in zip(layout.gen_moves, coeffs):
            if c:
                for dst, src in moves:
                    out[dst] += c * num[src]
        if lam is not None:
            for dst, src in layout.lam_moves[lam]:
                out[dst] += num[src]
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

    def cells(self) -> dict[tuple[int, ...], int]:
        """The numerator of each nonzero cell of a chain without lam slots,
        by monomial: the cell of mono holds mono z^(degree - |mono|).

        A cell's coefficient is its numerator over ``den``, not reduced: a
        caller that scales the cells before they become series terms (the
        extended builder's contact weights) reduces each product once.
        """
        return {mono: c for (mono, _, _), c in zip(self.layout.cells, self.num) if c}

    def series(
        self,
        ctx: SeriesContext,
        beta: tuple[int, ...],
        sector: tuple[int, ...] | None = None,
    ) -> GradedSeries:
        """The chain as the class-``beta`` terms of ``ctx`` in ``sector``
        (the untwisted one by default), each coefficient reduced once.

        The cap and the z floor of ``ctx`` apply here, to the finished
        product only.
        """
        layout = self.layout
        n = ctx.divisors
        beta = tuple(beta)
        sector = (0,) * n if sector is None else tuple(sector)
        if (
            ctx.ring.caps != layout.caps
            or len(beta) != len(ctx.beta_weights)
            or any(b < 0 for b in beta)
            or len(sector) != n
            or (layout.lam_caps and len(layout.lam_caps) != n)
        ):
            raise ContractError("chain does not fit the series context")
        if ctx.beta_cap is not None and ctx.beta_degree(beta) > ctx.beta_cap:
            return GradedSeries._trusted(ctx, {})
        floor = ctx.z_floor
        no_lam = (0,) * n
        degree, den = self.degree, self.den
        out: dict[TermKey, Fraction] = {}
        for (mono, lam, weight), c in zip(layout.cells, self.num):
            if c and (floor is None or degree - weight >= floor):
                key = TermKey(beta, degree - weight, (), sector, mono, lam or no_lam)
                out[key] = Fraction(c, den)
        return GradedSeries._trusted(ctx, out)
