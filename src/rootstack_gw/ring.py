"""The ambient cohomology ring of a product of projective spaces.

:class:`AmbientRing` is the monomial-truncation model of the ring and
:class:`CohClass` a rational combination of its monomials.  The generators
are nilpotent, so every geometric expansion over them is finite, and every
coefficient is an exact ``fractions.Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from .records import Record, rat


class ContractError(ValueError):
    """Operands disagree on ring or truncation context."""


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

