"""Constant-term periods of Laurent polynomials: the independent oracle of
the period pipeline.

The classical period of a Laurent polynomial f is the sequence of constant
terms of its powers.  For a mirror superpotential it equals the regularized
quantum period of the Fano target (Coates–Corti–Galkin–Kasprzyk), so it
cross-checks :func:`~rootstack_gw.periods.compare_periods` with no shared
code.  It imports only :mod:`rootstack_gw.records`, so the
``laurent-period`` command loads nothing of the job machinery.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .records import Record, rat


class PeriodSequence(Record):
    """Coefficients c_0 .. c_cap of a period series, exact rationals."""

    kind: str
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.kind not in {"quantum", "regularized", "classical", "laurent"}:
            raise ValueError(f"unknown period kind {self.kind!r}")
        if self.kind == "quantum" and len(self.coeffs) >= 2:
            if self.coeffs[0] != 1 or self.coeffs[1] != 0:
                raise ValueError("quantum period must start 1, 0")

    @property
    def cap(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, m: int) -> Fraction:
        return self.coeffs[m]


# Laurent polynomial text is read as tokens: an integer ("n" in the shape
# string), a variable with its optional exponent ("v"), or one symbol.  The
# patterns stay strings until a parse: ``re`` compiles and caches them then.
_LAURENT_TOKEN = r"\s*(?:(\d+)|([a-zA-Z]\w*)(?:\s*\^\s*(-?)\s*(\d+))?|(\S))"
_LAURENT_TERM = r"[nv](?:\*[nv]|/(?:[nv]|\([nv](?:\*[nv])*\)))*"
_LAURENT_SHAPE = rf"[+-]?{_LAURENT_TERM}(?:[+-]{_LAURENT_TERM})*"


class LaurentPolynomial(Record):
    """Finitely supported map from integer exponent vectors to rationals."""

    variables: tuple[str, ...]
    terms: tuple[tuple[tuple[int, ...], Fraction], ...]

    @staticmethod
    def from_dict(
        variables: tuple[str, ...], data: dict[tuple[int, ...], Fraction]
    ) -> LaurentPolynomial:
        clean = {k: rat(v) for k, v in data.items() if rat(v)}
        return LaurentPolynomial(
            tuple(variables), tuple(sorted(clean.items()))
        )

    @staticmethod
    def parse(text: str) -> LaurentPolynomial:
        """Parse sums of monomial terms like ``x + y + 1/(x*y)`` or
        ``2*x^2*y^-1 - 3/2``.

        Terms are joined by ``+`` or ``-``, the first one optionally signed.
        A term is factors joined by ``*`` or ``/``, read left to right; a
        factor is an integer or a variable with an optional exponent ``^int``
        or ``^-int``, and a divisor may also be a parenthesized product of
        factors.  Anything else raises ValueError.
        """
        tokens = re.findall(_LAURENT_TOKEN, text)
        shape = "".join("n" if t[0] else "v" if t[1] else t[4] for t in tokens)
        if not re.fullmatch(_LAURENT_SHAPE, shape):
            raise ValueError(f"cannot parse Laurent polynomial {text!r}")
        raw: list[tuple[Fraction, dict[str, int]]] = []
        orientation, group = 1, False
        for number, name, minus, power, symbol in tokens:
            if symbol in ("+", "-") or not raw:
                raw.append((Fraction(-1 if symbol == "-" else 1), {}))
            coeff, exps = raw[-1]
            if symbol:
                group = symbol == "(" or (group and symbol != ")")
                orientation = -1 if symbol == "/" or group else 1
            elif number:
                if orientation < 0 and not int(number):
                    raise ValueError(f"division by zero in {text!r}")
                raw[-1] = (coeff * Fraction(int(number)) ** orientation, exps)
            else:
                exponent = int(minus + (power or "1"))
                exps[name] = exps.get(name, 0) + orientation * exponent
        names = sorted({name for _, exps in raw for name in exps})
        data: dict[tuple[int, ...], Fraction] = {}
        for coeff, exps in raw:
            key = tuple(exps.get(name, 0) for name in names)
            data[key] = data.get(key, Fraction(0)) + coeff
        return LaurentPolynomial.from_dict(tuple(names), data)

    def constant_term(self) -> Fraction:
        width = len(self.variables)
        zero = (0,) * width
        for key, c in self.terms:
            if key == zero:
                return c
        return Fraction(0)

    def __mul__(self, other: LaurentPolynomial) -> LaurentPolynomial:
        if self.variables != other.variables:
            raise ValueError("Laurent polynomials use different variables")
        out: dict[tuple[int, ...], Fraction] = {}
        for ka, ca in self.terms:
            for kb, cb in other.terms:
                key = tuple(a + b for a, b in zip(ka, kb))
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return LaurentPolynomial.from_dict(self.variables, out)


def laurent_classical_period(f: LaurentPolynomial, cap: int) -> PeriodSequence:
    """Constant terms of the powers of f, from half powers.

    With L the lcm of f's coefficient denominators, only the powers
    P_a = (L*f)^a with a <= ceil(cap/2) are expanded, with integer
    coefficients; the constant term of f^d is

        sum_k P_floor(d/2)[k] * P_ceil(d/2)[-k] / L^d.

    An exponent vector is one integer, its entries the digits of a balanced
    base 2*cap*reach + 1, where reach is the largest |exponent| of f: no
    entry of a half power exceeds cap*reach in size, so adding vectors is
    adding their codes and negating one negates its code.  Only the two
    half powers the next degree pairs are held.
    """
    scale = lcm(*(c.denominator for _, c in f.terms))
    reach = max((abs(e) for key, _ in f.terms for e in key), default=0)
    base = 2 * cap * reach + 1
    terms = [
        (sum(e * base**i for i, e in enumerate(key)), c.numerator * (scale // c.denominator))
        for key, c in f.terms
    ]
    coeffs = [Fraction(1)]
    low = high = {0: 1}  # P_floor(d/2) and P_ceil(d/2)
    for d in range(1, cap + 1):
        if d % 2:
            low, high = high, _times(high, terms)
        else:
            low = high
        get = high.get
        constant = sum(c * get(-k, 0) for k, c in low.items())
        coeffs.append(Fraction(constant, scale**d))
    return PeriodSequence("laurent", tuple(coeffs))


def _times(power: dict[int, int], terms: list[tuple[int, int]]) -> dict[int, int]:
    """The product of a coded power with the coded terms of L*f."""
    out: dict[int, int] = {}
    get = out.get
    for ka, ca in power.items():
        for kb, cb in terms:
            key = ka + kb
            out[key] = get(key, 0) + ca * cb
    return out
