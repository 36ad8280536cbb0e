"""Quantum periods, their regularization, and classical periods of the
mirror superpotential computed from tangency counts.

The quantum period collects the one-point descendant invariants of the Fano
target by anticanonical degree.  Its regularization multiplies degree m by
m!.  On the mirror side the superpotential is the sum of one theta function
per divisor component of an anticanonical arrangement; the degree-d constant
term of its d-th power expands into multinomially weighted counts with
contact order one, which this module takes from the extended tangency
series.  A Laurent-polynomial constant-term period is provided as a fully
independent cross-check oracle.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial, lcm
from operator import add

from .algebra import Record, rat
from .invariants import contact_one_counts
from .targets import (
    ConfigurationError,
    DivisorArrangement,
    TargetSpace,
    base_j_function,
    check_assumption,
    enumerate_curve_classes,
)


class PeriodError(ValueError):
    """Hypotheses of the period pipeline fail."""

    exit_status = 2  # the command line's exit status for this refusal


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


def quantum_period(X: TargetSpace, cap: int) -> PeriodSequence:
    """Degree-m coefficients: point insertions against psi^(m-2), summed over
    classes of anticanonical degree m; degree 0 and 1 are pinned to 1 and 0.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    coeffs = [Fraction(0)] * (cap + 1)
    coeffs[0] = Fraction(1)
    ctx = X.context(0, cap)
    for beta in enumerate_curve_classes(X, cap):
        if not any(beta):
            continue
        m = ctx.beta_degree(beta)
        if m < 2:
            continue
        j_slice = base_j_function(X, beta, ctx)
        coeffs[m] += j_slice.coefficient(
            beta=beta, zpow=1 - m, mono=X.ring.zero_mono, sector=(), lam=()
        ).scalar()
    return PeriodSequence("quantum", tuple(coeffs))


def regularize(period: PeriodSequence) -> PeriodSequence:
    """Multiply the degree-m coefficient by m!."""
    if period.kind != "quantum":
        raise ValueError("only quantum periods regularize")
    return PeriodSequence(
        "regularized",
        tuple(c * factorial(m) for m, c in enumerate(period.coeffs)),
    )


class ClassicalPeriod(Record):
    """Classical period plus its mixed-grading breakdown.

    ``contributions`` keeps each class's contact tuple and count before the
    Novikov specialization to the single degree variable, for debugging.
    """

    sequence: PeriodSequence
    contributions: tuple[tuple[tuple[int, ...], tuple[int, ...], Fraction], ...]
    skipped_tuples: tuple[tuple[int, tuple[int, ...]], ...]


def classical_period_orbifold(
    X: TargetSpace, arrangement: DivisorArrangement, cap: int
) -> ClassicalPeriod:
    """Constant-term coefficients of powers of the superpotential.

    Degree d collects d!/(d_1! ... d_n!) times the count with d_i
    contact-order-one markings per divisor, over classes beta whose
    intersection numbers realize the contact tuple; formal tuples realized
    by no class carry no defined count and are skipped (and reported).
    Requires the arrangement to be anticanonical and to satisfy the
    two-positive-pairings condition, which makes the mirror map trivial.
    :func:`~rootstack_gw.invariants.contact_one_counts` builds each class
    body once, certifies that mirror map from the bodies at the cap and
    reads each count, the n_orb value, off its body.
    """
    assumption = check_assumption(X, arrangement, cap)
    if not arrangement.is_anticanonical(X):
        raise ConfigurationError("arrangement must sum to the anticanonical class")
    if not assumption.holds:
        raise PeriodError(
            "two-positive-pairings condition fails at "
            f"{assumption.violations[0]}; the mirror map is not trivial"
        )
    counts = contact_one_counts(X, arrangement, cap)
    coeffs = [Fraction(0)] * (cap + 1)
    coeffs[0] = Fraction(1)
    realized: dict[int, set[tuple[int, ...]]] = {}
    contributions = []
    for beta in enumerate_curve_classes(X, cap):
        if not any(beta):
            continue
        degs = arrangement.degrees(beta)
        d = sum(degs)
        if d < 2 or d > cap:
            continue
        realized.setdefault(d, set()).add(degs)
        weight = Fraction(factorial(d))
        for d_i in degs:
            weight /= factorial(d_i)
        count = counts[beta]
        contributions.append((beta, degs, count))
        coeffs[d] += weight * count
    skipped = []
    for d in range(2, cap + 1):
        seen = realized.get(d, set())
        for combo in _compositions(d, arrangement.n):
            if combo not in seen:
                skipped.append((d, combo))
    return ClassicalPeriod(
        sequence=PeriodSequence("classical", tuple(coeffs)),
        contributions=tuple(contributions),
        skipped_tuples=tuple(skipped),
    )


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


class PeriodComparison(Record):
    regularized: PeriodSequence
    classical: PeriodSequence
    skipped_tuples: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def ok(self) -> bool:
        return self.regularized.coeffs == self.classical.coeffs

    def first_mismatch(self) -> int | None:
        for m, (a, b) in enumerate(zip(self.regularized.coeffs, self.classical.coeffs)):
            if a != b:
                return m
        return None


def compare_periods(
    X: TargetSpace, arrangement: DivisorArrangement, cap: int
) -> PeriodComparison:
    """Coefficientwise exact comparison of the regularized quantum period
    with the classical period, two independent pipelines."""
    classical = classical_period_orbifold(X, arrangement, cap)
    regularized = regularize(quantum_period(X, cap))
    return PeriodComparison(
        regularized=regularized,
        classical=classical.sequence,
        skipped_tuples=classical.skipped_tuples,
    )


# ---------------------------------------------------------------------------
# Laurent-polynomial cross-check
# ---------------------------------------------------------------------------


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
    """Constant terms of the powers of f, by exact expansion.

    With L the lcm of f's coefficient denominators, the powers of L*f are
    expanded with integer coefficients, one dict per power; the constant
    term of f^d is that of (L*f)^d over L^d.
    """
    scale = lcm(*(c.denominator for _, c in f.terms))
    terms = [(key, c.numerator * (scale // c.denominator)) for key, c in f.terms]
    zero = (0,) * len(f.variables)
    coeffs = [Fraction(1)]
    power = {zero: 1}
    for d in range(1, cap + 1):
        nxt: dict[tuple[int, ...], int] = {}
        for ka, ca in power.items():
            for kb, cb in terms:
                key = tuple(map(add, ka, kb))
                nxt[key] = nxt.get(key, 0) + ca * cb
        power = nxt
        coeffs.append(Fraction(power.get(zero, 0), scale**d))
    return PeriodSequence("laurent", tuple(coeffs))
