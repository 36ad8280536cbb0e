"""Geometric inputs: target space, divisor arrangement, root orders.

Targets are products of projective spaces.  The curve-class lattice is dual
to the hyperplane generators, nef divisor classes are the componentwise
nonnegative combinations, and the genus-zero one-point series of the target
is available in closed hypergeometric form degree by degree.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd

from .algebra import AmbientRing, CohClass, GradedSeries, SeriesContext, _Chain


class ConfigurationError(ValueError):
    """Inputs violate a hypothesis of the construction."""


@dataclass(frozen=True)
class TargetSpace:
    """A product of projective spaces prod_k P^{n_k}."""

    factors: tuple[int, ...]

    def __post_init__(self):
        if not self.factors or any(n < 1 for n in self.factors):
            raise ConfigurationError("factors must be positive integers")

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def ring(self) -> AmbientRing:
        return AmbientRing.for_product(self.factors)

    @property
    def anticanonical_weights(self) -> tuple[int, ...]:
        """Degree of the anticanonical class against each curve-class generator."""
        return tuple(n + 1 for n in self.factors)

    def anticanonical_degree(self, beta: tuple[int, ...]) -> int:
        """Degree of the anticanonical class on the curve class beta."""
        return sum(w * b for w, b in zip(self.anticanonical_weights, beta))

    def cls(self, coeffs: tuple[int, ...]) -> CohClass:
        """The class sum_k coeffs[k] * P_k."""
        ring = self.ring
        out = CohClass.zero(ring)
        for k, c in enumerate(coeffs):
            if c:
                out = out + CohClass.generator(ring, k).scale(c)
        return out

    def context(
        self,
        divisors: int,
        beta_cap: int | None,
        z_floor: int | None = None,
        roots: tuple[int, ...] | None = None,
    ) -> SeriesContext:
        return SeriesContext(
            ring=self.ring,
            divisors=divisors,
            beta_weights=self.anticanonical_weights,
            beta_cap=beta_cap,
            z_floor=z_floor,
            roots=roots,
        )

    def __str__(self) -> str:
        return " x ".join(f"P^{n}" for n in self.factors)


def pairing(coeffs: tuple[int, ...], beta: tuple[int, ...]) -> int:
    """Intersection number of a divisor class with a curve class."""
    if len(coeffs) != len(beta):
        raise ValueError("divisor and curve class have different lengths")
    return sum(c * b for c, b in zip(coeffs, beta))


def enumerate_curve_classes(X: TargetSpace, cap: int) -> list[tuple[int, ...]]:
    """All effective beta with anticanonical degree at most cap, in lex order."""
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    weights = X.anticanonical_weights
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], budget: int, k: int) -> None:
        if k == len(weights):
            out.append(prefix)
            return
        for b in range(budget // weights[k] + 1):
            extend(prefix + (b,), budget - b * weights[k], k + 1)

    extend((), cap, 0)
    out.sort()
    return out


@dataclass(frozen=True)
class Divisor:
    """A nef divisor class with a display name."""

    name: str
    coeffs: tuple[int, ...]

    def cls(self, X: TargetSpace) -> CohClass:
        return X.cls(self.coeffs)

    def degree(self, beta: tuple[int, ...]) -> int:
        return pairing(self.coeffs, beta)

    def validate_on(self, X: TargetSpace) -> None:
        if len(self.coeffs) != X.rank:
            raise ConfigurationError(
                f"divisor {self.name!r}: coefficient length mismatch"
            )
        if any(c < 0 for c in self.coeffs):
            raise ConfigurationError(f"divisor {self.name!r} not nef on this target")
        if not any(self.coeffs):
            raise ConfigurationError(f"divisor {self.name!r} is trivial")


@dataclass(frozen=True)
class DivisorArrangement:
    """The components D_1, ..., D_n of a simple normal-crossing divisor.

    Components are assumed pairwise distinct irreducible representatives in
    general position, so a sub-collection has empty intersection exactly when
    the product of its classes vanishes in the ambient ring.
    """

    divisors: tuple[Divisor, ...]

    def __post_init__(self):
        if not self.divisors:
            raise ConfigurationError("arrangement needs at least one divisor")
        names = [d.name for d in self.divisors]
        if len(set(names)) != len(names):
            raise ConfigurationError("divisor names must be distinct")

    @property
    def n(self) -> int:
        return len(self.divisors)

    def validate_on(self, X: TargetSpace) -> None:
        for d in self.divisors:
            d.validate_on(X)

    def degrees(self, beta: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(d.degree(beta) for d in self.divisors)

    def max_degrees(self, X: TargetSpace, cap: int) -> tuple[int, ...]:
        """Largest intersection number of each divisor over the classes in the cap."""
        betas = enumerate_curve_classes(X, cap)
        return tuple(max(d.degree(b) for b in betas) for d in self.divisors)

    def total_degree(self, beta: tuple[int, ...]) -> int:
        return sum(self.degrees(beta))

    def total_coeffs(self, X: TargetSpace) -> tuple[int, ...]:
        return tuple(
            sum(d.coeffs[k] for d in self.divisors) for k in range(X.rank)
        )

    def is_anticanonical(self, X: TargetSpace) -> bool:
        return self.total_coeffs(X) == X.anticanonical_weights

    def intersection_class(self, X: TargetSpace, support: tuple[int, ...]) -> CohClass:
        """Product of the classes of the supported divisors (1 for empty support)."""
        out = CohClass.one(X.ring)
        for i in support:
            out = out * self.divisors[i].cls(X)
        return out

    def intersection_nonempty(self, X: TargetSpace, support: tuple[int, ...]) -> bool:
        """Generic-position test: nonzero class product iff nonempty intersection."""
        return not self.intersection_class(X, support).is_zero


@dataclass(frozen=True)
class RootData:
    """Root orders r_1, ..., r_n, pairwise coprime."""

    orders: tuple[int, ...]

    def __post_init__(self):
        if not self.orders or any(r < 1 for r in self.orders):
            raise ConfigurationError("root orders must be positive integers")

    def validate_for(self, arrangement: DivisorArrangement) -> None:
        if len(self.orders) != arrangement.n:
            raise ConfigurationError("one root order per divisor is required")
        if not check_coprime(self.orders):
            raise ConfigurationError("roots must be pairwise coprime")


def check_coprime(orders: tuple[int, ...]) -> bool:
    """Pairwise coprimality; vacuously true for a single order."""
    return all(
        gcd(orders[i], orders[j]) == 1
        for i in range(len(orders))
        for j in range(i + 1, len(orders))
    )


# ---------------------------------------------------------------------------
# The one-point genus-zero series of the target
# ---------------------------------------------------------------------------


# Bounded so a long run cannot grow it without limit; the largest benchmark
# job (comparing periods on the quadric at cap 16) holds 45 entries.
@functools.lru_cache(maxsize=1024)
def _j_chain(X: TargetSpace, beta: tuple[int, ...]) -> _Chain:
    """The degree-beta slice of the target's one-point series as a dense
    chain: z times prod_k prod_{0<a<=beta_k} (P_k + a z)^-(n_k + 1).

    Keyed by target and class only, so every context and every builder
    shares one build per class.
    """
    chain = _Chain.z_power(X.factors, 1)
    for k, b in enumerate(beta):
        generator = tuple(int(i == k) for i in range(X.rank))
        for a in range(1, b + 1):
            for _ in range(X.factors[k] + 1):
                chain = chain.over_linear(generator, a)
    return chain


def base_j_function(
    X: TargetSpace, beta: tuple[int, ...], ctx: SeriesContext | None = None
) -> GradedSeries:
    """Degree-beta slice of the small one-point series of the target, at the
    origin of the small parameter.

    For a single projective space this is the classical
    z * Q^d / prod_{0<a<=d} (P + a z)^{n+1}; a product target multiplies the
    per-factor expansions.  Degree zero returns z.
    """
    beta = tuple(beta)
    if len(beta) != X.rank or any(b < 0 for b in beta):
        raise ValueError("beta must be an effective curve class of the target")
    if ctx is None:
        ctx = X.context(divisors=0, beta_cap=None)
    return _j_chain(X, beta).series(ctx, beta)


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the two-positive-pairings condition scan."""

    holds: bool
    violations: tuple[tuple[int, ...], ...]


def check_assumption(
    X: TargetSpace, arrangement: DivisorArrangement, cap: int
) -> AssumptionReport:
    """Scan all effective beta up to the cap for the condition that every
    class meeting the total divisor at least twice meets at least two of its
    components.  This is exactly what makes the mirror map trivial for the
    period pipeline.
    """
    arrangement.validate_on(X)
    bad = []
    for beta in enumerate_curve_classes(X, cap):
        if not any(beta):
            continue
        degs = arrangement.degrees(beta)
        if sum(degs) >= 2 and sum(1 for d in degs if d > 0) < 2:
            bad.append(beta)
    return AssumptionReport(holds=not bad, violations=tuple(bad))
