"""Independent mini-implementations used as oracles.

Nothing here imports the package under test.  Series live in
Q[P]/(P^(dim+1)) tensor Laurent z, stored as {(p_exp, z_exp): Fraction};
inversion is degree-by-degree synthetic division in P, a different
algorithm from the package's geometric expansion.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


def mul2(a: dict, b: dict, dim: int) -> dict:
    out: dict[tuple[int, int], Fraction] = {}
    for (pa, za), ca in a.items():
        for (pb, zb), cb in b.items():
            p = pa + pb
            if p > dim:
                continue
            key = (p, za + zb)
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: c for k, c in out.items() if c}


def inverse(f: dict, dim: int) -> dict:
    """Inverse of f whose P^0 part is a single z-monomial, by synthetic
    inversion degree by degree in P."""
    f_by_p: list[dict[int, Fraction]] = [dict() for _ in range(dim + 1)]
    for (p, zp), c in f.items():
        f_by_p[p][zp] = c
    assert len(f_by_p[0]) == 1, "leading z-part must be a monomial"
    ((zp0, c0),) = f_by_p[0].items()
    g_by_p: list[dict[int, Fraction]] = [dict() for _ in range(dim + 1)]
    g_by_p[0][-zp0] = 1 / c0
    for p in range(1, dim + 1):
        acc: dict[int, Fraction] = {}
        for j in range(1, p + 1):
            for z1, c1 in f_by_p[j].items():
                for z2, c2 in g_by_p[p - j].items():
                    acc[z1 + z2] = acc.get(z1 + z2, Fraction(0)) + c1 * c2
        for zp, c in acc.items():
            val = -c / c0
            if val:
                g_by_p[p][zp - zp0] = val
    return {(p, zp): c for p in range(dim + 1) for zp, c in g_by_p[p].items()}


def linear(c: Fraction | int, a: Fraction | int) -> dict:
    """The factor c P + a z."""
    return {k: Fraction(v) for k, v in (((1, 0), c), ((0, 1), a)) if v}


def hyper_slice(n_exp: int, d: int, dim: int) -> dict:
    """z / prod_{0<a<=d} (P + a z)^n_exp, exact, by synthetic inversion."""
    f = {(0, 0): Fraction(1)}
    for a in range(1, d + 1):
        for _ in range(n_exp):
            f = mul2(f, linear(1, a), dim)
    return {(p, zp + 1): c for (p, zp), c in inverse(f, dim).items()}


def _divisor_weight(c: int, d: int, shift: int, r: int | None, dim: int) -> dict:
    """Weight of a divisor c P meeting the class d times with net shift.

    Infinite order: prod_{0<a<=d, a != shift} (cP + a z).  Order r: the full
    product prod_{0<a<=d} (cP + a z), divided by (cP + k z)/r over the
    integers 0 < k <= shift congruent to the shift mod r, or multiplied by
    (cP + k z)/r over shift < k <= 0 congruent to it.
    """
    out = {(0, 0): Fraction(1)}
    for a in range(1, d + 1):
        if r is None and a == shift:
            continue
        out = mul2(out, linear(c, a), dim)
    if r is None:
        return out
    for k in range(1, shift + 1):
        if (k - shift) % r == 0:
            step = {key: v * r for key, v in inverse(linear(c, k), dim).items()}
            out = mul2(out, step, dim)
    for k in range(shift + 1, 1):
        if (k - shift) % r == 0:
            out = mul2(out, {key: v / r for key, v in linear(c, k).items()}, dim)
    return out


def extended_series(
    dim: int,
    coeffs: tuple[int, ...],
    m: int,
    cap: int,
    floor: int,
    roots: tuple[int, ...] | None = None,
) -> dict:
    """Complete extended series on P^dim with divisors D_i = coeffs[i] P.

    Keys (d, zpow, xexp, sector, P-exponent).  Every contact vector e_{ij}
    (order j <= m) under a generous total is expanded: the j-slice times the
    divisor weights of the net shifts d_i - sum_j j e_ij, times
    prod x^e / (prod e! z^sum e), in the sector of the negated shifts
    (mod r_i at finite order).  Sectors whose support exceeds dim divisors
    have empty intersection and vanish.  The floor is applied at the end.

    The total is generous: the j-slice has z-degree at most 1, divisor i at
    most d_i + sum_j j e_ij / r_i (the lower steps), so a term at or above
    the floor has sum_ij (1 - j/r_i) e_ij <= 1 + sum_i d_i - floor, and each
    of those weights is at least min_i (r_i - m)/r_i (1 at infinite order).
    The enumeration adds the number of divisors to that limit as a margin.
    """
    n = len(coeffs)
    w_min = Fraction(1) if roots is None else min(Fraction(r - m, r) for r in roots)
    out: dict[tuple, Fraction] = {}
    for d in range(cap // (dim + 1) + 1):
        degs = [c * d for c in coeffs]
        bound = int((1 + sum(degs) + n - floor) / w_min)
        j_slice = hyper_slice(dim + 1, d, dim)
        bodies: dict[tuple[int, ...], dict | None] = {}
        for exps in _vectors(n * m, bound):
            shifts = tuple(
                degs[i] - sum((j + 1) * exps[i * m + j] for j in range(m))
                for i in range(n)
            )
            if shifts not in bodies:
                if roots is None:
                    sector = tuple(-s for s in shifts)
                else:
                    sector = tuple((-s) % r for s, r in zip(shifts, roots))
                if sum(1 for s in sector if s) > dim:
                    bodies[shifts] = None
                else:
                    body = j_slice
                    for i in range(n):
                        r = None if roots is None else roots[i]
                        body = mul2(
                            body, _divisor_weight(coeffs[i], degs[i], shifts[i], r, dim), dim
                        )
                    bodies[shifts] = (sector, body)
            if bodies[shifts] is None:
                continue
            sector, body = bodies[shifts]
            xexp = tuple(
                (i, j + 1, exps[i * m + j])
                for i in range(n)
                for j in range(m)
                if exps[i * m + j]
            )
            weight = Fraction(1)
            for e in exps:
                weight /= factorial(e)
            total = sum(exps)
            for (p, zp), c in body.items():
                if zp - total >= floor:
                    out[(d, zp - total, xexp, sector, p)] = c * weight
    return out


def _vectors(slots: int, bound: int):
    """Nonnegative integer vectors of the given length with sum <= bound."""
    if slots == 0:
        yield ()
        return
    for e in range(bound + 1):
        for rest in _vectors(slots - 1, bound - e):
            yield (e,) + rest


def trinomial_constant_term(power: int) -> int:
    """Constant term of (x + y + 1/(xy))^power by the multinomial theorem."""
    if power % 3:
        return 0
    d = power // 3
    return factorial(power) // (factorial(d) ** 3)


def binomial_constant_term(power: int) -> int:
    """Constant term of (x + 1/x)^power."""
    if power % 2:
        return 0
    return comb(power, power // 2)


def square_lattice_constant_term(power: int) -> int:
    """Constant term of (x + 1/x + y + 1/y)^power."""
    if power % 2:
        return 0
    return comb(power, power // 2) ** 2


def product_point_degree(d1: int, d2: int) -> Fraction:
    """Leading point coefficient of the degree-(d1,d2) slice on P1 x P1."""
    return Fraction(1, factorial(d1) ** 2 * factorial(d2) ** 2)
