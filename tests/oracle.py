"""Independent mini-implementations used as oracles.

Nothing here imports the package under test.  Series live in
Q[P_1..P_k]/(P_j^(n_j+1)) tensor Laurent z on prod_j P^(n_j), stored as
{(P-exponents, z_exp): Fraction}; inversion is synthetic division by total
degree in the P_j, a different algorithm from the package's geometric
expansion.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial


def mul(a: dict, b: dict, dims: tuple[int, ...]) -> dict:
    out: dict[tuple, Fraction] = {}
    for (pa, za), ca in a.items():
        for (pb, zb), cb in b.items():
            p = tuple(x + y for x, y in zip(pa, pb))
            if any(e > n for e, n in zip(p, dims)):
                continue
            key = (p, za + zb)
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: c for k, c in out.items() if c}


def inverse(f: dict, dims: tuple[int, ...]) -> dict:
    """Inverse of f whose P-degree-zero part is a single z-monomial, by
    synthetic inversion total degree by total degree in the P_j."""
    top = sum(dims)
    f_by_deg: list[dict] = [dict() for _ in range(top + 1)]
    for (p, zp), c in f.items():
        f_by_deg[sum(p)][(p, zp)] = c
    assert len(f_by_deg[0]) == 1, "leading z-part must be a monomial"
    (((p0, zp0), c0),) = f_by_deg[0].items()
    g_by_deg: list[dict] = [{(p0, -zp0): 1 / c0}]
    for t in range(1, top + 1):
        acc: dict[tuple, Fraction] = {}
        for j in range(1, t + 1):
            for key, c in mul(f_by_deg[j], g_by_deg[t - j], dims).items():
                acc[key] = acc.get(key, Fraction(0)) + c
        g_by_deg.append({(p, zp - zp0): -c / c0 for (p, zp), c in acc.items() if c})
    return {key: c for part in g_by_deg for key, c in part.items()}


def linear(coeffs: tuple[int, ...], a: Fraction | int) -> dict:
    """The factor sum_j coeffs[j] P_j + a z."""
    zero = (0,) * len(coeffs)
    out = {(zero, 1): Fraction(a)}
    for j, c in enumerate(coeffs):
        out[(zero[:j] + (1,) + zero[j + 1 :], 0)] = Fraction(c)
    return {key: c for key, c in out.items() if c}


def target_slice(dims: tuple[int, ...], beta: tuple[int, ...]) -> dict:
    """z / prod_j prod_{0<a<=beta_j} (P_j + a z)^(n_j + 1), exact, by
    synthetic inversion."""
    f = {((0,) * len(dims), 0): Fraction(1)}
    for j, b in enumerate(beta):
        generator = tuple(int(i == j) for i in range(len(dims)))
        for a in range(1, b + 1):
            for _ in range(dims[j] + 1):
                f = mul(f, linear(generator, a), dims)
    return {(p, zp + 1): c for (p, zp), c in inverse(f, dims).items()}


def _divisor_weight(
    coeffs: tuple[int, ...], d: int, shift: int, r: int | None, dims: tuple[int, ...]
) -> dict:
    """Weight of a divisor D = sum_j coeffs[j] P_j meeting the class d times
    with net shift.

    Infinite order: prod_{0<a<=d, a != shift} (D + a z).  Order r: the full
    product prod_{0<a<=d} (D + a z), divided by (D + k z)/r over the
    integers 0 < k <= shift congruent to the shift mod r, or multiplied by
    (D + k z)/r over shift < k <= 0 congruent to it.
    """
    out = {((0,) * len(dims), 0): Fraction(1)}
    for a in range(1, d + 1):
        if r is None and a == shift:
            continue
        out = mul(out, linear(coeffs, a), dims)
    if r is None:
        return out
    for k in range(1, shift + 1):
        if (k - shift) % r == 0:
            step = {key: v * r for key, v in inverse(linear(coeffs, k), dims).items()}
            out = mul(out, step, dims)
    for k in range(shift + 1, 1):
        if (k - shift) % r == 0:
            out = mul(out, {key: v / r for key, v in linear(coeffs, k).items()}, dims)
    return out


def _meets(coeffs: list[tuple[int, ...]], dims: tuple[int, ...]) -> bool:
    """Whether the product of the divisor classes is nonzero."""
    out = {((0,) * len(dims), 0): Fraction(1)}
    for c in coeffs:
        out = mul(out, linear(c, 0), dims)
    return bool(out)


def extended_series(
    dims: tuple[int, ...],
    coeffs: tuple[tuple[int, ...], ...],
    m: int,
    cap: int,
    floor: int,
    roots: tuple[int, ...] | None = None,
) -> dict:
    """Complete extended series on prod_j P^dims[j] with divisors
    D_i = sum_j coeffs[i][j] P_j, over the classes beta of anticanonical
    degree sum_j (dims[j] + 1) beta_j at most the cap.

    Keys (beta, zpow, xexp, sector, P-exponents).  Every contact vector e_{ij}
    (order j <= m) under a generous total is expanded: the j-slice times the
    divisor weights of the net shifts d_i - sum_j j e_ij, times
    prod x^e / (prod e! z^sum e), in the sector of the negated shifts
    (mod r_i at finite order).  Sectors whose divisor classes multiply to
    zero have empty intersection and vanish.  The floor is applied at the
    end.

    The total is generous: the j-slice has z-degree at most 1, divisor i at
    most d_i + sum_j j e_ij / r_i (the lower steps), so a term at or above
    the floor has sum_ij (1 - j/r_i) e_ij <= 1 + sum_i d_i - floor, and each
    of those weights is at least min_i (r_i - m)/r_i (1 at infinite order).
    The enumeration adds the number of divisors to that limit as a margin.
    """
    n = len(coeffs)
    w_min = Fraction(1) if roots is None else min(Fraction(r - m, r) for r in roots)
    weights = tuple(k + 1 for k in dims)
    out: dict[tuple, Fraction] = {}
    for beta in product(*(range(cap // w + 1) for w in weights)):
        if sum(w * b for w, b in zip(weights, beta)) > cap:
            continue
        degs = [sum(c * b for c, b in zip(ci, beta)) for ci in coeffs]
        bound = int((1 + sum(degs) + n - floor) / w_min)
        j_slice = target_slice(dims, beta)
        bodies: dict[tuple[int, ...], tuple | None] = {}
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
                if not _meets([c for c, s in zip(coeffs, sector) if s], dims):
                    bodies[shifts] = None
                else:
                    body = j_slice
                    for i in range(n):
                        r = None if roots is None else roots[i]
                        weight = _divisor_weight(coeffs[i], degs[i], shifts[i], r, dims)
                        body = mul(body, weight, dims)
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
                    out[(beta, zp - total, xexp, sector, p)] = c * weight
    return out


def local_series(dims: tuple[int, ...], coeffs: tuple[tuple[int, ...], ...], cap: int) -> dict:
    """Equivariant local series of the sum of the dual line bundles of the
    divisors D_i = sum_j coeffs[i][j] P_j on prod_j P^dims[j], over the
    classes beta of anticanonical degree at most the cap.

    Keys (beta, zpow, P-exponents, lam-exponents).  Each class's target
    slice is multiplied by prod_i prod_{0<=a<d_i} (-D_i + lam_i - a z), one
    linear factor at a time, with lam_i a polynomial variable of its own:
    an extra generator capped at d_i, which its d_i factors never exceed.
    """
    n = len(coeffs)
    weights = tuple(k + 1 for k in dims)
    out: dict[tuple, Fraction] = {}
    for beta in product(*(range(cap // w + 1) for w in weights)):
        if sum(w * b for w, b in zip(weights, beta)) > cap:
            continue
        degs = [sum(c * b for c, b in zip(ci, beta)) for ci in coeffs]
        full = tuple(dims) + tuple(degs)
        body = {(p + (0,) * n, zp): c for (p, zp), c in target_slice(dims, beta).items()}
        for i, ci in enumerate(coeffs):
            factor = tuple(-c for c in ci) + tuple(int(k == i) for k in range(n))
            for a in range(degs[i]):
                body = mul(body, linear(factor, -a), full)
        for (p, zp), c in body.items():
            out[(beta, zp, p[: len(dims)], p[len(dims) :])] = c
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
