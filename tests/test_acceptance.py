"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line.  Every comparison is
bit-exact: all quantities are exact rationals, so the tolerance is zero
everywhere.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from math import factorial

import pytest

from conftest import random_series
from oracle import square_lattice_constant_term, trinomial_constant_term
from rootstack_gw import (
    Divisor,
    DivisorArrangement,
    LaurentPolynomial,
    RefusedIdentityError,
    RootData,
    TargetSpace,
    UnsupportedMirrorMapError,
    check_identities,
    compare_periods,
    enumerate_curve_classes,
    extract_invariants,
    i_infinity_extended,
    i_infinity_extended_h0,
    i_infinity_nonextended,
    laurent_classical_period,
    mirror_map,
    stabilization_check,
)
from rootstack_gw.algebra import CohClass, GradedSeries
from rootstack_gw.identities import local_point_invariant
from rootstack_gw.invariants import n_orb
from rootstack_gw.reference import exact_divide_linear, invert_z_linear

PLANE = TargetSpace((2,))
LINE_CONIC = DivisorArrangement((Divisor("L", (1,)), Divisor("C", (2,))))
CONIC = DivisorArrangement((Divisor("C", (2,)),))
CUBIC = DivisorArrangement((Divisor("E", (3,)),))
QUADRIC = TargetSpace((1, 1))
DIAGONALS = DivisorArrangement((Divisor("L1", (1, 1)), Divisor("L2", (1, 1))))
SPACE = TargetSpace((3,))
TWO_QUADRICS = DivisorArrangement((Divisor("Q1", (2,)), Divisor("Q2", (2,))))
THREE_LINES = DivisorArrangement(tuple(Divisor(f"L{i}", (1,)) for i in range(3)))

# The largest cap a job file accepts.
FULL_CAP = 64


def report(criterion: str, ok: bool) -> None:
    print(f"{criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def test_a1_plane_maximal_tangency_counts():
    """Maximal tangency to a line and a conic through a point: (2d)!/(d!)^2."""
    h0 = i_infinity_extended_h0(PLANE, LINE_CONIC, 10, 15)
    table = extract_invariants(h0, PLANE, LINE_CONIC)
    expected = {1: 2, 2: 6, 3: 20, 4: 70, 5: 252}
    ok = True
    for d, want in expected.items():
        got = table.value(
            (d,),
            xexp=((0, d, 1), (1, 2 * d, 1)),
            insertion=(2,),
            psi=0,
            sector=(0, 0),
        )
        ok = ok and got == want == factorial(2 * d) // factorial(d) ** 2
    report("A1 plane maximal-tangency counts 2,6,20,70,252", ok)


def test_a2_quadric_maximal_tangency_counts():
    """Two diagonal curves on the quadric surface: (d1+d2)!^2/((d1!)^2(d2!)^2)."""
    h0 = i_infinity_extended_h0(QUADRIC, DIAGONALS, 4, 8)
    table = extract_invariants(h0, QUADRIC, DIAGONALS)
    ok = True
    for d1 in range(5):
        for d2 in range(5):
            if not 0 < d1 + d2 <= 4:
                continue
            e = d1 + d2
            got = table.value(
                (d1, d2),
                xexp=((0, e, 1), (1, e, 1)),
                insertion=(1, 1),
                psi=0,
                sector=(0, 0),
            )
            want = F(factorial(e) ** 2, factorial(d1) ** 2 * factorial(d2) ** 2)
            ok = ok and got == want
    report("A2 quadric maximal-tangency counts (product rule certified)", ok)


def test_a3_large_order_stabilization():
    """Rescaled finite-order coefficients equal the limit coefficients exactly."""
    plane_roots = [RootData(r) for r in ((7, 11), (11, 13), (13, 17))]
    quadric_roots = [RootData(r) for r in ((5, 7), (7, 9), (9, 11))]
    plane = stabilization_check(PLANE, LINE_CONIC, plane_roots, 9)
    quadric = stabilization_check(QUADRIC, DIAGONALS, quadric_roots, 9)
    ok = plane.ok and quadric.ok
    ok = ok and len(plane.cases) == 3 * 4 and len(quadric.cases) == 3 * 15
    report("A3 stabilization at three coprime order choices per target", ok)


def test_a4a_smooth_divisor_identity():
    """Relative/local series identity with the parity sign, conic and cubic."""
    ok = True
    for arr in (CONIC, CUBIC):
        for b in (1, 2, 3):
            result = check_identities(PLANE, arr, (b,))[0]
            d = arr.divisors[0].degree((b,))
            ok = ok and result.ok and result.sign == (-1) ** (d - 1)
    report("A4a smooth-divisor identity, conic and cubic, degrees 1..3", ok)


def test_a4b_normal_crossing_identity():
    """Tangency/local series identity for both two-divisor targets."""
    ok = True
    for b in ((1,), (2,), (3,)):
        result = check_identities(PLANE, LINE_CONIC, b)[0]
        ok = ok and result.ok
    for b1 in range(5):
        for b2 in range(5):
            if not 0 < 2 * (b1 + b2) <= 8:
                continue
            result = check_identities(QUADRIC, DIAGONALS, (b1, b2))[0]
            ok = ok and result.ok
    report("A4b normal-crossing identity on all positive-pairing classes", ok)


def test_a4c_extended_identity_with_values():
    """Extended identity plus the rank-two local values on both targets."""
    ok = True
    for b in ((1,), (2,), (3,)):
        ok = ok and check_identities(PLANE, LINE_CONIC, b)[1].ok
    for d in (1, 2, 3):
        local = local_point_invariant(PLANE, LINE_CONIC, (d,))
        orb = n_orb(PLANE, LINE_CONIC, (d,))
        want_local = F((-1) ** d * factorial(2 * d), 2 * d * d * factorial(d) ** 2)
        want_orb = {1: 2, 2: 6, 3: 20}[d]
        factor = (-1) ** d * 2 * d * d
        ok = ok and local == want_local and orb == want_orb and orb == factor * local
    for b1, b2 in ((1, 0), (0, 1), (1, 1), (2, 0), (2, 1)):
        ok = ok and check_identities(QUADRIC, DIAGONALS, (b1, b2))[1].ok
        local = local_point_invariant(QUADRIC, DIAGONALS, (b1, b2))
        orb = n_orb(QUADRIC, DIAGONALS, (b1, b2))
        ok = ok and orb == (b1 + b2) ** 2 * local
    report("A4c extended identity; local values -1, 3/4, -10/9 and factors", ok)


def test_a5_period_equality_and_laurent_check():
    """Regularized quantum period = classical period; trinomial three-way."""
    plane = compare_periods(PLANE, LINE_CONIC, 9)
    quadric = compare_periods(QUADRIC, DIAGONALS, 8)
    ok = plane.ok and quadric.ok
    laurent = laurent_classical_period(LaurentPolynomial.parse("x+y+1/(x*y)"), 9)
    frozen = (1, 0, 0, 6, 0, 0, 90, 0, 0, 1680)
    ok = ok and laurent.coeffs == tuple(F(c) for c in frozen)
    ok = ok and laurent.coeffs == plane.regularized.coeffs
    ok = ok and all(
        laurent[m] == trinomial_constant_term(m) for m in range(10)
    )
    report("A5 period equality on both targets and Laurent three-way check", ok)


def test_a6_property_suites():
    """Ring axioms, inversion, exact division, sector vanishing, mirror maps."""
    ring_ctx = PLANE.context(2, None)
    rng = random.Random(20260810)
    ok = True
    for _ in range(1000):
        a = random_series(rng, ring_ctx)
        b = random_series(rng, ring_ctx)
        c = random_series(rng, ring_ctx)
        ok = ok and (a + b) + c == a + (b + c)
        ok = ok and a * b == b * a
        ok = ok and a * (b + c) == a * b + a * c
    report("A6.1 ring axioms on 1000 randomized small series", ok)

    ok = True
    for _ in range(50):
        zc = F(rng.randint(1, 9), rng.randint(1, 9))
        cls = CohClass.generator(ring_ctx.ring, 0).scale(
            F(rng.randint(-9, 9), rng.randint(1, 9))
        )
        factor = GradedSeries.from_class(ring_ctx, cls) + GradedSeries.term(
            ring_ctx, zc, zpow=1
        )
        ok = ok and invert_z_linear(ring_ctx, zc, cls) * factor == GradedSeries.one(
            ring_ctx
        )
    report("A6.2 inverse times factor is one", ok)

    ok = True
    for _ in range(50):
        q = random_series(rng, ring_ctx)
        cls = CohClass.generator(ring_ctx.ring, 0).scale(rng.randint(-3, 3))
        factor = GradedSeries.from_class(ring_ctx, cls) + GradedSeries.term(
            ring_ctx, 1, lam=(0, 1)
        )
        num = q * factor
        ok = ok and exact_divide_linear(num, cls, 1) * factor == num
    report("A6.3 exact-division round trip", ok)

    three_lines = DivisorArrangement(tuple(Divisor(f"L{i}", (1,)) for i in range(3)))
    vanishing = i_infinity_nonextended(PLANE, three_lines, 6)
    ok = all(not any(b) for b in vanishing.betas())
    same_ruling = DivisorArrangement((Divisor("F1", (0, 1)), Divisor("F2", (0, 1))))
    quadric_vanishing = i_infinity_nonextended(QUADRIC, same_ruling, 4)
    ok = ok and all(b[1] == 0 for b in quadric_vanishing.betas())
    report("A6.4 sector vanishing on empty intersections", ok)

    plane_map = mirror_map(i_infinity_extended(PLANE, LINE_CONIC, 6, 9, z_floor=-1))
    quadric_map = mirror_map(i_infinity_extended(QUADRIC, DIAGONALS, 4, 8, z_floor=-1))
    ok = plane_map.trivial and quadric_map.trivial
    ok = ok and len(plane_map.contact_units) == 12
    ok = ok and len(quadric_map.contact_units) == 8
    report("A6.5 trivial mirror form z + contact units + lower order", ok)

    nontrivial = i_infinity_nonextended(PLANE, CUBIC, 9)
    try:
        extract_invariants(nontrivial, PLANE, CUBIC)
        rejected = False
    except UnsupportedMirrorMapError as err:
        rejected = "Birkhoff" in str(err)
    report("A6.6 rejection path for the cubic's nontrivial mirror map", rejected)


def test_a7a_periods_at_the_full_cap():
    """Regularized quantum = classical period at cap 64 on P^2 with a line
    and a conic and with three lines, P^1 x P^1 with two diagonals and P^3
    with two quadrics; the Laurent constant terms on P^2 and P^1 x P^1."""
    ok = True
    for X, arr in (
        (PLANE, LINE_CONIC),
        (PLANE, THREE_LINES),
        (QUADRIC, DIAGONALS),
        (SPACE, TWO_QUADRICS),
    ):
        outcome = compare_periods(X, arr, FULL_CAP)
        ok = ok and outcome.ok and len(outcome.regularized.coeffs) == FULL_CAP + 1
        if X == PLANE:
            laurent = trinomial_constant_term
        elif X == QUADRIC:
            laurent = square_lattice_constant_term
        else:
            continue
        ok = ok and all(outcome.regularized[m] == laurent(m) for m in range(FULL_CAP + 1))
    report("A7a period equality at cap 64 on four arrangements", ok)


def test_a7b_stabilization_at_the_full_cap():
    """Stabilization at cap 64 over two order vectors above every
    intersection number, on the same four arrangements."""
    cases = {
        (PLANE, LINE_CONIC): ((67, 71), (73, 79)),
        (PLANE, THREE_LINES): ((67, 71, 73), (79, 83, 89)),
        (QUADRIC, DIAGONALS): ((37, 41), (43, 47)),
        (SPACE, TWO_QUADRICS): ((37, 41), (43, 47)),
    }
    counts = []
    ok = True
    for (X, arr), orders in cases.items():
        result = stabilization_check(X, arr, [RootData(r) for r in orders], FULL_CAP)
        ok = ok and result.ok
        counts.append(len(result.cases))
    ok = ok and counts == [44, 44, 1122, 34]
    report("A7b stabilization at cap 64 on four arrangements", ok)


def test_a7c_identities_at_the_full_cap():
    """Every identity on every class of degree up to 64 that meets each
    divisor; three lines through no common point are refused."""
    counts = []
    ok = True
    for X, arr in (
        (PLANE, CONIC),
        (PLANE, CUBIC),
        (PLANE, LINE_CONIC),
        (QUADRIC, DIAGONALS),
        (SPACE, TWO_QUADRICS),
    ):
        betas = enumerate_curve_classes(X, FULL_CAP)
        reports = [
            result
            for beta in betas
            if all(d > 0 for d in arr.degrees(beta))
            for result in check_identities(X, arr, beta)
        ]
        ok = ok and all(result.ok for result in reports)
        counts.append(len(reports))
    ok = ok and counts == [42, 42, 42, 1120, 32]
    with pytest.raises(RefusedIdentityError):
        check_identities(PLANE, THREE_LINES, (1,))
    report("A7c identities at cap 64 on five arrangements", ok)
