from __future__ import annotations

from fractions import Fraction as F

import pytest

from rootstack_gw import (
    ConfigurationError,
    Divisor,
    DivisorArrangement,
    RefusedIdentityError,
    RootData,
    check_identities,
    divisor_derivative,
    i_infinity_extended_h0,
    i_infinity_nonextended,
    i_local,
    n_orb,
    pushforward_iota,
    stabilization_check,
)
from rootstack_gw.algebra import GradedSeries
from rootstack_gw import algebra, identities, ifunctions, local, reference
from rootstack_gw.identities import local_point_invariant, parity_sign
from rootstack_gw.ifunctions import infinity_slice, relative_slice
from rootstack_gw.local import local_slice
from rootstack_gw.reference import exact_divide_linear
from rootstack_gw.targets import TargetSpace, _j_chain, enumerate_curve_classes


class TestPushforward:
    def test_unit_sector_to_divisor_product(self, p2, line_conic):
        ctx = p2.context(2, 3)
        unit = GradedSeries.term(ctx, 1, sector=(-1, -2))
        got = pushforward_iota(unit, p2, line_conic)
        assert got == GradedSeries.term(ctx, 2, mono=(2,))

    def test_untwisted_unit_fixed(self, p2, line_conic):
        ctx = p2.context(2, 3)
        one = GradedSeries.one(ctx)
        assert pushforward_iota(one, p2, line_conic) == one

    def test_nilpotency_kills_deep_classes(self, p2, line_conic):
        # (z^-1 - P z^-2)[1]_{-1,-2} maps to 2 P^2 z^-1
        ctx = p2.context(2, 3)
        s = GradedSeries.term(ctx, 1, zpow=-1, sector=(-1, -2)) + GradedSeries.term(
            ctx, -1, zpow=-2, mono=(1,), sector=(-1, -2)
        )
        got = pushforward_iota(s, p2, line_conic)
        assert got == GradedSeries.term(ctx, 2, zpow=-1, mono=(2,))

    def test_linear(self, p2, line_conic):
        ctx = p2.context(2, 3)
        a = GradedSeries.term(ctx, 3, zpow=-1, sector=(-1, 0))
        b = GradedSeries.term(ctx, F(1, 2), mono=(1,), sector=(0, -2))
        assert pushforward_iota(a + b, p2, line_conic) == pushforward_iota(
            a, p2, line_conic
        ) + pushforward_iota(b, p2, line_conic)

    def test_empty_intersection_sector_dies(self, p2):
        three = DivisorArrangement(tuple(Divisor(f"L{i}", (1,)) for i in range(3)))
        ctx = p2.context(3, 3)
        unit = GradedSeries.term(ctx, 1, sector=(-1, -1, -1))
        assert pushforward_iota(unit, p2, three).is_zero


class TestDivisorDerivative:
    def test_degree_zero_slice(self, p2, line_conic):
        ctx = p2.context(2, 6)
        z = GradedSeries.term(ctx, 1, zpow=1)
        got = divisor_derivative(z, p2, line_conic, 0)
        assert got == GradedSeries.term(ctx, 1, mono=(1,))

    def test_positive_degree_slice(self, p2, line_conic):
        # d_2 = 2 at degree 1 for the conic: unit slice maps to (2P + 2z)/z
        ctx = p2.context(2, 6)
        unit = GradedSeries.term(ctx, 1, beta=(1,), zpow=1)
        got = divisor_derivative(unit, p2, line_conic, 1)
        want = GradedSeries.term(ctx, 2, beta=(1,), mono=(1,)) + GradedSeries.term(
            ctx, 2, beta=(1,), zpow=1
        )
        assert got == want

    def test_derivatives_commute(self, p2, line_conic):
        series = i_local(p2, line_conic, 6)
        ab = divisor_derivative(
            divisor_derivative(series, p2, line_conic, 0), p2, line_conic, 1
        )
        ba = divisor_derivative(
            divisor_derivative(series, p2, line_conic, 1), p2, line_conic, 0
        )
        assert ab == ba


class TestSmoothDivisor:
    def test_conic_signs_and_equality(self, p2, conic_only):
        for beta, sign in (((1,), -1), ((2,), -1), ((3,), -1)):
            report = check_identities(p2, conic_only, beta)[0]
            assert report.sign == sign
            assert report.ok, report.first_mismatch()

    def test_cubic_signs_and_equality(self, p2, cubic_only):
        for beta, sign in (((1,), 1), ((2,), -1), ((3,), 1)):
            report = check_identities(p2, cubic_only, beta)[0]
            assert report.sign == sign
            assert report.ok, report.first_mismatch()

    def test_cubic_degree_one_value(self, p2, cubic_only):
        report = check_identities(p2, cubic_only, (1,))[0]
        flat = {(k.zpow, k.mono): c for k, c in report.left.terms.items()}
        assert flat == {(-1, (2,)): F(9), (0, (1,)): F(6)}

    def test_unit_degree_case(self, p2):
        # a single line meets a line once: both weights are empty and the
        # identity reduces to the pushforward of the tangency unit
        line = DivisorArrangement((Divisor("L", (1,)),))
        report = check_identities(p2, line, (1,))[0]
        assert report.sign == 1
        assert report.ok

    def test_degree_must_be_positive(self, p1p1):
        fiber = DivisorArrangement((Divisor("F", (0, 1)),))
        with pytest.raises(RefusedIdentityError):
            check_identities(p1p1, fiber, (1, 0))


class TestNormalCrossing:
    def test_line_conic_all_degrees(self, p2, line_conic):
        for beta in ((1,), (2,), (3,)):
            report = check_identities(p2, line_conic, beta)[0]
            assert report.ok, (beta, report.first_mismatch())
            d1, d2 = line_conic.degrees(beta)
            assert report.sign == parity_sign((d1, d2))

    def test_line_conic_degree_one_value(self, p2, line_conic):
        report = check_identities(p2, line_conic, (1,))[0]
        assert {
            (k.zpow, k.mono): c for k, c in report.left.terms.items()
        } == {(-1, (2,)): F(2)}

    def test_quadric_all_classes(self, p1p1, two_diagonals):
        for beta in ((1, 0), (0, 1), (1, 1), (2, 0), (2, 1)):
            report = check_identities(p1p1, two_diagonals, beta)[0]
            assert report.ok, (beta, report.first_mismatch())

    def test_single_divisor_limit_is_the_relative_series(
        self, p2, p1p1, conic_only, cubic_only
    ):
        # the n = 1 identity reads the relative series; the limit series it
        # stands for must agree with it on every class
        line = DivisorArrangement((Divisor("L", (1,)),))
        fibre = DivisorArrangement((Divisor("F", (0, 1)),))
        for X, arr in ((p2, conic_only), (p2, cubic_only), (p2, line), (p1p1, fibre)):
            ctx = X.context(1, 8)
            for beta in enumerate_curve_classes(X, 8):
                limit = infinity_slice(X, arr, beta, ctx)
                assert limit == relative_slice(X, arr, beta, ctx), (arr, beta)

    def test_empty_intersection_refused(self, p1p1):
        same_ruling = DivisorArrangement(
            (Divisor("F1", (0, 1)), Divisor("F2", (0, 1)))
        )
        with pytest.raises(RefusedIdentityError, match="empty"):
            check_identities(p1p1, same_ruling, (1, 1))

    def test_positive_degrees_required(self, p1p1, two_diagonals):
        mixed = DivisorArrangement((Divisor("D", (1, 1)), Divisor("F", (0, 2))))
        with pytest.raises(RefusedIdentityError, match="must meet"):
            check_identities(p1p1, mixed, (1, 0))


class TestExtended:
    def test_line_conic_all_degrees(self, p2, line_conic):
        for beta in ((1,), (2,), (3,)):
            report = check_identities(p2, line_conic, beta)[1]
            assert report.ok, (beta, report.first_mismatch())

    def test_left_side_is_the_maximal_tangency_coefficient(self, p2, line_conic):
        # read off the body, the left side equals the prod_i x_{i,d_i}
        # coefficient of the untwisted extended series, every tiling attached
        for beta in ((1,), (3,), (5,)):
            degs = line_conic.degrees(beta)
            cap = p2.anticanonical_degree(beta)
            tiled = i_infinity_extended_h0(p2, line_conic, max(degs), cap).beta_slice(beta)
            expected = tiled.coefficient(xexp=((0, degs[0], 1), (1, degs[1], 1)))
            report = check_identities(p2, line_conic, beta)[1]
            assert not expected.is_zero and report.left == expected

    def test_sign_flips_with_parity(self, p2, line_conic):
        # degrees (1,2) then (2,4): the sign alternates with the class parity
        signs = [check_identities(p2, line_conic, (d,))[1].sign for d in (1, 2, 3)]
        assert signs == [-1, 1, -1]

    def test_quadric_classes(self, p1p1, two_diagonals):
        for beta in ((1, 0), (1, 1), (2, 1)):
            report = check_identities(p1p1, two_diagonals, beta)[1]
            assert report.ok, (beta, report.first_mismatch())
            assert report.sign == 1

    def test_dividing_commutes_with_the_derivatives(self):
        # reference: the derivatives first and the exact division after, on
        # every class each arrangement can check
        p2, p1p1, p3 = TargetSpace((2,)), TargetSpace((1, 1)), TargetSpace((3,))

        def arrangement(*coeffs):
            return DivisorArrangement(
                tuple(Divisor(f"D{i}", c) for i, c in enumerate(coeffs))
            )

        cases = [
            (p2, arrangement((1,), (2,)), 9),
            (p2, arrangement((2,)), 8),
            (p2, arrangement((3,)), 9),
            (p2, arrangement((2,), (2,)), 8),
            (p1p1, arrangement((1, 1), (1, 1)), 8),
            (p1p1, arrangement((1, 1), (1, 2)), 6),
            (p3, arrangement((2,), (2,)), 8),
            (p3, arrangement((1,), (3,)), 8),
        ]
        checked = 0
        for X, arr, cap in cases:
            for beta in enumerate_curve_classes(X, cap):
                degs = arr.degrees(beta)
                if min(degs) <= 0:
                    continue
                report = check_identities(X, arr, beta)[1]
                work = local_slice(X, arr, beta, report.right.ctx)
                for i in range(arr.n):
                    work = divisor_derivative(work, X, arr, i)
                for i, divisor in enumerate(arr.divisors):
                    work = exact_divide_linear(work, -divisor.cls(X), i)
                want = work.without_lambda().scale(parity_sign(degs))
                assert report.right == want, (arr, beta)
                assert report.ok, (arr, beta, report.first_mismatch())
                checked += 1
        assert checked == 37

    def test_single_divisor_extended_analogue(self, p2, conic_only, cubic_only):
        for arr in (conic_only, cubic_only):
            for beta in ((1,), (2,)):
                report = check_identities(p2, arr, beta)[1]
                assert report.ok, (arr, beta, report.first_mismatch())


class TestLocalPointValues:
    def test_plane_rank_two_bundle(self, p2, line_conic):
        # <pt> of O(-1)+O(-2): -1, 3/4, -10/9 at degrees 1, 2, 3
        from math import factorial

        for d in (1, 2, 3):
            got = local_point_invariant(p2, line_conic, (d,))
            want = F((-1) ** d * factorial(2 * d), 2 * d * d * factorial(d) ** 2)
            assert got == want

    def test_quadric_rank_two_bundle(self, p1p1, two_diagonals):
        from math import factorial

        for d1, d2 in ((1, 0), (1, 1), (2, 1)):
            got = local_point_invariant(p1p1, two_diagonals, (d1, d2))
            want = F(
                factorial(d1 + d2) ** 2,
                (d1 + d2) ** 2 * factorial(d1) ** 2 * factorial(d2) ** 2,
            )
            assert got == want

    def test_relation_between_counts(self, p2, p1p1, line_conic, two_diagonals):
        from rootstack_gw import n_orb

        for d in (1, 2):
            orb = n_orb(p2, line_conic, (d,))
            loc = local_point_invariant(p2, line_conic, (d,))
            assert orb == (-1) ** d * 2 * d * d * loc

    def test_class_missing_a_divisor_refused(self, p1p1):
        # no step-zero normal weight to divide out; this used to surface as
        # an internal DivisibilityError
        fibre = DivisorArrangement((Divisor("F", (0, 1)),))
        for beta in ((0, 0), (1, 0)):
            with pytest.raises(RefusedIdentityError, match="must meet"):
                local_point_invariant(p1p1, fibre, beta)

    def test_quadric_relation(self, p1p1, two_diagonals):
        from rootstack_gw import n_orb

        orb = n_orb(p1p1, two_diagonals, (1, 1))
        loc = local_point_invariant(p1p1, two_diagonals, (1, 1))
        assert loc == 1 and orb == 4
        assert orb == (1 + 1) ** 2 * loc


class TestOneClassAtATime:
    def test_nonextended_check_builds_only_its_class(self, p1p1, two_diagonals):
        _j_chain.cache_clear()
        report = check_identities(p1p1, two_diagonals, (2, 1))[0]
        assert report.ok
        # both sides share the one target slice of beta (2,1) at cap 6
        assert _j_chain.cache_info().currsize == 1

    def test_local_side_built_once_per_class(self, p2, line_conic, monkeypatch):
        # the local side is one chain: neither the equivariant slice nor the
        # exact division takes part, under any name the check could reach
        def unreachable(*args):
            raise AssertionError("equivariant slice or exact division called")

        for module in (ifunctions, local, algebra, reference, identities):
            for name in ("local_slice", "exact_divide_linear"):
                monkeypatch.setattr(module, name, unreachable, raising=False)
        calls = []
        local_side = identities._local_side

        def counted(X, arrangement, beta, ctx):
            calls.append(beta)
            return local_side(X, arrangement, beta, ctx)

        monkeypatch.setattr(identities, "_local_side", counted)
        betas = enumerate_curve_classes(p2, 12)[1:]
        for beta in betas:
            assert all(r.ok for r in check_identities(p2, line_conic, beta))
        assert calls == betas

    def test_sides_match_the_capped_series(self, p1p1, two_diagonals):
        report = check_identities(p1p1, two_diagonals, (2, 1))[0]
        capped = i_infinity_nonextended(p1p1, two_diagonals, 6).beta_slice((2, 1))
        assert report.left == pushforward_iota(capped, p1p1, two_diagonals)
        assert report.left.ctx == report.right.ctx == p1p1.context(2, 6)

    def test_every_entry_point_validates(self, p1p1):
        # (2,-1) is not nef, yet meets (1,1) positively and the two classes
        # still intersect, so only the arrangement check can refuse it; a
        # divisor of one coefficient on P1 x P1 must be refused before any
        # intersection number is read off it
        cases = [
            (Divisor("E", (2, -1)), "divisor 'E' not nef"),
            (Divisor("E", (1,)), "divisor 'E': coefficient length mismatch"),
        ]
        for divisor, message in cases:
            bad = DivisorArrangement((Divisor("D", (1, 1)), divisor))
            single = DivisorArrangement((divisor,))
            calls = [
                lambda: check_identities(p1p1, bad, (1, 1)),
                lambda: check_identities(p1p1, single, (1, 1)),
                lambda: local_point_invariant(p1p1, bad, (1, 1)),
                lambda: stabilization_check(p1p1, bad, [RootData((5, 7))], 4),
                lambda: n_orb(p1p1, bad, (1, 1)),
            ]
            for call in calls:
                with pytest.raises(ConfigurationError, match=message):
                    call()
