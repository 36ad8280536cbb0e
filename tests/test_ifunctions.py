from __future__ import annotations

import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction as F
from itertools import groupby, product
from math import lcm

import pytest

from rootstack_gw import (
    Divisor,
    DivisorArrangement,
    RootData,
    SectorFoldWarning,
    TargetSpace,
    base_j_function,
    i_infinity_extended,
    i_infinity_extended_h0,
    i_infinity_nonextended,
    i_local,
    i_relative_smooth,
    i_root_extended,
    i_root_nonextended,
    enumerate_curve_classes,
)
from rootstack_gw import extended
from rootstack_gw.algebra import GradedSeries, print_key, print_row
from rootstack_gw.cli import series_records
from rootstack_gw.extended import (
    MAX_CONTACT_COMBINATIONS,
    _combination_count,
    _contact_vectors,
    extended_rows,
)
from rootstack_gw.ifunctions import (
    ExtendedBudgetError,
    _body_chain,
    _weight_degree,
    ConfigurationError,
    ExtendedDataTooSmall,
    h0_slice,
    infinity_slice,
    root_slice,
)

from oracle import extended_series


class TestRootNonextended:
    def test_degree_zero_term(self, p2, line_conic):
        series = i_root_nonextended(p2, line_conic, RootData((3, 5)), 3)
        slice0 = series.beta_slice((0,))
        ((key, c),) = slice0.ordered_terms()
        assert c == 1 and key.zpow == 1 and key.sector == (0, 0)

    def test_line_conic_at_three_five(self, p2, line_conic):
        # degree 1: single fractional step per divisor leaves 15 * (z^-1 - P z^-2)
        # in the sector of residues (-1 mod 3, -2 mod 5) = (2, 3)
        series = i_root_nonextended(p2, line_conic, RootData((3, 5)), 3)
        got = {
            (k.zpow, k.mono, k.sector): c
            for k, c in series.beta_slice((1,)).terms.items()
        }
        assert got == {
            (-1, (0,), (2, 3)): F(15),
            (-2, (1,), (2, 3)): F(-15),
        }

    def test_non_coprime_rejected(self, p2, line_conic):
        with pytest.raises(ConfigurationError, match="coprime"):
            i_root_nonextended(p2, line_conic, RootData((2, 4)), 3)

    def test_non_nef_rejected(self, p2):
        bad = DivisorArrangement((Divisor("B", (-1,)),))
        with pytest.raises(ValueError, match="not nef"):
            i_root_nonextended(p2, bad, RootData((5,)), 3)

    def test_small_order_ladder(self, p2):
        # single line at order 2, degree 2: ladder has the single step k = 2,
        # so the weight is 2 * J_2 * (P+z)(P+2z) / (P+2z) = 2 * J_2 * (P+z)
        line = DivisorArrangement((Divisor("L", (1,)),))
        series = i_root_nonextended(p2, line, RootData((2,)), 6)
        ctx = series.ctx
        j2 = base_j_function(p2, (2,), ctx)
        factor = ctx.ring
        from rootstack_gw.algebra import CohClass, GradedSeries

        p = GradedSeries.from_class(ctx, CohClass.generator(factor, 0))
        z = GradedSeries.z_power(ctx, 1)
        want = (j2 * (p + z)).scale(2) * GradedSeries.term(ctx, 1, sector=(0,))
        assert series.beta_slice((2,)) == want

    def test_trivial_orders_recover_target_series(self, p2, line_conic):
        # all orders 1: the root construction is trivial and every ladder
        # cancels the full ascending product
        series = i_root_nonextended(p2, line_conic, RootData((1, 1)), 6)
        ctx = series.ctx
        for beta in ((0,), (1,), (2,)):
            assert series.beta_slice(beta) == base_j_function(p2, beta, ctx)

    def test_fold_warning_when_order_divides_degree(self, p2, line_conic):
        with pytest.warns(SectorFoldWarning):
            i_root_nonextended(p2, line_conic, RootData((3, 5)), 9)


class TestHomogeneity:
    def test_finite_order_weights(self, p2, line_conic):
        # z-degree + class degree + orbifold Novikov degree + age = 1 per term
        roots = (3, 5)
        series = i_root_nonextended(p2, line_conic, RootData(roots), 6)
        for key, _ in series.terms.items():
            degs = line_conic.degrees(key.beta)
            novikov = 3 * key.beta[0] - sum(
                F(r - 1, r) * d for r, d in zip(roots, degs)
            )
            age = sum(F(s, r) for s, r in zip(key.sector, roots))
            total = key.zpow + sum(key.mono) + novikov + age
            assert total == 1, key

    def test_limit_weights(self, p2, line_conic):
        series = i_infinity_nonextended(p2, line_conic, 9)
        for key, _ in series.terms.items():
            novikov = 3 * key.beta[0] - line_conic.total_degree(key.beta)
            active = sum(1 for s in key.sector if s)
            assert key.zpow + sum(key.mono) + novikov + active == 1, key

    def test_finite_order_extended_weights(self, p2, line_conic):
        # contact variables weigh 1 - j/r_i, sectors weigh their age s_i/r_i
        roots = (11, 13)
        series = i_root_extended(p2, line_conic, RootData(roots), 3, 6, z_floor=-4)
        for key, _ in series.terms.items():
            degs = line_conic.degrees(key.beta)
            novikov = 3 * key.beta[0] - sum(
                F(r - 1, r) * d for r, d in zip(roots, degs)
            )
            age = sum(F(s, r) for s, r in zip(key.sector, roots))
            xdeg = sum(e * (1 - F(j, roots[i])) for i, j, e in key.xexp)
            assert key.zpow + sum(key.mono) + novikov + age + xdeg == 1, key


class TestInfinityNonextended:
    def test_line_conic_degree_one_frozen(self, p2, line_conic):
        series = i_infinity_nonextended(p2, line_conic, 9)
        got = {
            (k.zpow, k.mono, k.sector): c
            for k, c in series.beta_slice((1,)).terms.items()
        }
        assert got == {
            (-1, (0,), (-1, -2)): F(1),
            (-2, (1,), (-1, -2)): F(-1),
        }

    def test_degree_zero(self, p2, line_conic):
        series = i_infinity_nonextended(p2, line_conic, 3)
        ((key, c),) = series.beta_slice((0,)).ordered_terms()
        assert key.zpow == 1 and key.sector == (0, 0) and c == 1

    def test_empty_intersection_kills_terms(self, p2):
        three_lines = DivisorArrangement(
            tuple(Divisor(f"L{i}", (1,)) for i in range(3))
        )
        series = i_infinity_nonextended(p2, three_lines, 6)
        assert series.beta_slice((1,)).is_zero
        assert series.beta_slice((2,)).is_zero
        assert not series.beta_slice((0,)).is_zero

    def test_missed_divisor_gives_plain_slice(self, p1p1):
        # a fiber class misses a divisor pulled from the other ruling, so the
        # weight is the empty product and only the tangency label changes
        fiber = DivisorArrangement((Divisor("F", (0, 2)),))
        series = i_infinity_nonextended(p1p1, fiber, 4)
        ctx = series.ctx
        want = base_j_function(p1p1, (1, 0), ctx) * ctx_unit(ctx, (0,))
        assert series.beta_slice((1, 0)) == want

    def test_matches_relative_for_single_divisor(self, p2, conic_only, cubic_only):
        for arr in (conic_only, cubic_only):
            assert i_infinity_nonextended(p2, arr, 9) == i_relative_smooth(p2, arr, 9)


def ctx_unit(ctx, sector):
    from rootstack_gw.algebra import GradedSeries

    return GradedSeries.term(ctx, 1, sector=sector)


class TestRootExtended:
    def test_contact_free_slice_is_nonextended(self, p2, line_conic):
        roots = RootData((7, 11))
        extended = i_root_extended(p2, line_conic, roots, 3, 6, z_floor=-6)
        plain = i_root_nonextended(p2, line_conic, roots, 6)
        assert extended.coefficient(xexp=()) == plain.in_context(extended.ctx)

    def test_degree_zero_single_contact_term(self, p2, line_conic):
        # the degree-zero z cancels the 1/z contact weight: x_{11} lands at z^0
        series = i_root_extended(p2, line_conic, RootData((7, 11)), 2, 3, z_floor=-3)
        got = series.beta_slice((0,)).coefficient(xexp=((0, 1, 1),))
        ((key, c),) = got.ordered_terms()
        assert c == 1 and key.zpow == 0 and key.sector == (1, 0)

    def test_contact_order_must_stay_below_orders(self, p2, line_conic):
        with pytest.raises(ConfigurationError, match="below every root order"):
            i_root_extended(p2, line_conic, RootData((3, 5)), 3, 6, z_floor=-2)

    def test_limit_of_extended_contact_block(self, p2, line_conic):
        # coefficient of x_{11} x_{21}^2 at degree 1, rescaled by the orders of
        # the divisors with negative net tangency (none here), matches the
        # untwisted limit block
        roots = RootData((7, 11))
        extended = i_root_extended(p2, line_conic, roots, 3, 3, z_floor=-4)
        got = extended.beta_slice((1,)).coefficient(
            xexp=((0, 1, 1), (1, 1, 2)), sector=(0, 0)
        )
        h0 = i_infinity_extended_h0(p2, line_conic, 3, 3)
        want = h0.beta_slice((1,)).coefficient(
            xexp=((0, 1, 1), (1, 1, 2)), sector=(0, 0)
        )
        assert got == want.in_context(extended.ctx)


class TestInfinityExtended:
    def test_untwisted_slice_matches_direct_builder(self, p2, line_conic):
        full = i_infinity_extended(p2, line_conic, 6, 9, z_floor=-1)
        h0 = i_infinity_extended_h0(p2, line_conic, 6, 9)
        for key, c in full.terms.items():
            if not any(key.sector):
                assert h0.terms.get(key) == c, key

    def test_h0_maximal_tangency_coefficient(self, p2, line_conic):
        # x_{1d} x_{2,2d} coefficient carries (2d)!/(d!)^2 z^-1 on the unit
        from math import factorial

        h0 = i_infinity_extended_h0(p2, line_conic, 8, 12)
        for d in (1, 2, 3, 4):
            got = h0.beta_slice((d,)).coefficient(
                xexp=((0, d, 1), (1, 2 * d, 1)), beta=(d,)
            )
            coeff = got.coefficient(zpow=-1, mono=(0,), sector=(0, 0), lam=(0, 0))
            assert coeff.scalar() == F(factorial(2 * d), factorial(d) ** 2)

    def test_h0_contact_one_coefficient(self, p2, line_conic):
        # x_11 x_21^2 at degree 1: J * (P+z)(2P+z)(2P+2z) / (2 z^3) has
        # untwisted point part z^-2
        h0 = i_infinity_extended_h0(p2, line_conic, 2, 3)
        got = h0.beta_slice((1,)).coefficient(
            xexp=((0, 1, 1), (1, 1, 2)), beta=(1,)
        )
        assert got.coefficient(zpow=-2, mono=(0,), sector=(0, 0), lam=(0, 0)).scalar() == 1

    def test_bound_must_reach_largest_tangency(self, p2, line_conic):
        with pytest.raises(ExtendedDataTooSmall, match=r"beta=\(2,\)"):
            i_infinity_extended_h0(p2, line_conic, 3, 6)

    def test_degree_zero_block(self, p2, line_conic):
        h0 = i_infinity_extended_h0(p2, line_conic, 4, 6)
        ((key, c),) = h0.beta_slice((0,)).ordered_terms()
        assert key.zpow == 1 and c == 1 and not key.xexp


class TestSlices:
    def test_empty_support_slice_is_zero(self, p2):
        three = DivisorArrangement(tuple(Divisor(f"L{i}", (1,)) for i in range(3)))
        ctx = p2.context(3, 3)
        assert infinity_slice(p2, three, (1,), ctx) == GradedSeries.zero(ctx)
        finite = p2.context(3, 3, roots=(2, 3, 5))
        assert root_slice(p2, three, (1,), finite) == GradedSeries.zero(finite)

    def test_h0_slice_checks_only_its_own_class(self, p2, line_conic):
        ctx = p2.context(2, 6)
        with pytest.raises(ExtendedDataTooSmall, match=r"beta=\(2,\)"):
            h0_slice(p2, line_conic, 3, (2,), ctx)
        capped = i_infinity_extended_h0(p2, line_conic, 2, 3).beta_slice((1,))
        assert h0_slice(p2, line_conic, 2, (1,), ctx) == capped.in_context(ctx)

    def test_h0_slice_floor_applies_after_the_tilings(
        self, p2, p1p1, line_conic, two_diagonals
    ):
        # the target slice's z powers below the floor come back up through the
        # ascending products, so only the tiled terms may be cut, and tilings
        # are pruned only past the floor; on the two anticanonical pairs every
        # class but 0 keeps nothing at z >= 0, the other arrangements keep
        # terms there (the quartic at the most parts the floor allows)
        conics = DivisorArrangement((Divisor("A", (2,)), Divisor("B", (2,))))
        mixed = DivisorArrangement((Divisor("A", (1, 1)), Divisor("B", (1, 2))))
        quartic = DivisorArrangement((Divisor("Q", (4,)),))
        cases = (
            (p2, line_conic, 9, 0),
            (p1p1, two_diagonals, 8, 0),
            (p2, conics, 6, 2),
            (p1p1, mixed, 6, 6),
            (p2, quartic, 6, 2),
        )
        for X, arrangement, cap, kept_classes in cases:
            full = X.context(arrangement.n, cap)
            floored = X.context(arrangement.n, cap, z_floor=0)
            kept = 0
            for beta in enumerate_curve_classes(X, cap):
                m = max(1, *arrangement.degrees(beta))
                unfloored = h0_slice(X, arrangement, m, beta, full)
                expected = GradedSeries(
                    floored,
                    {k: c for k, c in unfloored.terms.items() if k.zpow >= 0},
                )
                got = h0_slice(X, arrangement, m, beta, floored)
                assert got == expected, (X, beta)
                kept += any(beta) and not expected.is_zero
            assert kept == kept_classes, X


class TestExtendedEdges:
    def test_root_extended_fold_warning(self, p2, line_conic):
        with pytest.warns(SectorFoldWarning):
            i_root_extended(p2, line_conic, RootData((3, 5)), 2, 9)

    @pytest.mark.parametrize("extended", [False, True], ids=["root", "root-extended"])
    def test_fold_warning_points_at_the_caller(self, p2, line_conic, extended):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if extended:
                i_root_extended(p2, line_conic, RootData((3, 5)), 2, 9)
            else:
                i_root_nonextended(p2, line_conic, RootData((3, 5)), 9)
        folds = [w for w in caught if issubclass(w.category, SectorFoldWarning)]
        assert folds and {w.filename for w in folds} == {__file__}

    def test_fold_warnings_name_only_shifts_that_reach_the_floor(
        self, p2, line_conic, monkeypatch
    ):
        # the README job at m 2, cap 4 and the command line's floor -6: the
        # shift tuples that cannot reach the floor are skipped before their
        # sector is labelled, so (every sector meeting here) each folded
        # shift of a body built is warned about once, and nothing else is
        built = []

        def counting(X, arrangement, beta, shifts, roots):
            built.append(shifts)
            return _body_chain(X, arrangement, beta, shifts, roots)

        monkeypatch.setattr(extended, "_body_chain", counting)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            i_root_extended(p2, line_conic, RootData((7, 11)), 2, 4, z_floor=-6)
        warned = [str(w.message) for w in caught if w.category is SectorFoldWarning]
        fold = "tangency shift {} folds into the untwisted sector at root order {}"
        want = {fold.format(-7, 7), fold.format(-14, 7), fold.format(-11, 11)}
        assert set(warned) == want
        folded = [
            fold.format(s, r)
            for shifts in built
            for s, r in zip(shifts, (7, 11))
            if s and s % r == 0
        ]
        assert sorted(folded) == sorted(warned)

    def test_missing_floor_rejected(self, p2, line_conic):
        with pytest.raises(ConfigurationError, match="finite z floor"):
            i_infinity_extended(p2, line_conic, 2, 3, z_floor=None)

    def test_infinity_extended_term_count(self, p2, line_conic):
        series = i_infinity_extended(p2, line_conic, 4, 6, z_floor=-4)
        assert len(series) == 4255

    def test_bodies_take_no_sparse_products(self, p2, p1p1, line_conic, monkeypatch):
        # every extended body is one dense chain, turned into a series once
        def unreachable(self, other):
            raise AssertionError("sparse series product formed")

        monkeypatch.setattr(GradedSeries, "__mul__", unreachable)
        monkeypatch.setattr(GradedSeries, "__rmul__", unreachable)
        mixed = DivisorArrangement((Divisor("A", (1, 1)), Divisor("B", (1, 2))))
        assert len(i_root_extended(p2, line_conic, RootData((3, 5)), 2, 6, z_floor=-3))
        assert len(i_infinity_extended(p2, line_conic, 2, 6, z_floor=-3))
        assert len(i_root_extended(p1p1, mixed, RootData((3, 5)), 2, 4, z_floor=-2))
        assert len(i_infinity_extended(p1p1, mixed, 2, 4, z_floor=-2))


def _flat(series) -> dict:
    assert not any(any(k.lam) for k in series.terms)
    return {(k.beta, k.zpow, k.xexp, k.sector, k.mono): c for k, c in series.terms.items()}


def _oracle_check(X, coeffs, m, cap, floor, roots):
    """Both extended builders at every cap up to ``cap`` against the oracle."""
    arrangement = DivisorArrangement(
        tuple(Divisor(f"D{i}", c) for i, c in enumerate(coeffs))
    )
    want = extended_series(X.factors, coeffs, m, cap, floor, roots)
    for c in range(cap + 1):
        if roots is None:
            series = i_infinity_extended(X, arrangement, m, c, z_floor=floor)
        else:
            series = i_root_extended(X, arrangement, RootData(roots), m, c, z_floor=floor)
        kept = {k: v for k, v in want.items() if X.anticanonical_degree(k[0]) <= c}
        assert _flat(series) == kept, (coeffs, roots, m, c)


class TestExtendedOracle:
    """Every sector of both extended builders against brute-force expansion."""

    @pytest.mark.parametrize("roots", [None, (7, 11), (3, 5)])
    @pytest.mark.parametrize("floor", [-1, -3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_full_series(self, p2, line_conic, m, floor, roots):
        if roots is not None and m >= min(roots):
            with pytest.raises(ConfigurationError, match="below every root order"):
                i_root_extended(p2, line_conic, RootData(roots), m, 3, z_floor=floor)
            return
        _oracle_check(p2, ((1,), (2,)), m, 3, floor, roots)

    @pytest.mark.parametrize(
        "coeffs, roots",
        [
            (((1, 1), (1, 1)), (5, 7)),
            (((0, 1),), (5,)),
            (((1, 1), (1, 2)), (5, 7)),
        ],
        ids=["diagonals", "fibre", "mixed"],
    )
    @pytest.mark.parametrize("finite", [False, True], ids=["infinite", "finite"])
    @pytest.mark.parametrize("m", [1, 2])
    def test_product_target(self, p1p1, coeffs, roots, finite, m):
        _oracle_check(p1p1, coeffs, m, 4, -2, roots if finite else None)

    @pytest.mark.parametrize("roots", [None, (5, 7), (3, 5)])
    @pytest.mark.parametrize("m, cap", [(1, 8), (2, 4)])
    def test_projective_three(self, roots, m, cap):
        # two quadrics in P^3: the classes up to the cap meet each in 2d points
        _oracle_check(TargetSpace((3,)), ((2,), (2,)), m, cap, -2, roots)

    def test_grid_reaches_zero_lower_step(self, p2, line_conic):
        # x_{11}^3 at degree 0 and order 3 leaves the line net shift -3, divisible
        # by its order; the lower ladder is the single step k = 0, the class P/3,
        # so the term is z * (P/3) * z^-3 / 3! in the folded untwisted sector
        key = ((0,), -2, ((0, 1, 3),), (0, 0), (1,))
        assert extended_series((2,), ((1,), (2,)), 1, 0, -3, (3, 5))[key] == F(1, 18)
        with pytest.warns(SectorFoldWarning):
            series = i_root_extended(p2, line_conic, RootData((3, 5)), 1, 0, z_floor=-3)
        assert _flat(series)[key] == F(1, 18)


class TestRelative:
    def test_degree_zero(self, p2, conic_only):
        series = i_relative_smooth(p2, conic_only, 6)
        ((key, c),) = series.beta_slice((0,)).ordered_terms()
        assert key.zpow == 1 and key.sector == (0,) and c == 1

    def test_cubic_degree_one_frozen(self, p2, cubic_only):
        # J * (3P+z)(3P+2z) = 2 + 3P z^-1 - 6P^2 z^-2 in sector (-3)
        series = i_relative_smooth(p2, cubic_only, 3)
        got = {(k.zpow, k.mono): c for k, c in series.beta_slice((1,)).terms.items()}
        assert got == {
            (0, (0,)): F(2),
            (-1, (1,)): F(3),
            (-2, (2,)): F(-6),
        }
        assert all(k.sector == (-3,) for k in series.beta_slice((1,)).terms)

    def test_extended_single_contact_coefficient(self, p2, conic_only):
        # x_2 coefficient at degree 1: J * (2P+z)(2P+2z) / z = 2 z^-1 - 2 P^2 z^-3
        series = i_infinity_extended_h0(p2, conic_only, 4, 3)
        got = series.beta_slice((1,)).coefficient(xexp=((0, 2, 1),), beta=(1,))
        flat = {(k.zpow, k.mono): c for k, c in got.terms.items()}
        assert flat == {(-1, (0,)): F(2), (-3, (2,)): F(-2)}


class TestLocal:
    def test_degree_zero(self, p2, line_conic):
        series = i_local(p2, line_conic, 3)
        ((key, c),) = series.beta_slice((0,)).ordered_terms()
        assert key.zpow == 1 and c == 1 and not any(key.lam)

    def test_line_conic_equivariant_leading_term(self, p2, line_conic):
        # lam1 lam2^2 multiplies the bare degree-one slice of the target series
        series = i_local(p2, line_conic, 3)
        got = series.beta_slice((1,)).coefficient(lam=(1, 2))
        ctx = series.ctx
        assert got == base_j_function(p2, (1,), ctx).beta_slice((1,))

    def test_line_conic_nonequivariant_part_frozen(self, p2, line_conic):
        # (-P)(-2P)(-2P-z) = -2 P^2 z, so the bare part of the slice is -2 P^2 z^-1
        series = i_local(p2, line_conic, 3)
        got = series.beta_slice((1,)).without_lambda()
        flat = {(k.zpow, k.mono): c for k, c in got.terms.items()}
        assert flat == {(-1, (2,)): F(-2)}

    def test_cubic_nonequivariant_part_frozen(self, p2, cubic_only):
        # [(-3P)(-3P-z)(-3P-2z)] J = -9 P^2 z^-1 - 6 P
        series = i_local(p2, cubic_only, 3)
        got = series.beta_slice((1,)).without_lambda()
        flat = {(k.zpow, k.mono): c for k, c in got.terms.items()}
        assert flat == {(-1, (2,)): F(-9), (0, (1,)): F(-6)}


class TestContactBudget:
    @pytest.mark.parametrize(
        "costs, budget",
        [
            ([[1, 1]], 6),
            ([[1, 1, 1], [1, 1, 1]], 4),
            ([[10, 6], [12, 9]], 60),
            ([[4, 3], [5, 4], [7, 6]], 30),
            ([[1], [1]], -1),
        ],
    )
    def test_count_matches_enumeration(self, costs, budget):
        per_divisor = [
            [
                sum(divisor[j - 1] * e for _, j, e in xexp)
                for xexp in _contact_vectors(i, divisor, budget).xexp
            ]
            for i, divisor in enumerate(costs)
        ]
        want = sum(1 for choice in product(*per_divisor) if sum(choice) <= budget)
        count, steps = _combination_count(costs, budget, 10**6)
        assert count == want and steps <= 3 * len(costs) * max(count, 1)
        assert _combination_count(costs, budget, steps - 1) is None or steps == 0

    def test_count_gives_up_past_its_steps(self):
        # m = 64 at root orders just above it: far too many monomials to count
        r = (65, 67)
        scale = r[0] * r[1]
        costs = [[(ri - j) * (scale // ri) for j in range(1, 65)] for ri in r]
        assert _combination_count(costs, 70 * scale, 3 * 2 * 1000) is None

    def test_refused_before_any_body(self, p2, line_conic, monkeypatch):
        def unreachable(*args):
            raise AssertionError("contact monomials enumerated")

        monkeypatch.setattr(extended, "_contact_vectors", unreachable)
        with pytest.raises(ExtendedBudgetError, match="up to 251,940 contact"):
            monkeypatch.setattr(extended, "MAX_CONTACT_COMBINATIONS", 200_000)
            i_infinity_extended(p2, line_conic, 6, 5, z_floor=-7)
        assert MAX_CONTACT_COMBINATIONS == 2_000_000

    def test_readme_finite_job_at_cap_two_passes_the_count(
        self, p2, line_conic, monkeypatch
    ):
        # roots 7, 11, m 6 and the command line's floor -(cap + 2): the count
        # admits the job, so the build goes on to enumerate contact monomials
        class Counted(Exception):
            pass

        def counted(*args):
            raise Counted

        monkeypatch.setattr(extended, "_contact_vectors", counted)
        with pytest.raises(Counted):
            i_root_extended(p2, line_conic, RootData((7, 11)), 6, 2, z_floor=-4)


def _budget_tuples(X, arrangement, m, cap, floor, roots):
    """(beta, shifts) of every shift tuple with a contact monomial per
    divisor within the contact budget, as the extended builder defines it:
    1 - deg(beta) - floor plus sum_i d_i (r_i - 1) / r_i (d_i at infinite
    order), in units of 1 / lcm(roots)."""
    if roots is None:
        scale, costs = 1, [[1] * m for _ in arrangement.divisors]
    else:
        scale = lcm(*roots)
        costs = [[(r - j) * (scale // r) for j in range(1, m + 1)] for r in roots]
    for beta in enumerate_curve_classes(X, cap):
        degs = arrangement.degrees(beta)
        budget = (1 - X.anticanonical_degree(beta) - floor) * scale
        for i, d in enumerate(degs):
            budget += d if roots is None else d * (roots[i] - 1) * (scale // roots[i])
        per_divisor = [
            {degs[i] - red for red in _contact_vectors(i, costs[i], budget).reduction}
            for i in range(len(degs))
        ]
        for shifts in product(*per_divisor):
            yield beta, shifts


# small jobs on P^2, P^1 x P^1 and P^3: target, divisor classes, finite orders
BOUND_JOBS = [
    ((2,), ((1,), (2,)), (7, 11)),
    ((1, 1), ((1, 1), (1, 1)), (5, 7)),
    ((3,), ((2,), (2,)), (5, 7)),
]
BOUND_IDS = ["line-conic", "diagonals", "two-quadrics"]


def _job(factors, coeffs):
    X = TargetSpace(factors)
    divisors = tuple(Divisor(f"D{i}", c) for i, c in enumerate(coeffs))
    return X, DivisorArrangement(divisors)


def _build(X, arrangement, m, cap, floor, roots):
    if roots is None:
        return i_infinity_extended(X, arrangement, m, cap, z_floor=floor)
    return i_root_extended(X, arrangement, RootData(roots), m, cap, z_floor=floor)


class TestTopZBound:
    """The closed-form body degree that lets the extended builder skip a
    shift tuple before building its body."""

    @pytest.mark.parametrize("finite", [False, True], ids=["infinite", "finite"])
    @pytest.mark.parametrize("factors, coeffs, orders", BOUND_JOBS, ids=BOUND_IDS)
    def test_degree_bounds_the_top_z_power(self, factors, coeffs, orders, finite):
        X, arrangement = _job(factors, coeffs)
        roots = orders if finite else None
        ctx = X.context(arrangement.n, 6)
        checked = 0
        for beta, shifts in _budget_tuples(X, arrangement, 3, 6, -2, roots):
            degree = 1 - X.anticanonical_degree(beta) + sum(
                _weight_degree(d, s, None if roots is None else roots[i])
                for i, (d, s) in enumerate(zip(arrangement.degrees(beta), shifts))
            )
            body = _body_chain(X, arrangement, beta, shifts, roots).series(ctx, beta)
            if roots is None:
                assert max(k.zpow for k in body.terms) == degree, (beta, shifts)
            elif not body.is_zero:
                assert max(k.zpow for k in body.terms) <= degree, (beta, shifts)
            checked += 1
        assert checked > 100

    @pytest.mark.parametrize("floor", [0, -1, -3])
    @pytest.mark.parametrize("factors, coeffs, orders", BOUND_JOBS, ids=BOUND_IDS)
    def test_infinite_order_builds_only_bodies_that_yield(
        self, factors, coeffs, orders, floor, monkeypatch
    ):
        X, arrangement = _job(factors, coeffs)
        built = []

        def counting(X, arrangement, beta, shifts, roots):
            built.append((beta, tuple(-s for s in shifts)))
            return _body_chain(X, arrangement, beta, shifts, roots)

        monkeypatch.setattr(extended, "_body_chain", counting)
        series = i_infinity_extended(X, arrangement, 3, 6, z_floor=floor)
        # at infinite order the sector is the negated shift tuple
        yielding = {(k.beta, k.sector) for k in series.terms}
        assert built and sorted(built) == sorted(yielding)

    def test_floor_zero_certificate_builds_only_bodies_at_z0(
        self, p1p1, two_diagonals, monkeypatch
    ):
        # the invariants command's certificate on the diagonals at cap 8
        # (m 4): 9 of the 375 shift tuples in the contact budget reach z^0
        built = []

        def counting(*args):
            built.append(args[2:4])
            return _body_chain(*args)

        monkeypatch.setattr(extended, "_body_chain", counting)
        series = i_infinity_extended(p1p1, two_diagonals, 4, 8, z_floor=0)
        assert len(built) == len(series) == 9
        tuples = _budget_tuples(p1p1, two_diagonals, 4, 8, 0, None)
        assert sum(1 for _ in tuples) == 375

    @pytest.mark.parametrize("finite", [False, True], ids=["infinite", "finite"])
    @pytest.mark.parametrize("factors, coeffs, orders", BOUND_JOBS, ids=BOUND_IDS)
    def test_count_bounds_the_combinations_formed(
        self, factors, coeffs, orders, finite, monkeypatch
    ):
        # the up-front count is an upper bound on the combinations each class
        # keeps a term of
        X, arrangement = _job(factors, coeffs)
        roots = orders if finite else None
        formed, counted = _formed_and_counted(X, arrangement, 3, 6, -2, roots, monkeypatch)
        assert len(formed) > 1
        for beta, n in formed.items():
            assert n <= counted[beta], beta

    @pytest.mark.parametrize("m, cap, floor", [(3, 6, -2), (2, 4, -6), (3, 5, 0)])
    @pytest.mark.parametrize("finite", [False, True], ids=["infinite", "finite"])
    @pytest.mark.parametrize("factors, coeffs, orders", BOUND_JOBS, ids=BOUND_IDS)
    def test_count_within_a_factor_of_the_combinations_formed(
        self, factors, coeffs, orders, finite, m, cap, floor, monkeypatch
    ):
        X, arrangement = _job(factors, coeffs)
        roots = orders if finite else None
        formed, counted = _formed_and_counted(
            X, arrangement, m, cap, floor, roots, monkeypatch
        )
        assert 0 < sum(counted.values()) <= 8 * sum(formed.values())


def _formed_and_counted(X, arrangement, m, cap, floor, roots, monkeypatch):
    """(formed, counted): the contact combinations the extended series keeps
    a term of, as its distinct (class, contact monomial) pairs per class,
    and the builder's up-front count per class."""
    counted = {}
    real_check = extended._check_contact_budget

    def check(costs, budgets):
        # the budgets come in the order of the classes
        for beta, budget in zip(enumerate_curve_classes(X, cap), budgets):
            counted[beta] = _combination_count(costs, budget, 10**7)[0]
        real_check(costs, budgets)

    monkeypatch.setattr(extended, "_check_contact_budget", check)
    series = _build(X, arrangement, m, cap, floor, roots)
    formed = Counter(beta for beta, _ in {(k.beta, k.xexp) for k in series.terms})
    return formed, counted


def _whole_records(series):
    """The records of a whole series, its terms sorted by ``print_key``."""
    items = sorted(series.terms.items(), key=print_key)
    classes = [
        (beta, [print_row(key, c) for key, c in group])
        for beta, group in groupby(items, key=lambda item: item[0].beta)
    ]
    return list(series_records(classes))


class TestExtendedRows:
    """The per-class rows the command line writes, against the oracle and
    against the whole series the library builds."""

    @pytest.mark.parametrize("finite", [False, True], ids=["infinite", "finite"])
    @pytest.mark.parametrize("factors, coeffs, orders", BOUND_JOBS, ids=BOUND_IDS)
    def test_rows_are_the_oracle_series_in_print_order(
        self, factors, coeffs, orders, finite
    ):
        X, arrangement = _job(factors, coeffs)
        roots = orders if finite else None
        ctx, classes = extended_rows(
            X, arrangement, 2, 4, -2, None if roots is None else RootData(roots)
        )
        assert ctx == X.context(arrangement.n, 4, z_floor=-2, roots=roots)
        got, betas = {}, []
        for beta, rows in classes:
            betas.append(beta)
            rows = list(rows)
            # keys are unique within a class, so the rows increase strictly
            assert all(a < b for a, b in zip(rows, rows[1:])), beta
            for negz, mono, xexp, sector, lam, c in rows:
                assert lam == (0,) * arrangement.n
                got[(beta, -negz, xexp, sector, mono)] = c
        assert betas == enumerate_curve_classes(X, 4)
        assert got == extended_series(factors, coeffs, 2, 4, -2, roots)

    def test_rows_are_never_held(self, p2, line_conic):
        # the README job at cap 4 (m 6, the command line's floor -6): its
        # records are written holding one class's bodies and contact lists,
        # never the class's rows (the larger of its two classes has 70,366)
        classes = extended_rows(p2, line_conic, 6, 4, -6)[1]
        tracemalloc.start()
        try:
            count = sum(1 for _ in series_records(classes))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 120_754
        assert peak < 4_000_000, peak

    @pytest.mark.parametrize(
        "factors, coeffs, roots, m, cap, floor, folds",
        [
            ((2,), ((1,), (2,)), None, 3, 4, -6, False),
            ((2,), ((1,), (2,)), (7, 11), 2, 4, -6, True),
            ((2,), ((1,), (2,)), (3, 5), 2, 9, -1, True),
            ((1, 1), ((1, 1), (1, 1)), None, 3, 6, -2, False),
            ((1, 1), ((1, 1), (1, 1)), (5, 7), 3, 6, -2, True),
            ((3,), ((2,), (2,)), (5, 7), 3, 6, -2, True),
        ],
        ids=["line-conic", "readme-fold", "fold", "diagonals", "diagonals-finite", "quadrics"],
    )
    def test_records_equal_the_whole_series_records(
        self, factors, coeffs, roots, m, cap, floor, folds
    ):
        X, arrangement = _job(factors, coeffs)
        orders = None if roots is None else RootData(roots)

        def folds_of(build):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = build()
            return out, [str(w.message) for w in caught if w.category is SectorFoldWarning]

        streamed, streamed_folds = folds_of(
            lambda: list(series_records(extended_rows(X, arrangement, m, cap, floor, orders)[1]))
        )
        whole, whole_folds = folds_of(lambda: _build(X, arrangement, m, cap, floor, roots))
        # both paths warn about the same folds
        assert streamed_folds == whole_folds and bool(whole_folds) == folds
        assert len(streamed) == len(whole) > 20
        assert streamed == _whole_records(whole)
