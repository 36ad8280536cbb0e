from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from oracle import target_slice
from rootstack_gw import (
    Divisor,
    DivisorArrangement,
    TargetSpace,
    base_j_function,
    check_assumption,
    check_coprime,
    enumerate_curve_classes,
    pairing,
)
from rootstack_gw.targets import _j_chain


class TestCurveClasses:
    def test_plane_cap_three(self, p2):
        assert enumerate_curve_classes(p2, 3) == [(0,), (1,)]

    def test_quadric_cap_two(self, p1p1):
        assert enumerate_curve_classes(p1p1, 2) == [(0, 0), (0, 1), (1, 0)]

    def test_quadric_cap_four(self, p1p1):
        got = enumerate_curve_classes(p1p1, 4)
        assert got == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]

    def test_negative_cap_rejected(self, p2):
        with pytest.raises(ValueError):
            enumerate_curve_classes(p2, -1)


class TestPairing:
    def test_line_against_line_class(self):
        assert pairing((1,), (1,)) == 1

    def test_conic_against_degree_two(self):
        assert pairing((2,), (2,)) == 4

    def test_diagonal_on_quadric(self):
        for d1 in range(4):
            for d2 in range(4):
                assert pairing((1, 1), (d1, d2)) == d1 + d2

    def test_bilinearity(self):
        rng = random.Random(11)
        for _ in range(50):
            a = tuple(rng.randint(0, 5) for _ in range(2))
            b = tuple(rng.randint(0, 5) for _ in range(2))
            beta = tuple(rng.randint(0, 5) for _ in range(2))
            total = tuple(x + y for x, y in zip(a, b))
            assert pairing(total, beta) == pairing(a, beta) + pairing(b, beta)


class TestBaseJ:
    def test_degree_zero_is_z(self, p2, p1p1):
        for X in (p2, p1p1, TargetSpace((3,))):
            zero = (0,) * X.rank
            j = base_j_function(X, zero)
            ((key, c),) = j.ordered_terms()
            assert key.zpow == 1 and c == 1 and not any(key.mono)

    def test_plane_degree_one_frozen(self, p2):
        j = base_j_function(p2, (1,))
        by_key = {(k.zpow, k.mono): c for k, c in j.terms.items()}
        assert by_key == {
            (-2, (0,)): F(1),
            (-3, (1,)): F(-3),
            (-4, (2,)): F(6),
        }

    def test_point_coefficient_is_first_descendant(self, p2):
        j = base_j_function(p2, (1,))
        got = j.coefficient(beta=(1,), zpow=-2, mono=(0,), sector=(), lam=()).scalar()
        assert got == 1

    @pytest.mark.parametrize("dim,degree", [(1, 3), (2, 3), (3, 2)])
    def test_matches_synthetic_inversion_oracle(self, dim, degree):
        X = TargetSpace((dim,))
        for d in range(1, degree + 1):
            j = base_j_function(X, (d,))
            got = {(k.mono, k.zpow): c for k, c in j.terms.items()}
            assert got == target_slice((dim,), (d,))

    def test_product_slice_restricts_to_factor(self, p1p1):
        # the (d, 0) slice carries only the first factor's expansion
        j = base_j_function(p1p1, (2, 0))
        got = {(k.mono, k.zpow): c for k, c in j.terms.items()}
        assert got == target_slice((1, 1), (2, 0))
        assert all(k.mono[1] == 0 for k in j.terms)

    def test_product_point_coefficient(self, p1p1):
        j = base_j_function(p1p1, (1, 1))
        got = j.coefficient(
            beta=(1, 1), zpow=-3, mono=(0, 0), sector=(), lam=()
        ).scalar()
        assert got == 1

    def test_cached_slice_is_read_only(self, p2):
        j = base_j_function(p2, (1,))
        key, value = next(iter(j.terms.items()))
        with pytest.raises(TypeError):
            j.terms[key] = value + 1
        # the shared cache entry is a tuple of tuples: no holder can change it
        chain = _j_chain(p2, (1,))
        with pytest.raises(TypeError):
            chain.num[0] += 1
        with pytest.raises(AttributeError):
            chain.den = 1
        assert _j_chain(p2, (1,)) is chain
        assert base_j_function(p2, (1,)).terms[key] == value

    def test_slice_cache_is_bounded(self):
        assert _j_chain.cache_info().maxsize == 1024


class TestHypotheses:
    def test_line_conic_satisfies_condition(self, p2, line_conic):
        assert check_assumption(p2, line_conic, 9).holds

    def test_single_cubic_fails(self, p2, cubic_only):
        report = check_assumption(p2, cubic_only, 9)
        assert not report.holds
        assert (1,) in report.violations

    def test_two_diagonals_satisfy(self, p1p1, two_diagonals):
        assert check_assumption(p1p1, two_diagonals, 8).holds

    def test_coprime(self):
        assert check_coprime((3, 5))
        assert not check_coprime((2, 4))
        assert check_coprime((5,))

    def test_nef_validation(self, p2):
        arr = DivisorArrangement((Divisor("bad", (-1,)),))
        with pytest.raises(ValueError, match="not nef"):
            arr.validate_on(p2)
        with pytest.raises(ValueError, match="trivial"):
            DivisorArrangement((Divisor("zero", (0,)),)).validate_on(p2)

    def test_anticanonical_detection(self, p2, line_conic, conic_only):
        assert line_conic.is_anticanonical(p2)
        assert not conic_only.is_anticanonical(p2)

    def test_intersection_rule(self, p2, p1p1):
        three_lines = DivisorArrangement(
            tuple(Divisor(f"L{i}", (1,)) for i in range(3))
        )
        assert three_lines.intersection_nonempty(p2, (0, 1))
        assert not three_lines.intersection_nonempty(p2, (0, 1, 2))
        same_ruling = DivisorArrangement(
            (Divisor("F1", (0, 1)), Divisor("F2", (0, 1)))
        )
        assert not same_ruling.intersection_nonempty(p1p1, (0, 1))

    def test_intersection_class_is_shared_and_read_only(self, p2, line_conic):
        # one class per support is cached and handed to every caller, so
        # none of them may change it
        cls = line_conic.intersection_class(p2, (0, 1))
        with pytest.raises(TypeError):
            cls.coeffs[(0,)] = F(1)
        with pytest.raises(AttributeError, match="immutable"):
            cls.coeffs = {}
        with pytest.raises(AttributeError, match="immutable"):
            del cls.coeffs
        again = line_conic.intersection_class(p2, (0, 1))
        assert again == cls == p2.cls((1,)) * p2.cls((2,))
        assert dict(again.coeffs) == {(2,): F(2)}
