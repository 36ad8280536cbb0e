from __future__ import annotations

from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    binomial_constant_term,
    product_point_degree,
    square_lattice_constant_term,
    trinomial_constant_term,
)
from rootstack_gw import (
    LaurentPolynomial,
    PeriodError,
    classical_period_orbifold,
    compare_periods,
    laurent_classical_period,
    quantum_period,
    regularize,
)
from rootstack_gw import ifunctions, invariants
from rootstack_gw.ifunctions import h0_body
from rootstack_gw.targets import _j_chain, enumerate_curve_classes


class TestQuantumPeriod:
    def test_pinned_head(self, p2):
        seq = quantum_period(p2, 4)
        assert seq[0] == 1 and seq[1] == 0

    def test_plane_coefficients(self, p2):
        seq = quantum_period(p2, 9)
        for m in range(10):
            if m >= 2 and m % 3 == 0:
                assert seq[m] == F(1, factorial(m // 3) ** 3)
            elif m >= 2:
                assert seq[m] == 0
        assert seq[6] == F(1, 8)

    def test_quadric_coefficients(self, p1p1):
        seq = quantum_period(p1p1, 8)
        for m in range(2, 9):
            if m % 2:
                assert seq[m] == 0
            else:
                s = m // 2
                want = sum(
                    product_point_degree(d1, s - d1) for d1 in range(s + 1)
                )
                assert seq[m] == want
        assert seq[2] == 2

    def test_kind_guard(self, p2):
        seq = quantum_period(p2, 4)
        reg = regularize(seq)
        assert reg.kind == "regularized"
        with pytest.raises(ValueError, match="regularize"):
            regularize(reg)


class TestRegularize:
    def test_factorial_scaling(self, p2):
        reg = regularize(quantum_period(p2, 9))
        assert reg[3] == 6 and reg[6] == 90 and reg[9] == 1680
        assert all(reg[m] == 0 for m in (1, 2, 4, 5, 7, 8))


class TestClassicalPeriod:
    def test_head_conventions(self, p2, line_conic):
        result = classical_period_orbifold(p2, line_conic, 6)
        assert result.sequence[0] == 1 and result.sequence[1] == 0

    def test_first_contribution(self, p2, line_conic):
        # degree 3 collects 3!/(1! 2!) times the degree-one count 2
        result = classical_period_orbifold(p2, line_conic, 6)
        assert result.sequence[3] == 6

    def test_degree_six_forces_count_six(self, p2, line_conic):
        result = classical_period_orbifold(p2, line_conic, 6)
        # 6!/(2! 4!) * N = 90 forces N = 6 for the degree-two count
        assert result.sequence[6] == 90

    def test_unrealized_tuples_reported(self, p2, line_conic):
        result = classical_period_orbifold(p2, line_conic, 6)
        skipped = set(result.skipped_tuples)
        assert (3, (3, 0)) in skipped and (3, (0, 3)) in skipped
        assert (3, (1, 2)) not in skipped

    def test_gaps_are_zero(self, p2, line_conic):
        result = classical_period_orbifold(p2, line_conic, 9)
        assert all(result.sequence[m] == 0 for m in (1, 2, 4, 5, 7, 8))

    def test_each_class_body_built_once(self, p1p1, two_diagonals, monkeypatch):
        # the counts and the mirror-map certificate come from one body
        calls = []

        def counted(X, arrangement, beta, ctx):
            calls.append(beta)
            return h0_body(X, arrangement, beta, ctx)

        for module in (ifunctions, invariants):
            monkeypatch.setattr(module, "h0_body", counted)
        classical_period_orbifold(p1p1, two_diagonals, 10)
        assert sorted(calls) == enumerate_curve_classes(p1p1, 10)

    def test_non_anticanonical_refused(self, p2, conic_only):
        from rootstack_gw import ConfigurationError

        with pytest.raises(ConfigurationError, match="anticanonical"):
            classical_period_orbifold(p2, conic_only, 6)

    def test_condition_failure_refused(self, p2, cubic_only):
        with pytest.raises(PeriodError, match="mirror map"):
            classical_period_orbifold(p2, cubic_only, 6)


class TestComparison:
    def test_each_target_slice_built_once(self, p1p1, two_diagonals):
        # the quantum period and the class bodies share one slice per class
        _j_chain.cache_clear()
        compare_periods(p1p1, two_diagonals, 16)
        info = _j_chain.cache_info()
        assert info.misses == info.currsize == 45
        assert len(enumerate_curve_classes(p1p1, 16)) == 45

    def test_plane(self, p2, line_conic):
        outcome = compare_periods(p2, line_conic, 9)
        assert outcome.ok and outcome.first_mismatch() is None

    def test_quadric(self, p1p1, two_diagonals):
        outcome = compare_periods(p1p1, two_diagonals, 8)
        assert outcome.ok

    def test_vacuous_cap(self, p2, line_conic):
        outcome = compare_periods(p2, line_conic, 1)
        assert outcome.ok
        assert outcome.regularized.coeffs == (F(1), F(0))

    def test_nonnegative_values_regression(self, p2, p1p1, line_conic, two_diagonals):
        for X, arr, cap in ((p2, line_conic, 9), (p1p1, two_diagonals, 8)):
            outcome = compare_periods(X, arr, cap)
            assert all(c >= 0 for c in outcome.regularized.coeffs)
            assert all(c >= 0 for c in outcome.classical.coeffs)


class TestLaurent:
    def test_trinomial(self):
        f = LaurentPolynomial.parse("x + y + 1/(x*y)")
        seq = laurent_classical_period(f, 9)
        for d in range(10):
            assert seq[d] == trinomial_constant_term(d)

    def test_binomial(self):
        f = LaurentPolynomial.parse("x + 1/x")
        seq = laurent_classical_period(f, 8)
        for d in range(9):
            assert seq[d] == binomial_constant_term(d)

    def test_constant_one(self):
        f = LaurentPolynomial.parse("1")
        seq = laurent_classical_period(f, 5)
        assert all(c == 1 for c in seq.coeffs)

    def test_quadric_mirror(self):
        f = LaurentPolynomial.parse("x + 1/x + y + 1/y")
        seq = laurent_classical_period(f, 8)
        for d in range(9):
            assert seq[d] == square_lattice_constant_term(d)

    def test_parser_coefficients_and_negative_powers(self):
        f = LaurentPolynomial.parse("2*x^2*y^-1 - 3/2")
        assert f.variables == ("x", "y")
        flat = dict(f.terms)
        assert flat == {(2, -1): F(2), (0, 0): F(-3, 2)}

    def test_parser_reciprocal_monomial(self):
        f = LaurentPolynomial.parse("1/(x*y^2)")
        assert dict(f.terms) == {(-1, -2): F(1)}


class TestLaurentParser:
    @pytest.mark.parametrize(
        "text, terms",
        [
            ("x+y+1/(x*y)", {(-1, -1): F(1), (0, 1): F(1), (1, 0): F(1)}),
            ("x+1/x+y+1/y", {(-1, 0): 1, (0, -1): 1, (0, 1): 1, (1, 0): 1}),
            ("2*x^2*y^-1 - 3/2", {(0, 0): F(-3, 2), (2, -1): F(2)}),
            ("1/x^2", {(-2,): F(1)}),
            ("2/x", {(-1,): F(2)}),
        ],
    )
    def test_accepted_forms(self, text, terms):
        assert dict(LaurentPolynomial.parse(text).terms) == terms

    def test_divisor_group_keeps_its_integers(self):
        # the integer inside the parentheses used to be dropped silently
        assert dict(LaurentPolynomial.parse("1/(2*x)").terms) == {(-1,): F(1, 2)}

    @pytest.mark.parametrize(
        "text", ["2x+1/x", "x**2", "x^1.5", "x^", "x--y", "x y", "", "(x*y)", "x^+1"]
    )
    def test_malformed_text_rejected(self, text):
        with pytest.raises(ValueError, match="cannot parse"):
            LaurentPolynomial.parse(text)

    def test_division_by_zero_rejected(self):
        with pytest.raises(ValueError, match="division by zero"):
            LaurentPolynomial.parse("x + 1/0")


def _render(f: LaurentPolynomial) -> str:
    """Canonical text of f: every variable written in every term, exponent
    1 and coefficient 1 left implicit."""
    text = ""
    for exps, c in f.terms:
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(f.variables, exps)]
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        sign = ("-" if c < 0 else "") if not text else (" - " if c < 0 else " + ")
        text += sign + "*".join(factors)
    return text


@st.composite
def laurent_polynomials(draw) -> LaurentPolynomial:
    variables = st.sampled_from(["a", "x", "y", "z2"])
    names = sorted(draw(st.lists(variables, max_size=3, unique=True)))
    exponents = st.tuples(*[st.integers(-4, 4) for _ in names])
    coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(bool)
    data = draw(st.dictionaries(exponents, coeffs, min_size=1, max_size=5))
    return LaurentPolynomial.from_dict(tuple(names), data)


@settings(max_examples=200, deadline=None)
@given(laurent_polynomials())
def test_parse_round_trips_canonical_rendering(f):
    assert LaurentPolynomial.parse(_render(f)) == f


def test_quadric_laurent_matches_regularized(p1p1, two_diagonals):
    # three-way agreement on the quadric as well
    reg = regularize(quantum_period(p1p1, 8))
    seq = laurent_classical_period(LaurentPolynomial.parse("x+1/x+y+1/y"), 8)
    assert reg.coeffs == seq.coeffs


class TestThreefold:
    def test_two_quadrics_on_projective_space(self):
        from rootstack_gw import Divisor, DivisorArrangement, TargetSpace

        X = TargetSpace((3,))
        arr = DivisorArrangement((Divisor("Q1", (2,)), Divisor("Q2", (2,))))
        outcome = compare_periods(X, arr, 8)
        assert outcome.ok
        assert outcome.regularized[4] == 24 and outcome.regularized[8] == 2520

    def test_matching_laurent_mirror(self):
        seq = laurent_classical_period(
            LaurentPolynomial.parse("x+y+z+1/(x*y*z)"), 8
        )
        assert seq[4] == 24 and seq[8] == 2520

    def test_one_sided_arrangement_refused(self, p1p1):
        from rootstack_gw import Divisor, DivisorArrangement

        lopsided = DivisorArrangement(
            (Divisor("A", (2, 0)), Divisor("B", (0, 2)))
        )
        with pytest.raises(PeriodError, match="mirror map"):
            classical_period_orbifold(p1p1, lopsided, 6)
