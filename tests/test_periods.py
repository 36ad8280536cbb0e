from __future__ import annotations

import tracemalloc
from fractions import Fraction as F
from math import comb, factorial

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
    i_infinity_extended_h0,
    laurent_classical_period,
    quantum_period,
    regularize,
)
from rootstack_gw import Divisor, DivisorArrangement, TargetSpace, h0, mirror
from rootstack_gw.mirror import UnsupportedMirrorMapError, contact_one_counts, mirror_map
from rootstack_gw.targets import (
    _class_body_chain,
    _j_chain,
    base_j_function,
    enumerate_curve_classes,
)


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

    def test_contributions_carry_only_realized_tuples(self, p2, line_conic):
        # a tuple no class realizes has no entry: at degree 3 the line class
        # meets the line once and the conic twice, and (3, 0), (0, 3) never occur
        result = classical_period_orbifold(p2, line_conic, 6)
        tuples = {degs for _, degs, _ in result.contributions}
        assert ((1,), (1, 2), 2) in result.contributions
        assert (3, 0) not in tuples and (0, 3) not in tuples
        assert tuples == {(1, 2), (2, 4)}

    def test_five_hyperplanes_stay_under_a_megabyte(self):
        # five hyperplanes of P^4 have C(d+4, 4) formal tuples per degree and
        # realize one; listing every unrealized tuple peaked at 49.5 MB here
        X = TargetSpace((4,))
        arrangement = DivisorArrangement(tuple(Divisor(f"H{i}", (1,)) for i in range(5)))
        tracemalloc.start()
        try:
            result = compare_periods(X, arrangement, 30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.ok and peak < 1 << 20

    def test_gaps_are_zero(self, p2, line_conic):
        result = classical_period_orbifold(p2, line_conic, 9)
        assert all(result.sequence[m] == 0 for m in (1, 2, 4, 5, 7, 8))

    def test_each_class_body_built_once(self, p1p1, two_diagonals, monkeypatch):
        # the counts and the mirror-map certificate come from one dense body
        # chain per class; a trivial mirror map never reads the rows of the
        # untwisted extended series
        calls = []

        def counted(X, arrangement, beta):
            calls.append(beta)
            return _class_body_chain(X, arrangement, beta)

        def unread(*args):
            raise AssertionError("untwisted extended rows read on the trivial path")

        monkeypatch.setattr(mirror, "_class_body_chain", counted)
        monkeypatch.setattr(h0, "h0_rows", unread)
        classical_period_orbifold(p1p1, two_diagonals, 10)
        assert sorted(calls) == enumerate_curve_classes(p1p1, 10)

    def test_non_anticanonical_refused(self, p2, conic_only):
        from rootstack_gw import ConfigurationError

        with pytest.raises(ConfigurationError, match="anticanonical"):
            classical_period_orbifold(p2, conic_only, 6)

    def test_condition_failure_refused(self, p2, cubic_only):
        with pytest.raises(PeriodError, match="mirror map"):
            classical_period_orbifold(p2, cubic_only, 6)


def _sparse_counts(X, arrangement, cap):
    """The reference for :func:`contact_one_counts`: each class body as a
    sparse series, its count the term at (beta, z^1, mono 0), and the
    mirror-map report of the untwisted extended series with every contact
    order up to the largest intersection number."""
    ctx = X.context(arrangement.n, cap)
    counts = {}
    for beta in enumerate_curve_classes(X, cap):
        body = _class_body_chain(X, arrangement, beta).series(ctx, beta)
        counts[beta] = body.terms.get(ctx.zero_key()._replace(beta=beta, zpow=1), F(0))
    m = max(1, *arrangement.max_degrees(X, cap))
    return counts, mirror_map(i_infinity_extended_h0(X, arrangement, m, cap))


def _sparse_quantum(X, cap):
    """The reference for :func:`quantum_period`: each class's z^(1-m)
    coefficient with insertion 1, read off its sparse target slice."""
    ctx = X.context(0, cap)
    coeffs = [F(1)] + [F(0)] * cap
    for beta in enumerate_curve_classes(X, cap):
        m = ctx.beta_degree(beta)
        if m >= 2:
            coeffs[m] += base_j_function(X, beta, ctx).coefficient(
                beta=beta, zpow=1 - m, mono=X.ring.zero_mono, sector=(), lam=()
            ).scalar()
    return tuple(coeffs)


def _arrangement(*coeffs):
    return DivisorArrangement(tuple(Divisor(f"D{i}", c) for i, c in enumerate(coeffs)))


# (target factors, divisor classes): the trivial mirror maps first, then
# the P^2 cubic and a one-sided P^1 x P^1 pair, which refuse at z^0, and
# two arrangements past the anticanonical class, which refuse at positive z
DENSE_CASES = [
    ((2,), ((1,), (2,))),
    ((2,), ((2,),)),
    ((2,), ((1,),)),
    ((1, 1), ((1, 1), (1, 1))),
    ((1, 1), ((0, 1),)),
    ((3,), ((2,), (2,))),
    ((2,), ((3,),)),
    ((1, 1), ((2, 0), (0, 2))),
    ((2,), ((4,),)),
    ((2,), ((1,), (3,))),
]


class TestDenseReads:
    """The period pipeline reads one dense cell per class; the sparse
    series it replaced are the oracle."""

    @pytest.mark.parametrize("cap", [1, 5, 12, 24])
    @pytest.mark.parametrize("factors", [(2,), (1, 1), (3,)])
    def test_quantum_period_matches_sparse_slices(self, factors, cap):
        X = TargetSpace(factors)
        assert quantum_period(X, cap).coeffs == _sparse_quantum(X, cap)

    @pytest.mark.parametrize("cap", [0, 3, 8, 24])
    @pytest.mark.parametrize("factors, divisors", DENSE_CASES)
    def test_counts_and_certificate_match_sparse_series(self, factors, divisors, cap):
        X, arrangement = TargetSpace(factors), _arrangement(*divisors)
        want, report = _sparse_counts(X, arrangement, cap)
        if report.trivial:
            assert contact_one_counts(X, arrangement, cap) == want
        else:
            with pytest.raises(UnsupportedMirrorMapError) as refused:
                contact_one_counts(X, arrangement, cap)
            assert str(refused.value) == str(report.refusal())

    @pytest.mark.parametrize(
        "factors, divisors, cap, kept",
        [
            ((2,), ((1,), (2,)), 9, 0),
            ((1, 1), ((1, 1), (1, 1)), 8, 0),
            ((2,), ((2,), (2,)), 6, 2),
            ((1, 1), ((1, 1), (1, 2)), 6, 6),
            ((2,), ((4,),), 6, 2),
        ],
        ids=["line-conic", "diagonals", "two-conics", "mixed", "quartic"],
    )
    def test_terms_at_z_zero_and_above_decide_the_certificate(
        self, factors, divisors, cap, kept
    ):
        # the certificate reads only the dense bodies, but the terms of the
        # untwisted extended series at z >= 0 decide it: the anticanonical
        # pairs keep none there but class 0's dilaton and are certified, the
        # others keep some in ``kept`` classes and are refused with the
        # message of that series
        X, arrangement = TargetSpace(factors), _arrangement(*divisors)
        m = max(1, *arrangement.max_degrees(X, cap))
        series = i_infinity_extended_h0(X, arrangement, m, cap)
        assert len({key.beta for key in series.terms if key.zpow >= 0 and any(key.beta)}) == kept
        if not kept:
            counts = contact_one_counts(X, arrangement, cap)
            assert list(counts) == enumerate_curve_classes(X, cap)
            return
        with pytest.raises(UnsupportedMirrorMapError) as refused:
            contact_one_counts(X, arrangement, cap)
        assert str(refused.value) == str(mirror_map(series).refusal())

    @pytest.mark.parametrize(
        "divisors, cap", [(((2,), (2,)), 12), (((3,),), 45)], ids=["two-conics", "cubic"]
    )
    def test_refusal_reads_no_class_past_its_first_row_below_z0(
        self, p2, divisors, cap, monkeypatch
    ):
        # only the rows at z^0 and above decide the refusal; the other rows
        # of P^2 with two conics at cap 12 are about ten times as many.  The
        # tilings made are of the order of the rows read (the cubic's of one
        # total are kept together while read): listing every tiling of the
        # cubic's top class alone made p(45) = 89,134 of them
        real_rows, pulled = h0.h0_rows, []
        real_tilings, made = h0._tilings, []

        def counted(*args):
            for beta, rows in real_rows(*args):
                yield beta, (pulled.append(row) or row for row in rows)

        def walked(*args):
            # the walk recurses through this name with its prefix after the
            # window, so only the tilings of the outer calls are counted
            tilings = real_tilings(*args)
            return tilings if len(args) > 5 else (made.append(t) or t for t in tilings)

        monkeypatch.setattr(h0, "h0_rows", counted)
        monkeypatch.setattr(h0, "_tilings", walked)
        with pytest.raises(UnsupportedMirrorMapError):
            contact_one_counts(p2, _arrangement(*divisors), cap)
        below = sum(1 for row in pulled if row[0] > 0)
        assert 0 < below <= len(enumerate_curve_classes(p2, cap)) < len(pulled)
        assert len(made) < 10 * len(pulled)

    def test_plane_cubic_refused_with_the_sparse_message(self, p2, cubic_only):
        # classical_period_orbifold and n_orb refuse the cubic on the
        # two-positive-pairings condition first, so only a direct call
        # reaches the certificate
        _, report = _sparse_counts(p2, cubic_only, 6)
        assert not report.trivial
        with pytest.raises(UnsupportedMirrorMapError) as refused:
            contact_one_counts(p2, cubic_only, 6)
        message = str(refused.value)
        assert message == report.explain() + "; Birkhoff factorization unsupported"
        assert message.startswith("mirror map nontrivial: z^0 term")


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


def _powers_by_mul(f: LaurentPolynomial, cap: int) -> tuple[F, ...]:
    """Reference: constant terms of f, f*f, ... by ``LaurentPolynomial.__mul__``."""
    coeffs, power = [F(1)], None
    for _ in range(cap):
        power = f if power is None else power * f
        coeffs.append(power.constant_term())
    return tuple(coeffs)


@pytest.mark.parametrize(
    "text, cap",
    [
        ("x/2 + 3*y - 1/(x*y)", 12),
        ("x^2/3 - y/5 + 1/(x*y) + 7/4", 8),
        ("2/3*x - 3/(4*x)", 10),
        ("5/7", 4),
    ],
)
def test_integer_powers_match_mul(text, cap):
    f = LaurentPolynomial.parse(text)
    assert laurent_classical_period(f, cap).coeffs == _powers_by_mul(f, cap)


@settings(max_examples=60, deadline=None)
@given(laurent_polynomials(), st.integers(1, 6))
def test_integer_powers_match_mul_on_random_polynomials(f, cap):
    assert laurent_classical_period(f, cap).coeffs == _powers_by_mul(f, cap)


class TestHalfPowers:
    """The constant terms come from half powers whose exponent vectors are
    coded as integers; ``_powers_by_mul`` stays the independent reference."""

    def test_plane_mirror_at_the_top_cap(self):
        seq = laurent_classical_period(LaurentPolynomial.parse("x+y+1/(x*y)"), 64)
        want = [
            F(factorial(d), factorial(d // 3) ** 3) if d % 3 == 0 else F(0)
            for d in range(65)
        ]
        assert list(seq.coeffs) == want

    def test_quadric_mirror_at_the_top_cap(self):
        seq = laurent_classical_period(LaurentPolynomial.parse("x+1/x+y+1/y"), 64)
        want = [F(comb(d, d // 2) ** 2) if d % 2 == 0 else F(0) for d in range(65)]
        assert list(seq.coeffs) == want

    # Every variable reaches both +reach and -reach.  The half powers paired
    # at degree d have entries up to (d-1)*reach and d*reach in size when d
    # is odd, both d*reach/2 when d is even, so a code base of cap*reach or
    # less lets two distinct vectors share a code; on the first polynomial
    # that changes the constant terms at both caps.
    @pytest.mark.parametrize("cap", [7, 8])
    @pytest.mark.parametrize(
        "text",
        [
            "2/3*x^2*y^2 + x*y^-2/2 + 2*x^-1*y + x^-2*y + x^-2/5 + x^-2*y^-1/2",
            "x^3/2 - 2/3*x^-3*y^3 + y^-3*z^3 + 5/7*z^-3 - x*y^-1*z^2 + 1/4",
        ],
    )
    def test_full_reach_in_several_variables_matches_mul(self, text, cap):
        f = LaurentPolynomial.parse(text)
        reach = max(abs(e) for key, _ in f.terms for e in key)
        for i in range(len(f.variables)):
            assert {reach, -reach} <= {key[i] for key, _ in f.terms}
        assert laurent_classical_period(f, cap).coeffs == _powers_by_mul(f, cap)

    @pytest.mark.parametrize("cap", [1, 2, 5, 64])
    def test_constant_polynomial(self, cap):
        for f in (
            LaurentPolynomial.parse("3/2"),
            LaurentPolynomial.from_dict(("x", "y"), {(0, 0): F(3, 2)}),
        ):
            seq = laurent_classical_period(f, cap)
            assert seq.coeffs == tuple(F(3, 2) ** d for d in range(cap + 1))

    @pytest.mark.parametrize("cap", [1, 2, 5, 64])
    def test_zero_polynomial(self, cap):
        for f in (LaurentPolynomial.parse("x - x"), LaurentPolynomial.from_dict((), {})):
            assert f.terms == ()
            seq = laurent_classical_period(f, cap)
            assert seq.coeffs == (F(1),) + (F(0),) * cap


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
