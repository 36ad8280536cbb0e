from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_series
from oracle import hyper_slice
from rootstack_gw.algebra import (
    AmbientRing,
    CohClass,
    ContractError,
    DivisibilityError,
    GradedSeries,
    NotInvertibleError,
    SeriesContext,
    TermKey,
    _Chain,
    exact_divide_linear,
    invert_z_linear,
    merge_xexp,
    series_sum,
)
from rootstack_gw.targets import TargetSpace, _j_chain


def plane_ctx(divisors=0) -> SeriesContext:
    ring = AmbientRing.for_product((2,))
    return SeriesContext(ring=ring, divisors=divisors, beta_weights=(3,))


def P(ctx) -> CohClass:
    return CohClass.generator(ctx.ring, 0)


class TestRing:
    def test_mono_caps(self):
        ring = AmbientRing.for_product((2,))
        assert ring.mul_mono((1,), (1,)) == (2,)
        assert ring.mul_mono((2,), (1,)) is None
        assert ring.dual_mono((1,)) == (1,)
        assert ring.top_mono == (2,)

    def test_class_nilpotency(self):
        ctx = plane_ctx()
        p = P(ctx)
        assert (p * p * p).is_zero
        assert not (p * p).is_zero


class TestAddMul:
    def test_additive_identity(self):
        ctx = plane_ctx()
        rng = random.Random(7)
        s = random_series(rng, ctx)
        assert s + GradedSeries.zero(ctx) == s

    def test_additive_inverse_is_empty_map(self):
        ctx = plane_ctx()
        s = random_series(random.Random(8), ctx)
        total = s + s.scale(-1)
        assert total.is_zero
        assert total.terms == {}

    def test_like_term_collection(self):
        ctx = plane_ctx()
        a = GradedSeries.term(ctx, 2, zpow=-1, mono=(1,))
        b = GradedSeries.term(ctx, 1, zpow=-1, mono=(1,))
        assert (a + b) == GradedSeries.term(ctx, 3, zpow=-1, mono=(1,))

    def test_nilpotent_product_vanishes(self):
        ctx = plane_ctx()
        p = GradedSeries.from_class(ctx, P(ctx))
        p2 = GradedSeries.from_class(ctx, P(ctx) * P(ctx))
        assert (p * p2).is_zero

    def test_difference_of_squares(self):
        ctx = plane_ctx()
        p = GradedSeries.from_class(ctx, P(ctx))
        z = GradedSeries.z_power(ctx, 1)
        got = (p + z) * (p - z)
        want = GradedSeries.term(ctx, 1, mono=(2,)) + GradedSeries.term(ctx, -1, zpow=2)
        assert got == want

    def test_expansion_used_by_degree_one_contact_coefficient(self):
        # (2P+z)(2P+2z) = 4P^2 + 6Pz + 2z^2
        ctx = plane_ctx()
        p = GradedSeries.from_class(ctx, P(ctx))
        z = GradedSeries.z_power(ctx, 1)
        got = (p.scale(2) + z) * (p.scale(2) + z.scale(2))
        want = (
            GradedSeries.term(ctx, 4, mono=(2,))
            + GradedSeries.term(ctx, 6, zpow=1, mono=(1,))
            + GradedSeries.term(ctx, 2, zpow=2)
        )
        assert got == want

    def test_context_mismatch_rejected(self):
        a = GradedSeries.one(plane_ctx())
        b = GradedSeries.one(plane_ctx(divisors=1))
        with pytest.raises(ContractError):
            a + b
        with pytest.raises(ContractError):
            a * b

    def test_twisted_times_twisted_rejected(self):
        ctx = plane_ctx(divisors=1)
        u = GradedSeries.term(ctx, 1, sector=(1,))
        with pytest.raises(ContractError):
            u * u

    def test_twisted_pair_behind_untwisted_terms_rejected(self):
        ctx = plane_ctx(divisors=1)
        plain = GradedSeries.term(ctx, 1)
        mixed = plain + GradedSeries.term(ctx, 2, zpow=1, sector=(1,))
        assert not any(next(iter(mixed.terms)).sector)
        assert (mixed * plain) == (plain * mixed)
        with pytest.raises(ContractError):
            mixed * mixed


class TestInversion:
    def test_plain_z(self):
        ctx = plane_ctx()
        inv = invert_z_linear(ctx, 1, CohClass.zero(ctx.ring))
        assert inv == GradedSeries.z_power(ctx, -1)

    def test_geometric_expansion(self):
        # 1/(z+P) = z^-1 - P z^-2 + P^2 z^-3
        ctx = plane_ctx()
        inv = invert_z_linear(ctx, 1, P(ctx))
        want = (
            GradedSeries.z_power(ctx, -1)
            + GradedSeries.term(ctx, -1, zpow=-2, mono=(1,))
            + GradedSeries.term(ctx, 1, zpow=-3, mono=(2,))
        )
        assert inv == want

    def test_cube_matches_binomial_series(self):
        # z * (z+P)^-3 = z^-2 - 3P z^-3 + 6P^2 z^-4
        ctx = plane_ctx()
        inv = invert_z_linear(ctx, 1, P(ctx))
        got = (inv * inv * inv).shift_z(1)
        want = (
            GradedSeries.z_power(ctx, -2)
            + GradedSeries.term(ctx, -3, zpow=-3, mono=(1,))
            + GradedSeries.term(ctx, 6, zpow=-4, mono=(2,))
        )
        assert got == want

    def test_inverse_times_self_is_one(self):
        ctx = plane_ctx()
        rng = random.Random(23)
        for _ in range(25):
            c = F(rng.randint(1, 6), rng.randint(1, 4))
            cls = P(ctx).scale(F(rng.randint(-4, 4), rng.randint(1, 3)))
            factor = GradedSeries.from_class(ctx, cls) + GradedSeries.term(
                ctx, c, zpow=1
            )
            assert invert_z_linear(ctx, c, cls) * factor == GradedSeries.one(ctx)

    def test_no_z_part_rejected(self):
        ctx = plane_ctx()
        with pytest.raises(NotInvertibleError):
            invert_z_linear(ctx, 0, P(ctx))


class TestExactDivision:
    def test_constructed_quotient(self):
        ctx = plane_ctx(divisors=1)
        d = P(ctx).scale(2)
        lam = GradedSeries.term(ctx, 1, lam=(1,))
        factor = GradedSeries.from_class(ctx, d) + lam
        other = GradedSeries.from_class(ctx, d) + GradedSeries.term(ctx, 2, zpow=1)
        assert exact_divide_linear(factor * other, d, 0) == other

    def test_square_over_factor(self):
        ctx = plane_ctx(divisors=1)
        p = P(ctx)
        factor = GradedSeries.from_class(ctx, p) + GradedSeries.term(ctx, 1, lam=(1,))
        assert exact_divide_linear(factor * factor, p, 0) == factor

    def test_long_division_with_nilpotent_class(self):
        # (P^2 + lam P) / (P + lam) = P
        ctx = plane_ctx(divisors=1)
        num = GradedSeries.term(ctx, 1, mono=(2,)) + GradedSeries.term(
            ctx, 1, mono=(1,), lam=(1,)
        )
        assert exact_divide_linear(num, P(ctx), 0) == GradedSeries.term(
            ctx, 1, mono=(1,)
        )

    def test_non_divisible_raises(self):
        ctx = plane_ctx(divisors=1)
        num = GradedSeries.term(ctx, 1, mono=(1,))
        with pytest.raises(DivisibilityError):
            exact_divide_linear(num, P(ctx), 0)

    def test_round_trip_property(self):
        ctx = plane_ctx(divisors=2)
        rng = random.Random(41)
        factor = GradedSeries.from_class(ctx, P(ctx).scale(-2)) + GradedSeries.term(
            ctx, 1, lam=(0, 1)
        )
        for _ in range(25):
            q = random_series(rng, ctx)
            num = q * factor
            assert exact_divide_linear(num, P(ctx).scale(-2), 1) * factor == num


class TestSelection:
    def test_coefficient_of_zero_series(self):
        ctx = plane_ctx()
        assert GradedSeries.zero(ctx).coefficient(zpow=-2).is_zero

    def test_coefficient_strips_fixed_components(self):
        ctx = plane_ctx()
        s = GradedSeries.term(ctx, 5, beta=(1,), zpow=-2, mono=(1,))
        got = s.coefficient(beta=(1,), zpow=-2)
        assert got == GradedSeries.term(ctx, 5, mono=(1,))

    def test_lambda_specialization(self):
        ctx = plane_ctx(divisors=1)
        d = GradedSeries.from_class(ctx, P(ctx).scale(-1))
        lam = GradedSeries.term(ctx, 1, lam=(1,))
        assert (d + lam).without_lambda() == d
        mixed = (
            GradedSeries.term(ctx, 1, lam=(2,))
            + GradedSeries.term(ctx, 3, mono=(1,), lam=(1,))
            + GradedSeries.term(ctx, 1, mono=(2,))
        )
        assert mixed.without_lambda() == GradedSeries.term(ctx, 1, mono=(2,))

    def test_descending_factor_specialization(self):
        # prod_{0<=a<2}(-2P + lam - a z) at lam = 0 is 4P^2 + 2Pz
        ctx = plane_ctx(divisors=1)
        lam = GradedSeries.term(ctx, 1, lam=(1,))
        z = GradedSeries.z_power(ctx, 1)
        m2p = GradedSeries.from_class(ctx, P(ctx).scale(-2))
        product = (m2p + lam) * (m2p + lam - z)
        want = GradedSeries.term(ctx, 4, mono=(2,)) + GradedSeries.term(
            ctx, 2, zpow=1, mono=(1,)
        )
        assert product.without_lambda() == want


class TestStructure:
    def test_first_mismatch_is_smallest_differing_key(self):
        ctx = plane_ctx()
        shared = GradedSeries.term(ctx, 1, zpow=1)
        left = shared + GradedSeries.term(ctx, 2, beta=(1,), zpow=-2)
        right = (
            shared
            + GradedSeries.term(ctx, 3, beta=(1,), zpow=-2)
            + GradedSeries.term(ctx, 4, zpow=-1)
        )
        low = ctx.zero_key()._replace(zpow=-1)
        assert low < ctx.zero_key()._replace(beta=(1,), zpow=-2)
        assert left.first_mismatch(right) == low
        assert right.first_mismatch(left) == low
        assert left.first_mismatch(left) is None

    def test_insertion_order_irrelevant(self):
        ctx = plane_ctx()
        rng = random.Random(99)
        s = random_series(rng, ctx, max_terms=6)
        items = list(s.terms.items())
        random.Random(5).shuffle(items)
        rebuilt = GradedSeries(ctx, dict(items))
        assert rebuilt == s
        assert rebuilt.ordered_terms() == s.ordered_terms()

    def test_no_stored_zeros_and_caps_respected(self):
        ctx = plane_ctx()
        rng = random.Random(3)
        for _ in range(50):
            a = random_series(rng, ctx)
            b = random_series(rng, ctx)
            out = a * b + a
            assert all(c != 0 for c in out.terms.values())
            assert all(ctx.ring.mono_ok(k.mono) for k in out.terms)

    def test_beta_cap_truncation(self):
        ring = AmbientRing.for_product((2,))
        ctx = SeriesContext(ring=ring, divisors=0, beta_weights=(3,), beta_cap=3)
        kept = GradedSeries.term(ctx, 1, beta=(1,))
        dropped = GradedSeries.term(ctx, 1, beta=(2,))
        assert not kept.is_zero
        assert dropped.is_zero

    def test_z_floor_truncation(self):
        ring = AmbientRing.for_product((2,))
        ctx = SeriesContext(ring=ring, divisors=0, beta_weights=(3,), z_floor=-2)
        assert GradedSeries.term(ctx, 1, zpow=-2) == GradedSeries.term(ctx, 1, zpow=-2)
        assert GradedSeries.term(ctx, 1, zpow=-3).is_zero


def test_ring_axioms_randomized():
    ctx = plane_ctx(divisors=1)
    rng = random.Random(2024)
    for _ in range(200):
        a = random_series(rng, ctx)
        b = random_series(rng, ctx)
        c = random_series(rng, ctx)
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def _plane_key(ctx, **fields) -> TermKey:
    return ctx.zero_key()._replace(**fields)


class TestPublicConstructorsValidate:
    @pytest.mark.parametrize(
        "fields",
        [
            {"mono": (3,)},
            {"beta": (-1,)},
            {"beta": (1, 0)},
            {"sector": (0, 0)},
            {"lam": (0, 0)},
            {"lam": (-1,)},
        ],
    )
    def test_bad_key_rejected(self, fields):
        ctx = plane_ctx(divisors=1)
        with pytest.raises(ContractError):
            GradedSeries.term(ctx, 1, **fields)
        with pytest.raises(ContractError):
            GradedSeries(ctx, {_plane_key(ctx, **fields): F(1)})

    def test_foreign_ring_class_rejected(self):
        ctx = plane_ctx()
        other = AmbientRing.for_product((1, 1))
        with pytest.raises(ContractError):
            GradedSeries.from_class(ctx, CohClass.one(other))

    @pytest.mark.parametrize(
        "change",
        [
            {"ring": AmbientRing.for_product((3,))},
            {"divisors": 2},
            {"beta_weights": (2,)},
        ],
    )
    def test_in_context_across_ring_shapes_rejected(self, change):
        ctx = plane_ctx(divisors=1)
        s = GradedSeries.term(ctx, 1, zpow=1)
        with pytest.raises(ContractError):
            s.in_context(replace(ctx, **change))

    def test_from_class_at_positive_floor_is_empty(self):
        ctx = replace(plane_ctx(), z_floor=1)
        assert GradedSeries.from_class(ctx, P(ctx)).is_zero


# ---------------------------------------------------------------------------
# The ring operations against validated references
# ---------------------------------------------------------------------------


def reference_mul(a: GradedSeries, b: GradedSeries) -> GradedSeries:
    """Term-by-term product, every pair tested on its own, result validated
    by the public constructor."""
    ring = a.ctx.ring
    out: dict[TermKey, F] = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            if any(ka.sector) and any(kb.sector):
                raise ContractError("two twisted-sector terms")
            mono = ring.mul_mono(ka.mono, kb.mono)
            if mono is None:
                continue
            key = TermKey(
                beta=tuple(x + y for x, y in zip(ka.beta, kb.beta)),
                zpow=ka.zpow + kb.zpow,
                xexp=merge_xexp(ka.xexp, kb.xexp),
                sector=ka.sector if any(ka.sector) else kb.sector,
                mono=mono,
                lam=tuple(x + y for x, y in zip(ka.lam, kb.lam)),
            )
            if not a.ctx.keeps(key):
                continue
            out[key] = out.get(key, F(0)) + ca * cb
    return GradedSeries(a.ctx, out)


def reference_sum(ctx: SeriesContext, parts, signs=None) -> GradedSeries:
    out: dict[TermKey, F] = {}
    for part, sign in zip(parts, signs or [1] * len(parts)):
        for key, c in part.terms.items():
            out[key] = out.get(key, F(0)) + sign * c
    return GradedSeries(ctx, out)


def truncations():
    return st.tuples(
        st.one_of(st.none(), st.integers(0, 8)),
        st.one_of(st.none(), st.integers(-4, 1)),
    )


@st.composite
def contexts(draw) -> SeriesContext:
    caps = draw(st.sampled_from([(2,), (1, 1)]))
    cap, floor = draw(truncations())
    return SeriesContext(
        ring=AmbientRing.for_product(caps),
        divisors=draw(st.integers(1, 2)),
        beta_weights=tuple(c + 1 for c in caps),
        beta_cap=cap,
        z_floor=floor,
    )


@st.composite
def series(draw, ctx: SeriesContext) -> GradedSeries:
    n = ctx.divisors
    small = st.integers(0, 2)
    if draw(st.booleans()):
        sector = st.tuples(*[st.integers(-2, 2)] * n)
    else:
        sector = st.just((0,) * n)
    key = st.builds(
        TermKey,
        beta=st.tuples(*[small] * len(ctx.beta_weights)),
        zpow=st.integers(-5, 3),
        xexp=st.sampled_from([(), ((0, 1, 1),), ((0, 1, 2),), ((n - 1, 2, 1),)]),
        sector=sector,
        mono=st.tuples(*[st.integers(0, c) for c in ctx.ring.caps]),
        lam=st.tuples(*[small] * n),
    )
    coeff = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    return GradedSeries(ctx, draw(st.dictionaries(key, coeff, max_size=6)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ring_operations_match_validated_references(data):
    ctx = data.draw(contexts())
    a, b = data.draw(series(ctx)), data.draw(series(ctx))
    q = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
    p = data.draw(st.integers(-3, 3))
    cap, floor = data.draw(truncations())
    other = replace(ctx, beta_cap=cap, z_floor=floor)

    def shift(key):
        return key._replace(zpow=key.zpow + p)

    pairs = [
        (a + b, reference_sum(ctx, [a, b])),
        (a - b, reference_sum(ctx, [a, b], [1, -1])),
        (a.scale(q), GradedSeries(ctx, {k: c * q for k, c in a.terms.items()})),
        (a.shift_z(p), GradedSeries(ctx, {shift(k): c for k, c in a.terms.items()})),
        (series_sum(ctx, [a, b, a]), reference_sum(ctx, [a, b, a])),
        (a.in_context(other), GradedSeries(other, dict(a.terms))),
    ]
    try:
        want = reference_mul(a, b)
    except ContractError:
        with pytest.raises(ContractError):
            a * b
    else:
        pairs.append((a * b, want))
    for got, want in pairs:
        assert got == want
    results = [got for got, _ in pairs] + [
        a.coefficient(zpow=0),
        a.beta_slice((0,) * len(ctx.beta_weights)),
        a.lambda_coefficient(0, 1),
        a.without_lambda(),
    ]
    for got in results:
        assert GradedSeries(got.ctx, dict(got.terms)) == got


# ---------------------------------------------------------------------------
# The dense kernel against the sparse path and the oracle
# ---------------------------------------------------------------------------


@st.composite
def chain_jobs(draw):
    """A ring (P^2, P^3 or P^1 x P^1), a context with lam and sector slots
    and optional cap and floor, a curve class, a sector, a starting z-power
    and up to six factors of the three shapes the slice builders use."""
    caps = draw(st.sampled_from([(2,), (3,), (1, 1)]))
    n = draw(st.integers(1, 2))
    cap, floor = draw(
        st.tuples(
            st.one_of(st.none(), st.integers(0, 8)),
            st.one_of(st.none(), st.integers(-9, 2)),
        )
    )
    ctx = SeriesContext(
        ring=AmbientRing.for_product(caps),
        divisors=n,
        beta_weights=tuple(c + 1 for c in caps),
        beta_cap=cap,
        z_floor=floor,
    )
    beta = draw(st.tuples(*[st.integers(0, 2)] * len(caps)))
    sector = draw(
        st.one_of(st.just((0,) * n), st.tuples(*[st.integers(-3, 3)] * n))
    )
    coeffs = st.tuples(*[st.integers(-3, 3)] * len(caps))
    scale = st.sampled_from([F(1), F(2), F(3), F(1, 2), F(1, 5)])
    factor = st.one_of(
        st.tuples(st.just("linear"), coeffs, st.integers(-4, 4), scale),
        st.tuples(
            st.just("inverse"),
            coeffs,
            st.integers(-4, 4).filter(bool),
            scale,
        ),
        st.tuples(st.just("local"), coeffs, st.integers(0, n - 1), st.integers(0, 4)),
    )
    start = draw(st.integers(-1, 2))
    return ctx, beta, sector, start, draw(st.lists(factor, max_size=6))


def kernel_product(ctx, beta, sector, start, factors) -> GradedSeries:
    lam_caps = [0] * ctx.divisors
    for shape, _, slot, _ in factors:
        if shape == "local":
            lam_caps[slot] += 1
    chain = _Chain.z_power(ctx.ring.caps, start)
    if any(lam_caps):
        chain = chain.with_lam(tuple(lam_caps))
    for shape, coeffs, step, extra in factors:
        if shape == "local":
            negated = tuple(-c for c in coeffs)
            chain = chain.times_linear(negated, -extra, lam=step)
            continue
        if shape == "linear":
            chain = chain.times_linear(coeffs, step)
        else:
            chain = chain.over_linear(coeffs, step)
        chain = chain.scaled(extra.numerator, extra.denominator)
    return chain.series(ctx, beta, sector)


def sparse_product(ctx, beta, sector, start, factors) -> GradedSeries:
    """The same product by GradedSeries.__mul__ and invert_z_linear, formed
    without a floor and truncated once at the end."""
    full = replace(ctx, z_floor=None)
    ring = ctx.ring
    out = GradedSeries.term(full, 1, beta=beta, zpow=start)
    for shape, coeffs, step, extra in factors:
        cls = CohClass(
            ring,
            {tuple(int(i == k) for i in range(ring.rank)): c for k, c in enumerate(coeffs)},
        )
        if shape == "local":
            lam = tuple(int(i == step) for i in range(ctx.divisors))
            factor = (
                GradedSeries.from_class(full, -cls)
                + GradedSeries.term(full, 1, lam=lam)
                + GradedSeries.term(full, -extra, zpow=1)
            )
        elif shape == "linear":
            factor = GradedSeries.from_class(full, cls) + GradedSeries.term(
                full, step, zpow=1
            )
            factor = factor.scale(extra)
        else:
            factor = invert_z_linear(full, step, cls).scale(extra)
        out = out * factor
    out = out * GradedSeries.term(full, 1, sector=sector)
    return out.in_context(ctx)


@settings(max_examples=400, deadline=None)
@given(chain_jobs())
def test_kernel_matches_sparse_products(job):
    got = kernel_product(*job)
    want = sparse_product(*job)
    assert got == want
    assert got.terms == dict(want.terms)
    # the converted series holds only valid, kept keys and nonzero values
    assert GradedSeries(got.ctx, dict(got.terms)) == got


@pytest.mark.parametrize("dim,degree", [(1, 6), (2, 6), (3, 5)])
def test_kernel_target_slice_matches_oracle(dim, degree):
    X = TargetSpace((dim,))
    ctx = X.context(divisors=1, beta_cap=None)
    for d in range(degree + 1):
        got = _j_chain(X, (d,)).series(ctx, (d,))
        assert {(k.mono[0], k.zpow): c for k, c in got.terms.items()} == hyper_slice(
            dim + 1, d, dim
        )


def test_kernel_refuses_a_mismatched_context():
    chain = _Chain.z_power((2,), 1)
    with pytest.raises(ContractError):
        chain.series(SeriesContext(AmbientRing.for_product((1, 1)), 0, (2, 2)), (0, 0))
    with pytest.raises(ContractError):
        chain.series(plane_ctx(1), (0,), sector=(0, 0))
    with pytest.raises(ContractError):
        chain.with_lam((1,)).series(plane_ctx(2), (0,))
    with pytest.raises(NotInvertibleError):
        chain.over_linear((1,), 0)
