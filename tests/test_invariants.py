from __future__ import annotations

from fractions import Fraction as F
from math import factorial

import pytest

from rootstack_gw import (
    Divisor,
    DivisorArrangement,
    RootData,
    UnsupportedMirrorMapError,
    check_assumption,
    enumerate_curve_classes,
    extract_invariants,
    i_infinity_extended,
    i_infinity_extended_h0,
    i_infinity_nonextended,
    i_root_nonextended,
    merge_tables,
    mirror_map,
    n_orb,
    stabilization_check,
)
from rootstack_gw.algebra import ContractError
from rootstack_gw.invariants import InvariantTable, TableEntry
from rootstack_gw.targets import _j_chain


class TestMirrorMap:
    def test_line_conic_extended_is_trivial(self, p2, line_conic):
        series = i_infinity_extended(p2, line_conic, 6, 9, z_floor=-1)
        report = mirror_map(series)
        assert report.trivial
        # one contact unit per divisor and order
        assert len(report.contact_units) == 12

    def test_two_diagonals_extended_is_trivial(self, p1p1, two_diagonals):
        series = i_infinity_extended(p1p1, two_diagonals, 4, 8, z_floor=-1)
        assert mirror_map(series).trivial

    def test_single_cubic_is_nontrivial(self, p2, cubic_only):
        series = i_infinity_nonextended(p2, cubic_only, 9)
        report = mirror_map(series)
        assert not report.trivial
        # the offending degree-one constant is the 2 [1]_{-3} term
        flat = {
            (k.beta, k.sector): c for k, c in report.z_zero_extra.terms.items()
        }
        assert flat[((1,), (-3,))] == 2

    def test_cap_below_first_degree_is_trivial(self, p2, cubic_only):
        series = i_infinity_nonextended(p2, cubic_only, 2)
        assert mirror_map(series).trivial

    def test_extraction_refuses_nontrivial(self, p2, cubic_only):
        series = i_infinity_nonextended(p2, cubic_only, 9)
        with pytest.raises(UnsupportedMirrorMapError, match="Birkhoff"):
            extract_invariants(series, p2, cubic_only)


class TestExtraction:
    def test_maximal_tangency_values(self, p2, line_conic):
        h0 = i_infinity_extended_h0(p2, line_conic, 6, 9)
        table = extract_invariants(h0, p2, line_conic)
        for d in (1, 2, 3):
            got = table.value(
                (d,),
                xexp=((0, d, 1), (1, 2 * d, 1)),
                insertion=(2,),
                psi=0,
                sector=(0, 0),
            )
            assert got == F(factorial(2 * d), factorial(d) ** 2)

    def test_contact_one_block_undoes_multinomials(self, p2, line_conic):
        h0 = i_infinity_extended_h0(p2, line_conic, 6, 9)
        table = extract_invariants(h0, p2, line_conic)
        # d_i contact-one markings: stored coefficient is divided by d_1! d_2!,
        # extraction multiplies it back
        got = table.value(
            (1,), xexp=((0, 1, 1), (1, 1, 2)), insertion=(2,), psi=1, sector=(0, 0)
        )
        assert got == 2

    def test_tangency_block_pairs_through_divisor_product(self, p2, line_conic):
        series = i_infinity_nonextended(p2, line_conic, 6)
        table = extract_invariants(series, p2, line_conic)
        # coefficient 1 * z^-1 [1]_{-1,-2}; pairing inserts D1 D2 = 2 P^2
        got = table.value((1,), xexp=(), insertion=(0,), psi=0, sector=(-1, -2))
        assert got == 2

    def test_reinsertion_reproduces_series(self, p2, line_conic):
        h0 = i_infinity_extended_h0(p2, line_conic, 6, 9)
        table = extract_invariants(h0, p2, line_conic)
        ctx = h0.ctx
        rebuilt = {}
        for entry, value in table.entries.items():
            if any(entry.sector):
                continue
            coeff = value
            for _, _, e in entry.xexp:
                coeff /= factorial(e)
            key = ctx.zero_key()._replace(
                beta=entry.beta,
                zpow=-entry.psi - 1,
                xexp=entry.xexp,
                mono=ctx.ring.dual_mono(entry.insertion),
            )
            rebuilt[key] = coeff
        negative = {k: c for k, c in h0.terms.items() if k.zpow < 0}
        assert rebuilt == negative

    def test_ruling_swap_symmetry(self, p1p1, two_diagonals):
        h0 = i_infinity_extended_h0(p1p1, two_diagonals, 4, 8)
        table = extract_invariants(h0, p1p1, two_diagonals)
        for d1 in range(3):
            for d2 in range(3):
                if not 0 < d1 + d2 <= 4:
                    continue
                e = d1 + d2
                a = table.value(
                    (d1, d2), ((0, e, 1), (1, e, 1)), (1, 1), 0, (0, 0)
                )
                b = table.value(
                    (d2, d1), ((0, e, 1), (1, e, 1)), (1, 1), 0, (0, 0)
                )
                assert a == b


class TestMergeTables:
    ENTRY = TableEntry((1, 0), (), (1, 1), 0, (0,))

    def test_equal_overlap_kept_and_inputs_untouched(self):
        first = InvariantTable({self.ENTRY: F(1)}, [])
        other = TableEntry((0, 1), (), (1, 0), 0, (-1,))
        second = InvariantTable({self.ENTRY: F(1), other: F(1)}, [])
        merged = merge_tables(first, second)
        assert merged.entries == {self.ENTRY: F(1), other: F(1)}
        assert first.entries == {self.ENTRY: F(1)}

    def test_conflicting_value_raises(self):
        first = InvariantTable({self.ENTRY: F(1)}, [])
        second = InvariantTable({self.ENTRY: F(2)}, [])
        with pytest.raises(ValueError, match="conflicting values 1 and 2"):
            merge_tables(first, second)


class TestContactOneCounts:
    def test_line_conic_degree_one(self, p2, line_conic):
        assert n_orb(p2, line_conic, (1,)) == 2

    def test_line_conic_degree_two(self, p2, line_conic):
        assert n_orb(p2, line_conic, (2,)) == 6

    def test_two_diagonals_unit(self, p1p1, two_diagonals):
        assert n_orb(p1p1, two_diagonals, (1, 0)) == 1

    def test_matches_cap_wide_extraction(self, p2, p1p1, line_conic, two_diagonals):
        # the per-class count agrees with the independent path: extraction
        # from the whole untwisted series, built with m covering the cap
        # (on the fibres beta (1,1) meets each divisor once, but (0,2) of
        # the same degree meets each twice)
        fibres = DivisorArrangement((Divisor("A", (0, 1)), Divisor("B", (0, 1))))
        compared = 0
        for X, arrangement, cap in (
            (p2, line_conic, 15),
            (p1p1, two_diagonals, 8),
            (p1p1, fibres, 4),
        ):
            m = max(1, *arrangement.max_degrees(X, cap))
            table = extract_invariants(
                i_infinity_extended_h0(X, arrangement, m, cap), X, arrangement
            )
            for beta in enumerate_curve_classes(X, cap):
                degs = arrangement.degrees(beta)
                if sum(degs) < 2:
                    continue
                expected = table.value(
                    beta,
                    xexp=tuple((i, 1, d) for i, d in enumerate(degs) if d),
                    insertion=X.ring.top_mono,
                    psi=sum(degs) - 2,
                    sector=(0,) * arrangement.n,
                )
                assert n_orb(X, arrangement, beta) == expected, (X, beta)
                compared += 1
        assert compared == 5 + 14 + 3

    def test_refusal_from_a_lower_class(self, p1p1):
        # beta (1,1) itself is fine; the z^0 terms sit at (0,1) and (0,2),
        # which only a certificate spanning every class up to deg beta sees
        arrangement = DivisorArrangement(
            (Divisor("A", (1, 1)), Divisor("B", (1, 2)))
        )
        assert check_assumption(p1p1, arrangement, 4).holds
        with pytest.raises(UnsupportedMirrorMapError) as err:
            n_orb(p1p1, arrangement, (1, 1))
        assert str(err.value) == (
            "mirror map nontrivial: "
            "z^0 term 2 at TermKey(beta=(0, 1), zpow=0, xexp=((0, 1, 1), (1, 2, 1)), "
            "sector=(0, 0), mono=(0, 0), lam=(0, 0)); "
            "z^0 term 6 at TermKey(beta=(0, 2), zpow=0, xexp=((0, 1, 2), (1, 4, 1)), "
            "sector=(0, 0), mono=(0, 0), lam=(0, 0)); "
            "z^0 term 12 at TermKey(beta=(0, 2), zpow=0, "
            "xexp=((0, 2, 1), (1, 1, 1), (1, 3, 1)), sector=(0, 0), mono=(0, 0), "
            "lam=(0, 0)); "
            "positive-z term 12 at TermKey(beta=(0, 2), zpow=1, "
            "xexp=((0, 2, 1), (1, 4, 1)), sector=(0, 0), mono=(0, 0), lam=(0, 0)); "
            "Birkhoff factorization unsupported"
        )

    def test_refusal_from_the_class_itself(self, p2):
        conics = DivisorArrangement((Divisor("A", (2,)), Divisor("B", (2,))))
        assert check_assumption(p2, conics, 3).holds
        with pytest.raises(UnsupportedMirrorMapError) as err:
            n_orb(p2, conics, (1,))
        assert str(err.value) == (
            "mirror map nontrivial: z^0 term 4 at TermKey(beta=(1,), zpow=0, "
            "xexp=((0, 2, 1), (1, 2, 1)), sector=(0, 0), mono=(0,), lam=(0, 0)); "
            "Birkhoff factorization unsupported"
        )

    @pytest.mark.parametrize("coeffs", [(2,), (3,)])
    def test_one_component_refused_before_the_certificate(self, p2, coeffs):
        single = DivisorArrangement((Divisor("E", coeffs),))
        with pytest.raises(
            UnsupportedMirrorMapError,
            match=r"^two-positive-pairings condition fails at \(1,\)$",
        ):
            n_orb(p2, single, (1,))

    def test_degenerate_total_contact(self, p2):
        line = DivisorArrangement((Divisor("L", (1,)),))
        with pytest.raises(ValueError, match="total contact"):
            n_orb(p2, line, (1,))

    def test_non_effective_class_refused(self, p1p1, two_diagonals):
        # (2,-1) meets each diagonal once and passes the certificate at its
        # degree 2, but is no class of the target
        with pytest.raises(
            ValueError, match="^beta must be an effective curve class of the target$"
        ):
            n_orb(p1p1, two_diagonals, (2, -1))


class TestStabilization:
    def test_plane_line_conic(self, p2, line_conic):
        roots = [RootData(r) for r in ((7, 11), (11, 13), (13, 17))]
        report = stabilization_check(p2, line_conic, roots, 9)
        assert report.ok
        assert len(report.cases) == 3 * 4

    def test_each_target_slice_built_once(self, p1p1, two_diagonals):
        # the limit and every order vector share one slice per class
        roots = [RootData(r) for r in ((7, 11), (11, 13), (13, 17))]
        _j_chain.cache_clear()
        report = stabilization_check(p1p1, two_diagonals, roots, 12)
        assert report.ok and len(report.cases) == 3 * 28
        info = _j_chain.cache_info()
        assert info.misses == info.currsize == 28

    def test_degree_zero_case_trivially_equal(self, p2, line_conic):
        report = stabilization_check(p2, line_conic, [RootData((7, 11))], 3)
        zero = [c for c in report.cases if c.beta == (0,)][0]
        assert zero.ok
        ((key, c),) = zero.limit.ordered_terms()
        assert key.zpow == 1 and c == 1

    def test_quadric_choices(self, p1p1, two_diagonals):
        roots = [RootData(r) for r in ((3, 5), (4, 9))]
        report = stabilization_check(p1p1, two_diagonals, roots, 4)
        assert report.ok

    def test_rescaled_values_are_order_free(self, p2, line_conic):
        # the same limit slice arises from any admissible choice of orders
        roots = [RootData((7, 11)), RootData((13, 17))]
        report = stabilization_check(p2, line_conic, roots, 6)
        by_beta = {}
        for case in report.cases:
            by_beta.setdefault(case.beta, set()).add(
                tuple(sorted(case.rescaled.terms.items()))
            )
        assert all(len(v) == 1 for v in by_beta.values())

    def test_order_too_small_rejected(self, p2, line_conic):
        with pytest.raises(ContractError, match="must exceed"):
            stabilization_check(p2, line_conic, [RootData((7, 5))], 9)

    def test_non_coprime_rejected(self, p2, line_conic):
        with pytest.raises(ContractError, match="coprime"):
            stabilization_check(p2, line_conic, [RootData((4, 6))], 3)


def test_extended_series_stabilizes_to_limit(p2, line_conic):
    # the full extended limit series is the stabilized form of the finite-order
    # extended series: divide by r_i exactly for divisors with positive net
    # shift and rekey residue sectors to integer shifts
    from math import prod

    from rootstack_gw import i_infinity_extended, i_root_extended

    m, cap, floor = 3, 6, -4
    limit = i_infinity_extended(p2, line_conic, m, cap, z_floor=floor)
    for roots in ((101, 103), (103, 107)):
        finite = i_root_extended(
            p2, line_conic, RootData(roots), m, cap, z_floor=floor
        )
        rescaled = {}
        for key, c in finite.terms.items():
            degs = line_conic.degrees(key.beta)
            shifts = [
                degs[i] - sum(j * e for ii, j, e in key.xexp if ii == i)
                for i in range(2)
            ]
            factor = prod(r for r, s in zip(roots, shifts) if s > 0)
            assert key.sector == tuple(
                (-s) % r for s, r in zip(shifts, roots)
            ), key
            rescaled[key._replace(sector=tuple(-s for s in shifts))] = c / factor
        assert rescaled == limit.terms


def test_finite_order_residue_terms_are_flagged(p2, line_conic):
    # extraction does not guess the orbifold pairing normalization at finite
    # order: residue-sector terms are reported for review, not valued
    series = i_root_nonextended(p2, line_conic, RootData((7, 11)), 3)
    table = extract_invariants(series, p2, line_conic)
    assert table.flagged
    assert all(not any(e.sector) for e in table.entries)
