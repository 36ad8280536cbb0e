from __future__ import annotations

import json
from fractions import Fraction as F
from math import factorial

import pytest

from rootstack_gw import (
    Divisor,
    DivisorArrangement,
    ExtendedDataTooSmall,
    RootData,
    TargetSpace,
    UnsupportedMirrorMapError,
    check_assumption,
    enumerate_curve_classes,
    extract_invariants,
    i_infinity_extended,
    i_infinity_extended_h0,
    i_infinity_nonextended,
    i_root_nonextended,
    mirror_map,
    n_orb,
    stabilization_check,
)
from rootstack_gw import h0, ifunctions, invariants, mirror, records, report
from rootstack_gw.algebra import ContractError, GradedSeries
from rootstack_gw.cli import run
from rootstack_gw.invariants import invariant_rows
from rootstack_gw.series import print_key
from rootstack_gw.targets import _j_chain

from conftest import flagged_record, invariant_record


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

    def test_explain_names_the_first_terms_in_print_order(self, p2):
        ctx = p2.context(1, 9)
        zero = ctx.zero_key()
        keys = [
            zero._replace(beta=(b,), zpow=z, mono=(k,))
            for b in (2, 1)
            for z in (2, 1, 0)
            for k in (2, 1, 0)
        ]
        terms = {key: F(i + 1) for i, key in enumerate(keys)}
        report = mirror_map(GradedSeries(ctx, terms))
        assert len(report.z_zero_extra) == 6 and len(report.z_positive_extra) == 12
        bits = ["dilaton term z is missing or has coefficient != 1"]
        for label, part in (
            ("z^0", report.z_zero_extra),
            ("positive-z", report.z_positive_extra),
        ):
            for key, c in sorted(part.terms.items(), key=print_key)[:3]:
                bits.append(f"{label} term {c} at {key}")
        text = report.explain()
        assert text == "mirror map nontrivial: " + "; ".join(bits)
        assert (
            "; positive-z term 12 at TermKey(beta=(1,), zpow=2, xexp=(), "
            "sector=(0,), mono=(0,), lam=(0,)); "
        ) in text

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

    def test_value_needs_insertion_and_sector(self, p2, line_conic):
        # every entry has both, so a default for either would only ever read 0
        h0 = i_infinity_extended_h0(p2, line_conic, 6, 9)
        table = extract_invariants(h0, p2, line_conic)
        contacts = ((0, 1, 1), (1, 2, 1))
        assert table.value((1,), contacts, insertion=(2,), sector=(0, 0)) == 2
        with pytest.raises(TypeError):
            table.value((1,), contacts, insertion=(2,))
        with pytest.raises(TypeError):
            table.value((1,), contacts, sector=(0, 0))

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
                    (d1, d2), ((0, e, 1), (1, e, 1)), insertion=(1, 1), sector=(0, 0)
                )
                b = table.value(
                    (d2, d1), ((0, e, 1), (1, e, 1)), insertion=(1, 1), sector=(0, 0)
                )
                assert a == b


def table_by_class(X, arrangement, m, cap):
    """The table path of the ``invariants`` command, kept here as the oracle
    of :func:`invariants.invariant_rows`: after the floor-0 certificate,
    one table per class in lex order, :func:`invariants._read_invariants`
    over the class's slice of the whole untwisted extended series (every
    tiling's terms, with their Fraction weights) and, when the class meets
    a divisor, its non-extended slice."""
    mirror_map(i_infinity_extended(X, arrangement, m, cap, z_floor=0)).require_trivial()
    ctx = X.context(arrangement.n, cap)
    betas = enumerate_curve_classes(X, cap)
    untwisted = i_infinity_extended_h0(X, arrangement, m, cap)

    def terms(beta):
        yield from untwisted.beta_slice(beta).terms.items()
        if any(d > 0 for d in arrangement.degrees(beta)):
            yield from ifunctions.infinity_slice(X, arrangement, beta, ctx).terms.items()

    return (invariants._read_invariants(ctx, terms(beta), X, arrangement) for beta in betas)


def table_records(tables):
    """The records of :func:`table_by_class`'s tables, the flagged keys of
    all of them last, sorted, each written by the tests' own formatter."""
    flagged = []
    for table in tables:
        for entry, value in table.ordered():
            yield invariant_record(
                entry.beta, entry.xexp, entry.insertion, entry.psi, entry.sector, value
            )
        flagged += table.flagged
    for key in sorted(flagged):
        yield flagged_record(key)


def table_human(tables, ring):
    """The human table of :func:`table_by_class`'s tables."""
    flagged = 0
    for table in tables:
        for entry, value in table.ordered():
            parts = [f"beta=({records.fmt_ints(entry.beta)})"]
            if entry.xexp:
                parts.append("contacts " + report.fmt_xexp(entry.xexp))
            parts.append(f"insert {ring.render_mono(entry.insertion)}")
            parts.append(f"psi^{entry.psi}")
            if any(entry.sector):
                parts.append(f"sector ({records.fmt_ints(entry.sector)})")
            yield "  ".join(parts) + f"  = {records.fmt_rat(value, records=False)}"
        flagged += len(table.flagged)
    if flagged:
        yield f"# {flagged} term(s) flagged for manual review"


P1P1 = TargetSpace((1, 1))
FIBRE = Divisor("F", (0, 1))
# name -> target, divisors, m (None: the largest intersection number), cap
# and the number of flagged terms
BY_CLASS_JOBS = {
    "line-conic": (
        TargetSpace((2,)), (Divisor("L", (1,)), Divisor("C", (2,))), 6, 9, 5
    ),
    "diagonals": (P1P1, (Divisor("L1", (1, 1)), Divisor("L2", (1, 1))), None, 8, 32),
    "conic": (TargetSpace((2,)), (Divisor("C", (2,)),), None, 18, 5),
    "two-quadrics": (
        TargetSpace((3,)), (Divisor("Q1", (2,)), Divisor("Q2", (2,))), None, 8, 4
    ),
    # the classes (k,0) meet no divisor
    "fibre": (P1P1, (FIBRE,), None, 8, 16),
    "fibre-diagonal": (P1P1, (FIBRE, Divisor("D", (1, 1))), None, 8, 30),
}
# the first divisor has degree 2, so its tilings of one class have
# different lengths, and their order decides the order of the joined
# contact monomials
ROW_JOBS = dict(
    BY_CLASS_JOBS,
    **{
        "conic-line": (
            TargetSpace((2,)), (Divisor("C", (2,)), Divisor("L", (1,))), None, 9, 5
        ),
    },
)


def _job(name):
    X, divisors, m, cap, flagged = ROW_JOBS[name]
    arrangement = DivisorArrangement(divisors)
    return X, arrangement, m or max(1, *arrangement.max_degrees(X, cap)), cap, flagged


class TestTableByClass:
    @pytest.mark.parametrize("name", BY_CLASS_JOBS)
    def test_equals_both_whole_series_tables(self, name):
        X, arrangement, m, cap, flagged = _job(name)
        contact = extract_invariants(
            i_infinity_extended_h0(X, arrangement, m, cap), X, arrangement
        )
        tangency = extract_invariants(
            i_infinity_nonextended(X, arrangement, cap), X, arrangement
        )
        # the two blocks may share an entry only with one value
        for entry in contact.entries.keys() & tangency.entries.keys():
            assert contact.entries[entry] == tangency.entries[entry], entry
        # the per-class tables come in lex order of their classes, each
        # holding one class; merged, they are the two whole-series tables
        entries, flagged_keys = {}, []
        tables = table_by_class(X, arrangement, m, cap)
        for beta, table in zip(enumerate_curve_classes(X, cap), tables, strict=True):
            assert {entry.beta for entry in table.entries} <= {beta}
            assert {key.beta for key in table.flagged} <= {beta}
            entries.update(table.entries)
            flagged_keys += table.flagged
        assert entries == dict(contact.entries) | dict(tangency.entries)
        assert sorted(flagged_keys) == sorted(contact.flagged + tangency.flagged)
        assert entries and len(flagged_keys) == flagged


class TestInvariantRows:
    @pytest.mark.parametrize("name", ROW_JOBS)
    def test_rows_equal_the_table_path(self, name):
        X, arrangement, m, cap, flagged = _job(name)
        classes = invariant_rows(X, arrangement, m, cap)
        tables = table_by_class(X, arrangement, m, cap)
        betas = enumerate_curve_classes(X, cap)
        flagged_keys = []
        for beta, (got_beta, rows, flags), table in zip(betas, classes, tables, strict=True):
            assert got_beta == beta
            rows = list(rows)
            # the rows of a class sort natively into the table's order
            assert all(a < b for a, b in zip(rows, rows[1:])), beta
            want = [(e.xexp, e.psi, e.insertion, e.sector, v) for e, v in table.ordered()]
            assert [row[:5] for row in rows] == want, beta
            records = [invariant_record(beta, *e[1:], v) for e, v in table.ordered()]
            assert [row[5] for row in rows] == [r.split("\t", 2)[2] for r in records], beta
            assert sorted(flags) == sorted(table.flagged)
            flagged_keys += flags
        assert len(flagged_keys) == flagged

    @pytest.mark.parametrize("name", ROW_JOBS)
    def test_command_output_equals_the_table_path(self, name):
        X, arrangement, m, cap, _ = _job(name)
        got = report.invariant_records(invariant_rows(X, arrangement, m, cap))
        want = table_records(table_by_class(X, arrangement, m, cap))
        assert list(got) == list(want)
        got = report.invariant_table(invariant_rows(X, arrangement, m, cap), X.ring)
        want = table_human(table_by_class(X, arrangement, m, cap), X.ring)
        assert list(got) == list(want)

    def test_m_refused_before_any_class_is_read(self, p2, line_conic, monkeypatch):
        # classes 0 and 1 fit m = 3; the refusal names (2,), the first that
        # does not, and comes before the iterator reads any class
        def unread(*args):
            raise AssertionError("a class was read")

        monkeypatch.setattr(invariants, "_class_body_chain", unread)
        monkeypatch.setattr(invariants, "infinity_slice", unread)
        message = r"^contact bound m=3 misses tangency 4 needed at beta=\(2,\)$"
        with pytest.raises(ExtendedDataTooSmall, match=message):
            invariant_rows(p2, line_conic, 3, 9)

    def test_one_certificate_and_no_whole_series(self, tmp_path, monkeypatch, capsys):
        certified = []
        real = invariants.mirror_map

        def counted(series):
            certified.append(series)
            return real(series)

        def whole_series(*args):
            raise AssertionError("a whole-cap or per-tiling series was built")

        for module in (invariants, mirror):
            monkeypatch.setattr(module, "mirror_map", counted)
        # neither of the two whole series
        names = ("i_infinity_extended_h0", "i_infinity_nonextended")
        for module in (ifunctions, h0, invariants, mirror):
            for name in names:
                monkeypatch.setattr(module, name, whole_series, raising=False)
        job = {
            "target": {"factors": [2]},
            "divisors": [{"name": "L", "coeffs": [1]}, {"name": "C", "coeffs": [2]}],
            "cap": 9,
            "m": 6,
        }
        config = tmp_path / "job.json"
        config.write_text(json.dumps(job), encoding="utf-8")
        args = ["--command", "invariants", "--format", "records"]
        assert run(["--config", str(config), *args]) == 0
        assert capsys.readouterr().out.startswith("invariant\t")
        assert len(certified) == 1


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
