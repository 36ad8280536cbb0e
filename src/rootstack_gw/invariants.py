"""Extraction of genus-zero invariants, and large-order stabilization.

A generating series equals the one-point descendant series only when its
mirror map is trivial.  When that holds, the coefficient of z^{-a-1}
against a basis direction encodes a one-point invariant with a psi-power a,
and the multinomial weights of the contact variables are undone by
multiplying with the factorials of their exponents.

The mirror-map certificate lives in :mod:`rootstack_gw.mirror`, which the
period pipeline loads without this module; its public names are re-exported
here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import factorial, prod
from types import MappingProxyType
from operator import attrgetter
from typing import Iterator, NamedTuple

from .algebra import CohClass, ContractError, GradedSeries, TermKey
from .h0 import _checked_classes, _joined
from .ifunctions import i_infinity_extended, infinity_slice, root_slice
from .mirror import (
    MirrorMapReport,
    UnsupportedMirrorMapError,
    contact_one_counts,
    mirror_map,
)
from .records import Record, fmt_ints
from .targets import (
    ConfigurationError,
    DivisorArrangement,
    RootData,
    TargetSpace,
    _class_body_chain,
    check_assumption,
    enumerate_curve_classes,
)


# ---------------------------------------------------------------------------
# Invariant tables
# ---------------------------------------------------------------------------


class TableEntry(NamedTuple):
    beta: tuple[int, ...]
    xexp: tuple[tuple[int, int, int], ...]
    insertion: tuple[int, ...]
    psi: int
    sector: tuple[int, ...]


# the order of a table's entries: psi comes before the insertion
_ORDER = attrgetter("beta", "xexp", "psi", "insertion", "sector")


class InvariantTable(Record):
    """Extracted one-point invariants, exact values, immutable once built.

    ``entries`` is kept as a read-only view of a private copy and
    ``flagged`` as a tuple, so no holder of a table can change it.
    """

    entries: MappingProxyType[TableEntry, Fraction] = MappingProxyType({})
    flagged: tuple[TermKey, ...] = ()

    def __post_init__(self):
        # a Record refuses assignment, so the converted values bypass it
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))
        object.__setattr__(self, "flagged", tuple(self.flagged))

    def value(
        self,
        beta: tuple[int, ...],
        xexp: tuple[tuple[int, int, int], ...] = (),
        *,
        insertion: tuple[int, ...],
        psi: int = 0,
        sector: tuple[int, ...],
    ) -> Fraction:
        key = TableEntry(tuple(beta), tuple(xexp), tuple(insertion), psi, tuple(sector))
        return self.entries.get(key, Fraction(0))

    def ordered(self) -> list[tuple[TableEntry, Fraction]]:
        return sorted(self.entries.items(), key=lambda kv: _ORDER(kv[0]))


def extract_invariants(
    series: GradedSeries,
    X: TargetSpace,
    arrangement: DivisorArrangement,
) -> InvariantTable:
    """Read one-point invariants off a series with trivial mirror map.

    Untwisted terms are recorded against the Poincare dual of their monomial,
    after undoing the multinomial weights (multiply by the factorials of the
    contact exponents).  Integer-tangency terms without contact variables are
    paired through the ambient ring with the product of their active divisor
    classes inserted.  Anything else (finite-order residues, mixed blocks) is
    flagged for manual review rather than guessed at.
    """
    mirror_map(series).require_trivial()
    return _read_invariants(series.ctx, series.terms.items(), X, arrangement)


def _read_invariants(ctx, terms, X: TargetSpace, arrangement) -> InvariantTable:
    """The reading of :func:`extract_invariants`, without its mirror-map
    check, over the terms of one or more series in the context ``ctx``;
    each support's intersection class, and its product with each inserted
    monomial, is formed once."""
    ring = ctx.ring
    entries, flagged = {}, []
    cuts = {}  # by support: its intersection class and its products by monomial

    def add(entry, value):
        if value:
            entries[entry] = entries.get(entry, Fraction(0)) + value

    for key, c in terms:
        if key.zpow >= 0:
            continue
        if any(key.lam):
            flagged.append(key)
            continue
        psi = -key.zpow - 1
        weight = c
        for _, _, e in key.xexp:
            weight *= factorial(e)
        if not any(key.sector):
            add(TableEntry(key.beta, key.xexp, ring.dual_mono(key.mono), psi, key.sector), weight)
            continue
        if ctx.roots is not None or key.xexp:
            flagged.append(key)
            continue
        support = tuple(i for i, s in enumerate(key.sector) if s)
        if support not in cuts:
            cuts[support] = arrangement.intersection_class(X, support), {}
        cut, paired_by = cuts[support]
        if key.mono not in paired_by:
            paired_by[key.mono] = cut * CohClass(ring, {key.mono: Fraction(1)})
        paired = paired_by[key.mono]
        if paired.is_zero:
            flagged.append(key)
            continue
        for mono, coeff in paired.items():
            add(TableEntry(key.beta, (), ring.dual_mono(mono), psi, key.sector), weight * coeff)
    return InvariantTable(entries, flagged)


def invariant_rows(
    X: TargetSpace,
    arrangement: DivisorArrangement,
    m: int,
    cap: int,
) -> Iterator[tuple]:
    """The one-point invariants of the untwisted extended and the
    non-extended limit series, as (beta, rows, flagged) per curve class in
    lex order.  A row is (xexp, psi, insertion, sector, value, text), with
    ``value`` a Fraction and ``text`` its record fields after the class,
    formed but for its contacts once per body cell and tiling total; the
    rows of a class are sorted, the order of :meth:`InvariantTable.ordered`,
    and ``flagged`` holds the class's terms flagged for review.

    Both series are slices of the extended limit series, its zero-shift and
    its contact-free terms, so its certificate at z floor 0 covers both.
    The contact-free rows, read by :func:`_read_invariants` off
    :func:`~rootstack_gw.ifunctions.infinity_slice`, come first; a class
    that meets no divisor has none, since its non-extended slice equals its
    h0 slice's empty tiling.  The h0 rows are read straight off the class's
    one body, :func:`~rootstack_gw.targets._class_body_chain`: a tiling of
    total t moves every body cell down by t with weight 1 / prod e!, and
    extraction multiplies the weight back, so each body cell below z^t is
    one row with psi = t - zpow - 1 and the cell's own coefficient, the
    same for every tiling of total t but for the contacts, read in lex
    order over all totals off the class's :func:`~rootstack_gw.h0._joined`.

    Every refusal comes before the iterator is returned: the certificate,
    then, through :func:`~rootstack_gw.h0._checked_classes`, m against
    every class's intersection numbers."""
    mirror_map(i_infinity_extended(X, arrangement, m, cap, z_floor=0)).require_trivial()
    betas = _checked_classes(X, arrangement, m, cap)
    ctx = X.context(arrangement.n, cap)
    dual = ctx.ring.dual_mono
    untwisted = (0,) * arrangement.n

    def row(psi, insertion, sector, q, contacts=""):
        # a row but for its contacts, then its record text from them on
        return psi, insertion, sector, q, (
            f"{contacts}\t{fmt_ints(insertion)}\t{psi}\t"
            f"{fmt_ints(sector)}\t{q.numerator}/{q.denominator}"
        )

    def h0_rows(beta, degs):
        body = _class_body_chain(X, arrangement, beta).series(ctx, beta).terms.items()
        # by (-zpow, insertion): the print order of every tiling's rows
        cells = sorted((-key.zpow, dual(key.mono), c) for key, c in body)
        tails = {}  # by total: the rows every tiling of that total shares
        for xexp, total, _, text in _joined(degs, m)():
            if total not in tails:
                tails[total] = [
                    row(total + z - 1, i, untwisted, c) for z, i, c in cells if z > -total
                ]
            for psi, insertion, sector, value, after in tails[total]:
                yield xexp, psi, insertion, sector, value, text + after

    def classes():
        for beta in betas:
            degs = arrangement.degrees(beta)
            rows, flagged = h0_rows(beta, degs), ()
            if any(degs):
                terms = infinity_slice(X, arrangement, beta, ctx).terms.items()
                table = _read_invariants(ctx, terms, X, arrangement)
                tangency = (  # the non-extended slice has no contacts
                    (e.xexp, *row(e.psi, e.insertion, e.sector, v, "-"))
                    for e, v in table.ordered()
                )
                rows, flagged = chain(tangency, rows), table.flagged
            yield beta, rows, flagged

    return classes()


def n_orb(
    X: TargetSpace,
    arrangement: DivisorArrangement,
    beta: tuple[int, ...],
) -> Fraction:
    """Count with d_i contact-order-one markings on each divisor and one
    interior point insertion carrying psi^(d-2).

    This is the invariant extraction reads at the contact monomial
    prod_i x_{i1}^{d_i}; it is taken from the class body
    (:func:`contact_one_counts`).  Refused unless the arrangement is valid
    on X, the two-positive-pairings condition holds and the mirror map is
    trivial, the last two up to the class's anticanonical degree.
    """
    beta = tuple(beta)
    arrangement.validate_on(X)
    if arrangement.total_degree(beta) < 2:
        raise ValueError("total contact below 2 has no interior psi insertion")
    cap = X.anticanonical_degree(beta)
    assumption = check_assumption(X, arrangement, cap)
    if not assumption.holds:
        raise UnsupportedMirrorMapError(
            f"two-positive-pairings condition fails at {assumption.violations[0]}"
        )
    counts = contact_one_counts(X, arrangement, cap)
    if beta not in counts:
        raise ValueError("beta must be an effective curve class of the target")
    return counts[beta]


# ---------------------------------------------------------------------------
# Large-order stabilization
# ---------------------------------------------------------------------------


class StabilizationCase(Record):
    roots: tuple[int, ...]
    beta: tuple[int, ...]
    ok: bool
    rescaled: GradedSeries
    limit: GradedSeries

    def first_mismatch(self) -> TermKey | None:
        return self.rescaled.first_mismatch(self.limit)


class StabilizationReport(Record):
    cases: tuple[StabilizationCase, ...]

    @property
    def ok(self) -> bool:
        return all(case.ok for case in self.cases)


def rescale_to_limit(
    slice_series: GradedSeries,
    X: TargetSpace,
    arrangement: DivisorArrangement,
    beta: tuple[int, ...],
    limit_ctx,
) -> GradedSeries:
    """Identify a finite-order degree slice with its limit normal form.

    Divides out the product of the root orders of the divisors the class
    actually meets and rekeys residue sectors to integer tangencies.
    """
    roots = slice_series.ctx.roots
    if roots is None:
        raise ContractError("series does not carry finite root orders")
    degs = arrangement.degrees(beta)
    factor = prod(r for r, d in zip(roots, degs) if d > 0)
    expected = tuple((-d) % r for d, r in zip(degs, roots))
    target = tuple(-d for d in degs)
    out = {}
    for key, c in slice_series.terms.items():
        if key.xexp:
            raise ContractError("only non-extended slices stabilize by this rule")
        if key.sector != expected:
            raise ContractError(
                f"sector {key.sector} does not match residues {expected} at beta={beta}"
            )
        out[key._replace(sector=target)] = c / factor
    return GradedSeries(limit_ctx, out)


def stabilization_check(
    X: TargetSpace,
    arrangement: DivisorArrangement,
    roots_list: list[RootData],
    cap: int,
) -> StabilizationReport:
    """Bit-exact large-order stabilization over every class in the cap.

    Builds each class's limit slice once and, per order vector, each class's
    finite-order slice, all at the given cap.  Requires each supplied order
    vector to be pairwise coprime and to exceed every relevant intersection
    number, so that each divisor's fractional ladder is the single step that
    carries the whole order dependence.
    """
    arrangement.validate_on(X)
    betas = enumerate_curve_classes(X, cap)
    max_degs = arrangement.max_degrees(X, cap)
    limit_ctx = X.context(arrangement.n, cap)
    limits = [infinity_slice(X, arrangement, b, limit_ctx) for b in betas]
    cases = []
    for roots in roots_list:
        try:
            roots.validate_for(arrangement)
        except ConfigurationError as err:
            raise ContractError(f"orders {roots.orders}: {err}") from err
        for r, dmax in zip(roots.orders, max_degs):
            if dmax > 0 and r <= dmax:
                raise ContractError(f"order {r} must exceed the largest intersection number {dmax}")
        ctx = X.context(arrangement.n, cap, roots=roots.orders)
        for beta, expected in zip(betas, limits):
            finite = root_slice(X, arrangement, beta, ctx)
            rescaled = rescale_to_limit(finite, X, arrangement, beta, limit_ctx)
            cases.append(
                StabilizationCase(roots.orders, beta, rescaled == expected, rescaled, expected)
            )
    return StabilizationReport(cases=tuple(cases))
