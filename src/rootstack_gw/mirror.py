"""The mirror-map certificate and the contact-order-one counts it guards.

A generating series equals the one-point descendant series only when its
mirror map is trivial, meaning the z^0 part consists of nothing but the bare
contact-variable insertions and no positive z powers survive beyond the
dilaton term.  Nontrivial mirror maps are detected and rejected with a
precise diagnostic; no resummation is ever attempted.

Both :mod:`rootstack_gw.invariants` and the period pipeline certify through
this module.  The period pipeline's certificate and counts are read off one
dense body chain per class, so ``period`` and ``compare-periods`` load
neither the invariant tables nor any series builder.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import GradedSeries, TermKey, print_key
from .records import Record
from .targets import DivisorArrangement, TargetSpace, enumerate_curve_classes
from .targets import _class_body_chain


class UnsupportedMirrorMapError(ValueError):
    """The mirror map is nontrivial; resummation is out of scope here."""

    exit_status = 2  # the command line's exit status for this refusal


class MirrorMapReport(Record):
    """Split of a series by z-degree around the dilaton term."""

    dilaton_ok: bool
    contact_units: tuple[TermKey, ...]
    z_zero_extra: GradedSeries
    z_positive_extra: GradedSeries

    @property
    def trivial(self) -> bool:
        return (
            self.dilaton_ok
            and self.z_zero_extra.is_zero
            and self.z_positive_extra.is_zero
        )

    def explain(self) -> str:
        if self.trivial:
            return "mirror map is trivial"
        from heapq import nsmallest

        bits = []
        if not self.dilaton_ok:
            bits.append("dilaton term z is missing or has coefficient != 1")
        for key, c in nsmallest(3, self.z_zero_extra.terms.items(), key=print_key):
            bits.append(f"z^0 term {c} at {key}")
        for key, c in nsmallest(3, self.z_positive_extra.terms.items(), key=print_key):
            bits.append(f"positive-z term {c} at {key}")
        return "mirror map nontrivial: " + "; ".join(bits)

    def refusal(self) -> UnsupportedMirrorMapError:
        """The error that refuses this mirror map, naming its offending terms."""
        return UnsupportedMirrorMapError(
            self.explain() + "; Birkhoff factorization unsupported"
        )

    def require_trivial(self) -> None:
        """Refuse a nontrivial mirror map."""
        if not self.trivial:
            raise self.refusal()


def _is_contact_unit(ctx, key: TermKey) -> bool:
    """A beta=0 term x_{ij} z^0 sitting in the sector the contact order shifts to."""
    if any(key.beta) or key.zpow != 0 or any(key.lam):
        return False
    if key.mono != ctx.ring.zero_mono or len(key.xexp) != 1:
        return False
    i, j, e = key.xexp[0]
    if e != 1:
        return False
    expected = [0] * ctx.divisors
    expected[i] = j % ctx.roots[i] if ctx.roots is not None else j
    return key.sector == tuple(expected)


def mirror_map(series: GradedSeries) -> MirrorMapReport:
    """Split the series by z-degree and test the trivial form."""
    ctx = series.ctx
    dilaton_key = ctx.zero_key()._replace(zpow=1)
    dilaton_ok = series.terms.get(dilaton_key, Fraction(0)) == 1
    units = []
    zero_extra = {}
    positive_extra = {}
    for key, c in series.terms.items():
        if key.zpow < 0 or key == dilaton_key:
            continue
        if key.zpow == 0 and c == 1 and _is_contact_unit(ctx, key):
            units.append(key)
            continue
        if key.zpow == 0:
            zero_extra[key] = c
        else:
            positive_extra[key] = c
    return MirrorMapReport(
        dilaton_ok=dilaton_ok,
        contact_units=tuple(sorted(units)),
        z_zero_extra=GradedSeries(ctx, zero_extra),
        z_positive_extra=GradedSeries(ctx, positive_extra),
    )


def contact_one_counts(
    X: TargetSpace, arrangement: DivisorArrangement, cap: int
) -> dict[tuple[int, ...], Fraction]:
    """The value :func:`~rootstack_gw.invariants.n_orb` returns for every
    class up to the cap, read without its other refusals: the untwisted z^1
    coefficient with insertion 1 of each class body: its zero-monomial
    cell when the body has z-degree 1, and 0 otherwise.

    The tiling prod_i x_{i1}^{d_i} moves that body term to z^-(d-1) with
    weight 1/prod_i d_i!, and extraction multiplies the weight back.  The
    same bodies certify the mirror map of the untwisted extended limit
    series up to the cap, whose terms at z^0 and above decide it.  A tiling
    moves a body cell down by its part count, at least the number of
    divisors meeting beta; so the series is trivial exactly when no body
    but the beta = 0 dilaton z has a nonzero cell at that count or above.
    Refused unless it is trivial; only then are :mod:`rootstack_gw.h0` and
    :mod:`rootstack_gw.ifunctions` imported, to name the offending terms off
    the rows of :func:`~rootstack_gw.h0.h0_rows` at z^0 and above, folded by
    :func:`~rootstack_gw.ifunctions._rows_series`.
    """
    counts, reached = {}, 0
    for beta in enumerate_curve_classes(X, cap):
        body = _class_body_chain(X, arrangement, beta)
        counts[beta] = body.zero_cell() if body.degree == 1 else Fraction(0)
        top = body.degree - sum(1 for d in arrangement.degrees(beta) if d)
        cells = zip(body.layout.cells, body.num)
        reached += any(beta) and any(c and w <= top for (_, w), c in cells)
    if reached:
        from itertools import takewhile

        from .h0 import h0_rows
        from .ifunctions import _rows_series

        # a class's rows come in print order, those at z^0 and above first,
        # so each class is read only up to its first row below
        classes = h0_rows(X, arrangement, max(1, *arrangement.max_degrees(X, cap)), cap)
        above = ((beta, takewhile(lambda row: row[0] <= 0, rows)) for beta, rows in classes)
        raise mirror_map(_rows_series(X.context(arrangement.n, cap), above)).refusal()
    return counts
