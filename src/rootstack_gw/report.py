"""The text of the ``ifunction`` and ``invariants`` reports.

Each report is rendered one curve class at a time, as its rows come from
the builders, so no report is held whole.  Only those two commands import
this module; the others never compile it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from .config import JobConfig
from .records import fmt_ints, fmt_rat

if TYPE_CHECKING:
    from .algebra import TermKey


def fmt_contact(triple: tuple[int, int, int]) -> str:
    i, j, e = triple
    return f"{i + 1}:{j}^{e}"


def fmt_xexp(xexp: tuple[tuple[int, int, int], ...]) -> str:
    return ",".join(map(fmt_contact, xexp)) if xexp else "-"


class _Memo(dict):
    """``fmt`` of each value, formatted on the first lookup and kept."""

    __slots__ = ("fmt",)

    def __init__(self, fmt):
        super().__init__()
        self.fmt = fmt

    def __missing__(self, value):
        text = self[value] = self.fmt(value)
        return text


class _RecordFields:
    """Record fields formatted once per distinct value.

    The rows of one report repeat few curve classes, sectors, monomials and
    contact triples, so each of those strings is kept for the report; a
    row's whole line never is.  Coefficients are formatted row by row:
    hashing a ``Fraction`` costs more than formatting it.
    """

    def __init__(self):
        self.ints = _Memo(fmt_ints)
        self.contact = _Memo(fmt_contact).__getitem__

    def xexp(self, xexp: tuple[tuple[int, int, int], ...]) -> str:
        return ",".join(map(self.contact, xexp)) if xexp else "-"

    def key(self, key: TermKey) -> tuple[str, ...]:
        ints = self.ints
        beta, zpow, xexp, sector, mono, lam = key
        return (
            ints[beta], str(zpow), self.xexp(xexp), ints[sector], ints[mono], ints[lam]
        )


def series_records(classes: Iterable[tuple[tuple[int, ...], Iterable[tuple]]]) -> Iterator[str]:
    """Records of a series given as (beta, rows) per class, each class's
    rows in print order, as :func:`_series_classes` gives them."""
    fields = _RecordFields()
    ints, xexps = fields.ints, fields.xexp
    for beta, rows in classes:
        head = "term\t" + ints[beta] + "\t"
        for negz, mono, xexp, sector, lam, c in rows:
            yield (
                f"{head}{-negz}\t{xexps(xexp)}\t{ints[sector]}\t{ints[mono]}\t"
                f"{ints[lam]}\t{c.numerator}/{c.denominator}"
            )


def series_table(
    classes: Iterable[tuple[tuple[int, ...], Iterable[tuple]]], ring, name: str
) -> Iterator[str]:
    """The human table of the same classes; the term count, known only at
    the end, follows on a trailing line."""
    count = 0
    for beta, rows in classes:
        head = "Q^(" + fmt_ints(beta) + ")" if any(beta) else None
        for negz, mono, xexp, sector, lam, c in rows:
            count += 1
            bits = [fmt_rat(c, records=False)]
            if head:
                bits.append(head)
            if negz:
                bits.append(f"z^{-negz}")
            for i, j, e in xexp:
                bits.append(f"x[{i + 1},{j}]" + (f"^{e}" if e > 1 else ""))
            for i, l in enumerate(lam):
                if l:
                    bits.append(f"lam{i + 1}" + (f"^{l}" if l > 1 else ""))
            text = ring.render_mono(mono)
            if text != "1":
                bits.append(text)
            if any(sector):
                bits.append("[" + fmt_ints(sector) + "]")
            yield " ".join(bits)
    yield f"# series {name}: {count} terms"


def invariant_records(classes) -> Iterator[str]:
    """Records of the (beta, rows, flagged) classes of
    :func:`invariants.invariant_rows`, their values formatted by
    ``fmt_rat(value, records=True)``; the flagged keys of all of them
    follow, sorted, at the end."""
    fields = _RecordFields()
    ints, xexps = fields.ints, fields.xexp
    flagged = []
    for beta, rows, flags in classes:
        head = "invariant\t" + ints[beta] + "\t"
        last = None
        for xexp, psi, insertion, sector, value in rows:
            # the rows of one contact monomial come together
            if xexp is not last:
                last, lead = xexp, head + xexps(xexp) + "\t"
            yield f"{lead}{ints[insertion]}\t{psi}\t{ints[sector]}\t{value}"
        flagged += flags
    for key in sorted(flagged):
        yield "flagged\t" + "\t".join(fields.key(key))


def invariant_table(classes, ring) -> Iterator[str]:
    """The human table of the same classes, values formatted by
    ``fmt_rat(value, records=False)``, with the flagged count last."""
    inserts = _Memo(ring.render_mono)
    flagged = 0
    for beta, rows, flags in classes:
        head = f"beta=({fmt_ints(beta)})"
        for xexp, psi, insertion, sector, value in rows:
            parts = [head]
            if xexp:
                parts.append("contacts " + fmt_xexp(xexp))
            parts.append(f"insert {inserts[insertion]}")
            parts.append(f"psi^{psi}")
            if any(sector):
                parts.append(f"sector ({fmt_ints(sector)})")
            yield "  ".join(parts) + f"  = {value}"
        flagged += len(flags)
    if flagged:
        yield f"# {flagged} term(s) flagged for manual review"


def _series_classes(job: JobConfig, name: str):
    """The series ``name`` as (beta, rows) per class, every refusal made,
    each class built as it is read, its rows in print order: the extended
    rows as their builders give them, a closed-form class as its slice's
    terms sorted into :func:`print_row` rows.  No whole series is built."""
    X, arr, cap = job.target, job.arrangement, job.cap
    m = job.contact_bound()
    floor = -(cap + 2)
    if name in ("root-extended", "infinity-extended"):
        from .extended import extended_rows

        roots = job.require_roots() if name == "root-extended" else None
        return extended_rows(X, arr, m, cap, floor, roots)[1]
    if name == "infinity-extended-h0":
        from .h0 import h0_rows

        return h0_rows(X, arr, m, cap)
    from .ifunctions import slice_classes
    from .series import print_row

    roots = job.require_roots() if name == "root" else None
    slices = slice_classes(X, arr, name, cap, roots)[1]
    return ((beta, sorted(print_row(*term) for term in s.terms.items())) for beta, s in slices)
