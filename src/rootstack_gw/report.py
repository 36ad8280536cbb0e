"""The text of the ``ifunction`` and ``invariants`` reports.

Each report is rendered one curve class at a time, as its rows come from
the builders, so no report is held whole.  Every row ends with its record
text after the class, so a record is the class's head and that text.  Only
those two commands import this module; the others never compile it.
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
    """The record text of term keys, each integer tuple and contact triple
    formatted once: the rows of a closed-form series and the flagged keys
    repeat few classes, sectors, monomials and triples."""

    def __init__(self):
        self.ints = _Memo(fmt_ints)
        self.contact = _Memo(fmt_contact).__getitem__

    def key(self, zpow: int, xexp: tuple, sector: tuple, mono: tuple, lam: tuple) -> str:
        """A term key's fields after its class."""
        ints = self.ints
        contacts = ",".join(map(self.contact, xexp)) if xexp else "-"
        return f"{zpow}\t{contacts}\t{ints[sector]}\t{ints[mono]}\t{ints[lam]}"


def series_records(classes: Iterable[tuple[tuple[int, ...], Iterable[tuple]]]) -> Iterator[str]:
    """Records of a series given as (beta, rows) per class, each class's
    rows in print order, as :func:`_series_classes` gives them."""
    for beta, rows in classes:
        head = "term\t" + fmt_ints(beta) + "\t"
        for row in rows:
            yield head + row[6]


def series_table(
    classes: Iterable[tuple[tuple[int, ...], Iterable[tuple]]], ring, name: str
) -> Iterator[str]:
    """The human table of the same classes; the term count, known only at
    the end, follows on a trailing line."""
    count = 0
    for beta, rows in classes:
        head = "Q^(" + fmt_ints(beta) + ")" if any(beta) else None
        for negz, mono, xexp, sector, lam, c, _ in rows:
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
    :func:`invariants.invariant_rows`; the flagged keys of all of them
    follow, sorted, at the end."""
    flagged = []
    for beta, rows, flags in classes:
        head = "invariant\t" + fmt_ints(beta) + "\t"
        for row in rows:
            yield head + row[5]
        flagged += flags
    fields = _RecordFields()
    for beta, zpow, *key in sorted(flagged):
        yield f"flagged\t{fields.ints[beta]}\t{fields.key(zpow, *key)}"


def invariant_table(classes, ring) -> Iterator[str]:
    """The human table of the same classes, values formatted by
    ``fmt_rat(value, records=False)``, with the flagged count last."""
    inserts = _Memo(ring.render_mono)
    flagged = 0
    for beta, rows, flags in classes:
        head = f"beta=({fmt_ints(beta)})"
        for xexp, psi, insertion, sector, value, _ in rows:
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
    terms sorted into :func:`print_row` rows, each with its record text.
    No whole series is built."""
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
    key = _RecordFields().key

    def rows(s):
        for negz, mono, xexp, sector, lam, c in sorted(print_row(*t) for t in s.terms.items()):
            text = f"{key(-negz, xexp, sector, mono, lam)}\t{c.numerator}/{c.denominator}"
            yield negz, mono, xexp, sector, lam, c, text

    return ((beta, rows(s)) for beta, s in slices)
