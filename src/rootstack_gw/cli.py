"""Command-line entry point.

One job per invocation: parse a JSON config, run one command, emit a human
table or machine-readable records, exit 0 only if every requested check
passed bit-exactly.  Exit codes: 1 for configuration problems and failed
comparisons, 2 when a nontrivial mirror map blocks invariant extraction
(``UnsupportedMirrorMapError``) or the period pipeline (``PeriodError``, the
two-positive-pairings condition fails).  An error sets its own status in
``exit_status``; any other ``ValueError`` exits 1.

Each command imports the modules it runs when it runs, so a job loads and
compiles only those: ``laurent-period`` reads no job file and loads only
``config``, ``algebra``, ``records`` and ``laurent`` beside this module.
"""

from __future__ import annotations

# ``algebra`` comes first, before any standard-library import and before
# ``config``.  When no bytecode cache is written, every job compiles its
# modules from source.  Compiling ``algebra``, the largest, raises a fresh
# interpreter's resident set by about 2.3 MB that is never given back, and
# the smaller compiles and imports after it reuse that memory; so a child's
# peak resident set is lowest when ``algebra`` is compiled on the smallest
# heap: loading ``config`` and ``json`` before it raises a
# ``compare-periods`` child's peak by about 0.5 MB.
from . import algebra
from .config import ConfigError, JobConfig, check_cap, parse_config, parse_roots

import argparse
import sys
from itertools import chain, islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    from fractions import Fraction

    from .algebra import TermKey
    from .targets import RootData

COMMANDS = (
    "ifunction",
    "invariants",
    "stabilize",
    "check-identity",
    "period",
    "compare-periods",
    "laurent-period",
)

# Lines joined into one ``write``: a write per line costs measurable time
# on a report of thousands of lines, and a few hundred already make that
# cost vanish while the joined text stays small.
WRITE_BATCH = 512

SERIES_CHOICES = (
    "root",
    "root-extended",
    "infinity",
    "infinity-extended",
    "infinity-extended-h0",
    "relative",
    "local",
)


def fmt_rat(q: Fraction, records: bool) -> str:
    if records or q.denominator != 1:
        return f"{q.numerator}/{q.denominator}"
    return str(q.numerator)


def fmt_ints(values: tuple[int, ...]) -> str:
    return ",".join(str(v) for v in values) if values else "-"


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
    """Records of a series given as (beta, rows) per class, as
    :meth:`GradedSeries.class_rows` and :func:`extended.extended_rows`
    give them."""
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


# ---------------------------------------------------------------------------
# Command implementations.  Each makes every check that can refuse, then
# returns (exit_status, lines); the lines are produced as they are written
# and never raise a ValueError.
# ---------------------------------------------------------------------------


def _series_classes(job: JobConfig, name: str):
    """The series ``name`` as (beta, rows) per class, every refusal made.
    The extended series come straight from their builders, one class at a
    time; the other families are built whole, then walked by class."""
    X, arr, cap = job.target, job.arrangement, job.cap
    m = job.contact_bound()
    floor = -(cap + 2)
    if name in ("root-extended", "infinity-extended"):
        from .extended import extended_rows

        roots = job.require_roots() if name == "root-extended" else None
        return extended_rows(X, arr, m, cap, floor, roots)[1]
    from .ifunctions import (
        h0_slices,
        i_infinity_nonextended,
        i_local,
        i_relative_smooth,
        i_root_nonextended,
    )

    if name == "infinity-extended-h0":
        slices = h0_slices(X, arr, m, cap)[1]
        return chain.from_iterable(part.class_rows() for part in slices)
    if name == "root":
        series = i_root_nonextended(X, arr, job.require_roots(), cap)
    elif name == "infinity":
        series = i_infinity_nonextended(X, arr, cap)
    elif name == "relative":
        series = i_relative_smooth(X, arr, cap)
    elif name == "local":
        series = i_local(X, arr, cap)
    else:
        raise ConfigError(f"unknown series {name!r}")
    return series.class_rows()


def cmd_ifunction(job: JobConfig, args) -> tuple[int, Iterable[str]]:
    name = args.series or ("root" if job.roots is not None else "infinity")
    classes = _series_classes(job, name)
    if args.format == "records":
        return 0, series_records(classes)
    return 0, series_table(classes, job.target.ring, name)


def cmd_invariants(job: JobConfig, args) -> tuple[int, Iterable[str]]:
    from .invariants import invariant_rows

    X = job.target
    records = args.format == "records"
    classes = invariant_rows(
        X, job.arrangement, job.contact_bound(), job.cap, lambda q: fmt_rat(q, records)
    )
    if records:
        return 0, invariant_records(classes)
    header = "# extracted one-point invariants"
    return 0, chain((header,), invariant_table(classes, X.ring))


def _roots_from_args(job: JobConfig, args) -> list[RootData]:
    if args.roots:
        return [parse_roots(spec, job.arrangement) for spec in args.roots]
    return [job.require_roots()]


def cmd_stabilize(job: JobConfig, args) -> tuple[int, list[str]]:
    from .invariants import stabilization_check

    roots_list = _roots_from_args(job, args)
    report = stabilization_check(job.target, job.arrangement, roots_list, job.cap)
    lines = []
    for case in report.cases:
        if args.format == "records":
            lines.append(
                "\t".join(
                    (
                        "stabilize",
                        fmt_ints(case.roots),
                        fmt_ints(case.beta),
                        "ok" if case.ok else "mismatch",
                    )
                )
            )
        else:
            state = "ok" if case.ok else f"MISMATCH at {case.first_mismatch()}"
            lines.append(
                f"roots ({fmt_ints(case.roots)})  beta ({fmt_ints(case.beta)}): {state}"
            )
    return (0 if report.ok else 1), lines


def cmd_check_identity(job: JobConfig, args) -> tuple[int, list[str]]:
    from .identities import RefusedIdentityError, check_identities
    from .targets import enumerate_curve_classes

    X, arr, cap = job.target, job.arrangement, job.cap
    reports = []
    skipped = []
    for beta in enumerate_curve_classes(X, cap):
        degs = arr.degrees(beta)
        if not all(d > 0 for d in degs):
            if any(beta):
                skipped.append((beta, "some divisor misses the class"))
            continue
        try:
            reports.extend(check_identities(X, arr, beta))
        except RefusedIdentityError as err:
            skipped.append((beta, str(err)))
    lines = []
    ok = True
    for report in reports:
        ok = ok and report.ok
        if args.format == "records":
            lines.append(
                "\t".join(
                    (
                        "identity",
                        report.name,
                        fmt_ints(report.beta),
                        f"{report.sign:+d}",
                        "ok" if report.ok else "mismatch",
                    )
                )
            )
        else:
            state = "ok" if report.ok else f"MISMATCH at {report.first_mismatch()}"
            lines.append(
                f"{report.name}  beta ({fmt_ints(report.beta)})  "
                f"sign {report.sign:+d}: {state}"
            )
    for beta, reason in skipped:
        if args.format == "records":
            lines.append("\t".join(("skipped", fmt_ints(beta), reason)))
        else:
            lines.append(f"skipped beta ({fmt_ints(beta)}): {reason}")
    return (0 if ok else 1), lines


def _period_lines(seq, args) -> list[str]:
    lines = []
    for m, c in enumerate(seq.coeffs):
        if args.format == "records":
            lines.append("\t".join(("period", seq.kind, str(m), fmt_rat(c, True))))
        else:
            lines.append(f"{seq.kind}[{m}] = {fmt_rat(c, False)}")
    return lines


def cmd_period(job: JobConfig, args) -> tuple[int, list[str]]:
    from .periods import classical_period_orbifold, quantum_period, regularize

    quantum = quantum_period(job.target, job.cap)
    lines = _period_lines(quantum, args)
    lines += _period_lines(regularize(quantum), args)
    classical = classical_period_orbifold(job.target, job.arrangement, job.cap)
    lines += _period_lines(classical.sequence, args)
    if args.format == "records":
        for beta, degs, count in classical.contributions:
            lines.append(
                "\t".join(
                    (
                        "count",
                        fmt_ints(beta),
                        fmt_ints(degs),
                        fmt_rat(count, records=True),
                    )
                )
            )
    return 0, lines


def cmd_compare_periods(job: JobConfig, args) -> tuple[int, list[str]]:
    from .periods import compare_periods

    outcome = compare_periods(job.target, job.arrangement, job.cap)
    lines = []
    for m in range(outcome.regularized.cap + 1):
        a = outcome.regularized[m]
        b = outcome.classical[m]
        state = "ok" if a == b else "MISMATCH"
        if args.format == "records":
            lines.append(
                "\t".join(
                    ("compare", str(m), fmt_rat(a, True), fmt_rat(b, True), state)
                )
            )
        else:
            lines.append(
                f"degree {m}: regularized {fmt_rat(a, False)}  "
                f"classical {fmt_rat(b, False)}  {state}"
            )
    return (0 if outcome.ok else 1), lines


def cmd_laurent_period(args) -> tuple[int, list[str]]:
    from .laurent import LaurentPolynomial, laurent_classical_period

    for flag in ("config", "roots", "series"):
        if getattr(args, flag) is not None:
            raise ConfigError(f"laurent-period reads no job; drop --{flag}")
    if not args.laurent:
        raise ConfigError("laurent-period needs --laurent EXPR")
    if args.cap is None:
        raise ConfigError("laurent-period needs --cap N")
    f = LaurentPolynomial.parse(args.laurent)
    seq = laurent_classical_period(f, check_cap(args.cap))
    return 0, _period_lines(seq, args)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootstack-gw",
        description="Exact genus-zero invariants of multi-root stacks: "
        "series construction, stabilization, identity checks, periods.",
    )
    parser.add_argument("--config", help="path to the JSON job description")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--cap", type=int, help="override the degree cap")
    parser.add_argument(
        "--roots",
        action="append",
        help='root orders "r1,r2,..."; repeat the flag to stabilize over several',
    )
    parser.add_argument("--format", choices=("table", "records"), default="table")
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument(
        "--series",
        choices=SERIES_CHOICES,
        help="which family the ifunction command prints",
    )
    parser.add_argument("--laurent", help="inline Laurent polynomial, e.g. 'x+y+1/(x*y)'")
    return parser


def _load_job(args) -> JobConfig:
    if not args.config:
        raise ConfigError("missing --config PATH")
    if not Path(args.config).is_file():
        raise ConfigError(f"config: no such file {args.config!r}")
    job = parse_config(args.config)
    if args.cap is not None:
        job = job._replace(cap=check_cap(args.cap))
    if args.roots and args.command != "stabilize":
        if len(args.roots) > 1:
            raise ConfigError("roots: only stabilize takes more than one --roots")
        job = job._replace(roots=parse_roots(args.roots[0], job.arrangement))
    return job


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "laurent-period":
            status, lines = cmd_laurent_period(args)
        else:
            job = _load_job(args)
            handler = {
                "ifunction": cmd_ifunction,
                "invariants": cmd_invariants,
                "stabilize": cmd_stabilize,
                "check-identity": cmd_check_identity,
                "period": cmd_period,
                "compare-periods": cmd_compare_periods,
            }[args.command]
            status, lines = handler(job, args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return getattr(err, "exit_status", 1)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as out:
                write_lines(out, lines)
        except OSError as err:
            reason = err.strerror or err
            print(f"error: cannot write {args.out!r}: {reason}", file=sys.stderr)
            return 1
    else:
        write_lines(sys.stdout, lines)
    return status


def write_lines(stream, lines: Iterable[str]) -> None:
    """Write each line with its newline, :data:`WRITE_BATCH` lines per
    ``write``, so no report is ever held whole; an empty report is one
    newline."""
    lines = iter(lines)
    batch = list(islice(lines, WRITE_BATCH))
    if not batch:
        stream.write("\n")
    while batch:
        stream.write("\n".join(batch) + "\n")
        batch = list(islice(lines, WRITE_BATCH))


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
