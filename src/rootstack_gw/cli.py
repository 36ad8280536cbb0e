"""Command-line entry point.

One job per invocation: parse a JSON config, run one command, emit a human
table or machine-readable records, exit 0 only if every requested check
passed bit-exactly.  Exit codes: 1 for configuration problems and failed
comparisons, 2 when a nontrivial mirror map blocks invariant extraction
(``UnsupportedMirrorMapError``) or the period pipeline (``PeriodError``, the
two-positive-pairings condition fails).  An error sets its own status in
``exit_status``; any other ``ValueError`` exits 1.  A usage error also exits
2, with argparse's usage message, so a status of 2 alone does not mean a
refusal.  :func:`main`, the entry of the console script and of ``python -m``,
flushes the output and ends the process without interpreter teardown, about
a tenth of a short job; code that embeds the package calls :func:`run`,
which returns the status.

``COMMANDS`` maps each command to its handler; the ``--command`` choices
and the dispatch of :func:`run` both read it.  A handler takes ``(job,
args)``, ``job`` None for ``laurent-period``, and returns ``(status,
lines)``; the checks and periods write each row through :func:`_lines`.

Each command imports the modules it runs when it runs, so a job loads and
compiles only those: ``laurent-period`` reads no job file and loads only
``config``, ``algebra`` (with ``series``, ``ring`` and ``chain``),
``records`` and ``laurent`` beside this module.  The report renderers live
in :mod:`rootstack_gw.report`, which only ``ifunction`` and ``invariants``
import.
"""

from __future__ import annotations

# ``algebra`` comes first, before any standard-library import and before
# ``config``.  When no bytecode cache is written, every job compiles its
# modules from source.  A compile raises a fresh interpreter's resident set
# by about 2.5 KB per source line, never given back, and the smaller
# compiles and imports after it reuse that memory; so a child's peak
# resident set is lowest when its largest compile runs on the smallest
# heap.  That is ``series``, which ``algebra`` imports first (455 lines,
# about 1.3 MB); loading ``config`` and ``json`` before it raises the peak
# of a ``period``, ``check-identity`` or ``stabilize`` job by about 0.2 MB.
from . import algebra
from .config import ConfigError, JobConfig, check_cap, parse_config, parse_roots
from .records import fmt_ints, fmt_rat

import argparse
import os
import sys
import warnings
from itertools import chain, islice
from pathlib import Path
from typing import Iterable

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


# ---------------------------------------------------------------------------
# Command handlers.  Each makes every check that can refuse, then returns
# (exit_status, lines); the lines never raise a ValueError.
# ---------------------------------------------------------------------------


def cmd_ifunction(job: JobConfig, args) -> tuple[int, Iterable[str]]:
    from .report import _series_classes, series_records, series_table

    name = args.series or ("root" if job.roots is not None else "infinity")
    classes = _series_classes(job, name)
    if args.format == "records":
        return 0, series_records(classes)
    return 0, series_table(classes, job.target.ring, name)


def cmd_invariants(job: JobConfig, args) -> tuple[int, Iterable[str]]:
    from .invariants import invariant_rows
    from .report import invariant_records, invariant_table

    X = job.target
    classes = invariant_rows(X, job.arrangement, job.contact_bound(), job.cap)
    if args.format == "records":
        return 0, invariant_records(classes)
    header = "# extracted one-point invariants"
    return 0, chain((header,), invariant_table(classes, X.ring))


def _lines(args, rows, record, table) -> list[str]:
    """Each row as the tab-joined fields ``record(*row)`` or as the text
    ``table(*row)``, as ``--format`` asks."""
    if args.format == "records":
        return ["\t".join(record(*row)) for row in rows]
    return [table(*row) for row in rows]


def _state(report, records: bool) -> str:
    """ok, else mismatch in a record and the first differing key in a table."""
    if report.ok:
        return "ok"
    return "mismatch" if records else f"MISMATCH at {report.first_mismatch()}"


def cmd_stabilize(job: JobConfig, args) -> tuple[int, list[str]]:
    from .invariants import stabilization_check

    if args.roots:
        roots_list = [parse_roots(spec, job.arrangement) for spec in args.roots]
    else:
        roots_list = [job.require_roots()]
    report = stabilization_check(job.target, job.arrangement, roots_list, job.cap)
    lines = _lines(
        args,
        ((fmt_ints(case.roots), fmt_ints(case.beta), case) for case in report.cases),
        lambda roots, beta, case: ("stabilize", roots, beta, _state(case, True)),
        lambda roots, beta, case: f"roots ({roots})  beta ({beta}): {_state(case, False)}",
    )
    return (0 if report.ok else 1), lines


def cmd_check_identity(job: JobConfig, args) -> tuple[int, list[str]]:
    from .identities import RefusedIdentityError, check_identities
    from .targets import enumerate_curve_classes

    X, arr, cap = job.target, job.arrangement, job.cap
    reports, skipped = [], []
    for beta in enumerate_curve_classes(X, cap):
        degs = arr.degrees(beta)
        if not all(d > 0 for d in degs):
            if any(beta):
                skipped.append((fmt_ints(beta), "some divisor misses the class"))
            continue
        try:
            reports.extend(check_identities(X, arr, beta))
        except RefusedIdentityError as err:
            skipped.append((fmt_ints(beta), str(err)))
    lines = _lines(
        args,
        ((r.name, fmt_ints(r.beta), f"{r.sign:+d}", r) for r in reports),
        lambda name, beta, sign, r: ("identity", name, beta, sign, _state(r, True)),
        lambda name, beta, sign, r: f"{name}  beta ({beta})  sign {sign}: {_state(r, False)}",
    )
    lines += _lines(
        args,
        skipped,
        lambda beta, reason: ("skipped", beta, reason),
        lambda beta, reason: f"skipped beta ({beta}): {reason}",
    )
    return (0 if all(r.ok for r in reports) else 1), lines


def _period_lines(seq, args) -> list[str]:
    return _lines(
        args,
        enumerate(seq.coeffs),
        lambda m, c: ("period", seq.kind, str(m), fmt_rat(c, True)),
        lambda m, c: f"{seq.kind}[{m}] = {fmt_rat(c, False)}",
    )


def cmd_period(job: JobConfig, args) -> tuple[int, list[str]]:
    from .periods import classical_period_orbifold, quantum_period, regularize

    quantum = quantum_period(job.target, job.cap)
    lines = _period_lines(quantum, args)
    lines += _period_lines(regularize(quantum), args)
    classical = classical_period_orbifold(job.target, job.arrangement, job.cap)
    lines += _period_lines(classical.sequence, args)
    if args.format == "records":
        lines += [
            "\t".join(("count", fmt_ints(beta), fmt_ints(degs), fmt_rat(count, True)))
            for beta, degs, count in classical.contributions
        ]
    return 0, lines


def cmd_compare_periods(job: JobConfig, args) -> tuple[int, list[str]]:
    from .periods import compare_periods

    outcome = compare_periods(job.target, job.arrangement, job.cap)
    pairs = zip(outcome.regularized.coeffs, outcome.classical.coeffs)
    lines = _lines(
        args,
        ((str(m), a, b, "ok" if a == b else "MISMATCH") for m, (a, b) in enumerate(pairs)),
        lambda m, a, b, state: ("compare", m, fmt_rat(a, True), fmt_rat(b, True), state),
        lambda m, a, b, state: (
            f"degree {m}: regularized {fmt_rat(a, False)}  "
            f"classical {fmt_rat(b, False)}  {state}"
        ),
    )
    return (0 if outcome.ok else 1), lines


def cmd_laurent_period(job: None, args) -> tuple[int, list[str]]:
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


COMMANDS = {
    "ifunction": cmd_ifunction,
    "invariants": cmd_invariants,
    "stabilize": cmd_stabilize,
    "check-identity": cmd_check_identity,
    "period": cmd_period,
    "compare-periods": cmd_compare_periods,
    "laurent-period": cmd_laurent_period,
}


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
    # a warning, raised while the lines are built or written, is written as
    # its message alone: the frame it names is always the package's own
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            job = None if args.command == "laurent-period" else _load_job(args)
            status, lines = COMMANDS[args.command](job, args)
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


def _show_warning(message, *args) -> None:
    print(f"warning: {message}", file=sys.stderr)


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
    """Run one job, flush its output and end the process at once.  Every
    file :func:`run` opened is closed; an exception from it, or from a
    flush, ends the process as usual."""
    status = run()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    main()
