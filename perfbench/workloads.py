"""Fixed CLI jobs of the three benchmark workloads and their correctness checks.

A job is one ``rootstack-gw`` invocation with ``--format records``.  The
workload seed sets the job order and draws the root vectors of the
``stabilize`` jobs; everything else is fixed.  The records output of every
job whose arguments do not depend on the seed is pinned by a SHA-256
reference in ``references.json``.  Independent checks recompute a few known
values from first principles instead of trusting the calculator.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Job files, one JSON document each, in the CLI's own schema.
PLANE = {"factors": [2]}
QUADRIC = {"factors": [1, 1]}
LINE_CONIC = [{"name": "L", "coeffs": [1]}, {"name": "C", "coeffs": [2]}]
DIAGONALS = [{"name": "L1", "coeffs": [1, 1]}, {"name": "L2", "coeffs": [1, 1]}]
CONFIGS = {
    "readme": {"target": PLANE, "divisors": LINE_CONIC, "roots": [7, 11], "cap": 9, "m": 6},
    "readme_m3": {"target": PLANE, "divisors": LINE_CONIC, "roots": [7, 11], "cap": 9, "m": 3},
    "readme_m2": {"target": PLANE, "divisors": LINE_CONIC, "roots": [7, 11], "cap": 9, "m": 2},
    "plane": {"target": PLANE, "divisors": LINE_CONIC, "cap": 9},
    "conic": {"target": PLANE, "divisors": [{"name": "C", "coeffs": [2]}], "cap": 18},
    "quadric": {"target": QUADRIC, "divisors": DIAGONALS, "cap": 8},
}

LAURENT_PLANE = "x+y+1/(x*y)"
LAURENT_QUADRIC = "x+1/x+y+1/y"

# Stabilize root orders are drawn from the primes below this limit.
PRIME_LIMIT = 100


@dataclass(frozen=True)
class Job:
    name: str
    config: str | None
    args: tuple[str, ...]
    cap: int | None = None

    @property
    def is_stabilize(self) -> bool:
        return self.args[1] == "stabilize"

    def cli_args(self, config_dir: Path) -> list[str]:
        out = []
        if self.config is not None:
            out += ["--config", str(config_dir / f"{self.config}.json")]
        out += list(self.args)
        if self.cap is not None:
            out += ["--cap", str(self.cap)]
        return out + ["--format", "records"]


def _ifunction(name, config, series, cap):
    return Job(name, config, ("--command", "ifunction", "--series", series), cap)


def _command(name, config, command, cap=None):
    return Job(name, config, ("--command", command), cap)


def _laurent(name, expr, cap):
    return Job(name, None, ("--command", "laurent-period", "--laurent", expr), cap)


WORKLOADS: dict[str, tuple[Job, ...]] = {
    "extended": (
        _command("invariants-readme", "readme", "invariants"),
        _command("invariants-quadric-c8", "quadric", "invariants"),
        _ifunction("infext-readme-c2", "readme", "infinity-extended", 2),
        _ifunction("infext-m3-c5", "readme_m3", "infinity-extended", 5),
        _ifunction("rootext-m2-c4", "readme_m2", "root-extended", 4),
    ),
    "periods": (
        _command("compare-plane-c9", "plane", "compare-periods", 9),
        _command("compare-plane-c15", "plane", "compare-periods", 15),
        _command("compare-plane-c21", "plane", "compare-periods", 21),
        _command("compare-plane-c24", "plane", "compare-periods", 24),
        _command("compare-quadric-c12", "quadric", "compare-periods", 12),
        _command("compare-quadric-c16", "quadric", "compare-periods", 16),
        _command("period-plane-c21", "plane", "period", 21),
        _command("period-quadric-c12", "quadric", "period", 12),
        _laurent("laurent-plane-c40", LAURENT_PLANE, 40),
        _laurent("laurent-quadric-c16", LAURENT_QUADRIC, 16),
    ),
    "verify": (
        _command("identity-quadric-c10", "quadric", "check-identity", 10),
        _command("identity-plane-c15", "plane", "check-identity", 15),
        _command("identity-conic-c18", "conic", "check-identity", 18),
        _command("stabilize-plane-c21", "plane", "stabilize", 21),
        _command("stabilize-quadric-c12", "quadric", "stabilize", 12),
    ),
}

# Each Laurent job must reproduce the regularized column of this job.
LAURENT_MATCH = {
    "laurent-plane-c40": "compare-plane-c24",
    "laurent-quadric-c16": "compare-quadric-c16",
}

STABILIZE_VECTORS = 3


def write_configs(config_dir: Path) -> None:
    config_dir.mkdir(parents=True, exist_ok=True)
    for name, doc in CONFIGS.items():
        (config_dir / f"{name}.json").write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _classes(config: dict, cap: int) -> list[tuple[int, ...]]:
    """Effective curve classes of anticanonical degree at most ``cap``."""
    weights = [n + 1 for n in config["target"]["factors"]]
    ranges = [range(cap // w + 1) for w in weights]
    return [
        beta
        for beta in itertools.product(*ranges)
        if sum(w * b for w, b in zip(weights, beta)) <= cap
    ]


def _degrees(config: dict, beta: tuple[int, ...]) -> list[int]:
    return [sum(c * b for c, b in zip(d["coeffs"], beta)) for d in config["divisors"]]


def _primes_between(low: int, high: int) -> list[int]:
    return [p for p in range(low + 1, high) if all(p % q for q in range(2, int(p**0.5) + 1))]


def seeded_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's jobs in seeded order, stabilize root vectors drawn.

    Each root vector holds distinct primes, so it is pairwise coprime, and
    every prime lies above the largest intersection number in the cap.
    """
    rng = random.Random(seed)
    jobs = []
    for job in WORKLOADS[workload]:
        if job.is_stabilize:
            config = CONFIGS[job.config]
            top = max(max(_degrees(config, b)) for b in _classes(config, job.cap))
            primes = _primes_between(top, PRIME_LIMIT)
            extra = []
            for _ in range(STABILIZE_VECTORS):
                vector = rng.sample(primes, len(config["divisors"]))
                extra += ["--roots", ",".join(map(str, vector))]
            job = Job(job.name, job.config, job.args + tuple(extra), job.cap)
        jobs.append(job)
    rng.shuffle(jobs)
    return jobs


def load_references() -> dict[str, str]:
    return json.loads((HERE / "references.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Independent checks.  Each returns a list of problems; empty means passed.
# ---------------------------------------------------------------------------


def _rows(text: str) -> list[list[str]]:
    return [line.split("\t") for line in text.splitlines()]


def _check_no_mismatch(rows) -> list[str]:
    return [
        "mismatch line: " + "\t".join(row)
        for row in rows
        if "mismatch" in row or "MISMATCH" in row
    ]


def _invariant_value(rows, beta: str, xexp: str, insertion: str) -> Fraction | None:
    for row in rows:
        if row[:6] == ["invariant", beta, xexp, insertion, "0", "0,0"]:
            return Fraction(row[6])
    return None


def _check_readme_invariants(rows) -> list[str]:
    """Maximal tangency to a line and a conic through a point: (2d)!/(d!)^2."""
    problems = []
    for d, want in ((1, 2), (2, 6), (3, 20)):
        got = _invariant_value(rows, str(d), f"1:{d}^1,2:{2 * d}^1", "2")
        if got != want:
            problems.append(f"maximal tangency at d={d}: got {got}, want {want}")
    return problems


def _check_quadric_invariants(rows) -> list[str]:
    """Two diagonals on the quadric: (d1+d2)!^2 / ((d1!)^2 (d2!)^2)."""
    problems = []
    for beta in _classes(CONFIGS["quadric"], CONFIGS["quadric"]["cap"]):
        e = sum(beta)
        if e == 0:
            continue
        d1, d2 = beta
        want = Fraction(factorial(e) ** 2, factorial(d1) ** 2 * factorial(d2) ** 2)
        got = _invariant_value(rows, f"{d1},{d2}", f"1:{e}^1,2:{e}^1", "1,1")
        if got != want:
            problems.append(f"maximal tangency at beta={beta}: got {got}, want {want}")
    return problems


def _check_stabilize(job: Job, rows) -> list[str]:
    """One ``ok`` row per (root vector, class), with the supplied vectors."""
    vectors = [job.args[i + 1] for i, a in enumerate(job.args) if a == "--roots"]
    classes = _classes(CONFIGS[job.config], job.cap)
    want = {(v, ",".join(map(str, b))) for v in vectors for b in classes}
    got = {(row[1], row[2]) for row in rows if row[0] == "stabilize" and row[3] == "ok"}
    if got != want or len(rows) != len(want):
        return [f"stabilize rows {len(rows)} do not cover {len(want)} (vector, class) pairs"]
    return []


def _laurent_column(rows) -> list[Fraction]:
    return [Fraction(row[3]) for row in rows if row[:2] == ["period", "laurent"]]


def _regularized_column(rows) -> list[Fraction]:
    return [Fraction(row[2]) for row in rows if row[0] == "compare"]


def check_job(job: Job, text: str) -> list[str]:
    """Checks that need only this job's own output."""
    rows = _rows(text)
    try:
        problems = _check_no_mismatch(rows)
        if job.name == "invariants-readme":
            problems += _check_readme_invariants(rows)
        elif job.name == "invariants-quadric-c8":
            problems += _check_quadric_invariants(rows)
        elif job.is_stabilize:
            problems += _check_stabilize(job, rows)
    except (IndexError, ValueError, ZeroDivisionError) as err:
        problems = [f"malformed records: {err!r}"]
    return problems


def check_laurent(outputs: dict[str, str]) -> dict[str, list[str]]:
    """Each Laurent sequence against the regularized column it must equal."""
    problems = {}
    for laurent, compare in LAURENT_MATCH.items():
        if laurent not in outputs or compare not in outputs:
            continue
        try:
            seq = _laurent_column(_rows(outputs[laurent]))
            column = _regularized_column(_rows(outputs[compare]))
        except (IndexError, ValueError, ZeroDivisionError) as err:
            problems[laurent] = [f"malformed records: {err!r}"]
            continue
        n = min(len(seq), len(column))
        if n == 0 or seq[:n] != column[:n]:
            problems[laurent] = [f"Laurent sequence differs from {compare} regularized column"]
    return problems
