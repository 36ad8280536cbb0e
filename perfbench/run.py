"""Benchmark of the rootstack-gw command line on fixed jobs.

Usage, from the repository root::

    python3 perfbench/run.py --workload extended --seed 1 --seconds 20 --trace 0

The load is a closed loop with one client: each job is one fresh
``python -m rootstack_gw.cli ... --format records`` child, started only after
the previous one has been reaped, so every job pays the interpreter start,
the package import and cold caches as a real invocation does.  A pass runs
the workload's whole job list; after two passes (one with ``--trace 1``),
passes repeat while one more would end within ``--seconds``.

The speed of a shared host's CPUs changes by up to half within seconds and
over minutes.  So the benchmark pins itself and every child to one CPU, and
``probe.py`` runs a fixed loop on that CPU at the lowest priority; every
child's wall time is rescaled by the probe's speed during that child to a
reference CPU speed (``probe.REFERENCE_CHUNK_S``).  Raw wall times are
printed beside the rescaled ones.

``--trace 0`` reports the end-to-end metrics: ``norm_wall_s`` (median
rescaled pass time), ``peak_rss_mb`` (median over passes of the largest
child ``ru_maxrss``; ``spawn.py`` starts the children so that this is the
child's own) and ``setup_s`` (median rescaled time for a fresh
interpreter to import the CLI and parse one job file).  ``--trace 1``
alternates untraced and traced passes; the traced children run
``trace_child.py``, and the per-layer metrics are medians over traced
passes of the per-pass totals, their times rescaled like the wall times.

Every job's output is checked: exit status, SHA-256 of the records output
against ``references.json`` (seed-independent jobs), independent checks in
``workloads.py`` and no mismatch row.  A job that fails any of them, or
times out, counts in ``failed``; so does a failed set-up sample.  One row
per job (median wall time, largest RSS, records, hash) and one row per pass
are printed, then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from probe import Probe
from spawn import Spawner
from workloads import (
    WORKLOADS,
    Job,
    check_job,
    check_laurent,
    load_references,
    seeded_jobs,
    write_configs,
)

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
TRACE_CHILD = Path(__file__).resolve().parent / "trace_child.py"

JOB_TIMEOUT_S = 60.0
# Hard limit for the whole run, so the benchmark itself never hangs.
RUN_BUDGET_S = 165.0
# Fewest passes in a run, untraced and traced: a median needs two samples.
MIN_PASSES = (2, 1)
SETUP_CODE = (
    "import sys\n"
    "import rootstack_gw.cli\n"
    "from rootstack_gw.config import parse_config\n"
    "parse_config(sys.argv[1])\n"
)
RATIOS = {
    "algebra.mul.yield": ("algebra.mul", "terms_out", "pairs"),
    "targets.base_j_function.repeat_ratio": ("targets.base_j_function", "repeats", "calls"),
}


@dataclass
class JobRun:
    job: Job
    wall_s: float
    scale: float  # wall time to reference time, from the probe
    rss_kb: int
    records: int = 0
    sha: str = "-"
    problems: list[str] = field(default_factory=list)
    summary: dict | None = None

    @property
    def norm_s(self) -> float:
        return self.wall_s * self.scale


@dataclass
class Child:
    status: int | None  # None when killed at the timeout
    wall_s: float
    scale: float
    rss_kb: int

    @property
    def norm_s(self) -> float:
        return self.wall_s * self.scale


class Runner:
    """Starts job children one at a time within the run's time budget."""

    def __init__(self, deadline: float, probe: Probe, spawner: Spawner):
        self.deadline = deadline
        self.probe = probe
        self.spawner = spawner

    def child(self, argv: list[str], stdout: Path, stderr: Path) -> Child:
        timeout = min(JOB_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            return Child(None, 0.0, 1.0, 0)
        before = self.probe.read()
        result = self.spawner.run(argv, stdout, stderr, timeout)
        scale = self.probe.scale(before, self.probe.read())
        return Child(result["status"], result["wall_s"], scale, result["rss_kb"])


def child_env() -> dict[str, str]:
    """The pinned environment of every child."""
    env = dict(os.environ)
    env.pop("ROOTSTACK_GW_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = "src"
    return env


def _stderr_tail(path: Path) -> str:
    lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else "no stderr"


def run_pass(
    runner: Runner,
    jobs: list[Job],
    references: dict,
    traced: bool,
    setup: list[float | None] | None = None,
) -> list[JobRun]:
    """Run every job once, in order, then check all outputs.

    With ``setup`` given, one set-up sample is taken before each job that
    reads a job file, so the samples are spread over the run like the job
    timings.
    """
    out_dir, conf_dir = WORK / "out", WORK / "configs"
    runs = []
    for job in jobs:
        if setup is not None and job.config is not None:
            setup.append(setup_time(runner, conf_dir / f"{job.config}.json"))
        stdout = out_dir / f"{job.name}.records"
        summary_path = out_dir / f"{job.name}.trace.json"
        cli_args = job.cli_args(conf_dir)
        if traced:
            argv = [sys.executable, str(TRACE_CHILD), str(summary_path), "--", *cli_args]
        else:
            argv = [sys.executable, "-m", "rootstack_gw.cli", *cli_args]
        child = runner.child(argv, stdout, out_dir / f"{job.name}.stderr")
        run = JobRun(job, child.wall_s, child.scale, child.rss_kb)
        if child.status is None:
            run.problems.append("timed out")
        elif child.status != 0:
            run.problems.append(f"exit {child.status}: {_stderr_tail(out_dir / f'{job.name}.stderr')}")
        elif traced:
            run.summary = json.loads(summary_path.read_text(encoding="utf-8"))
        runs.append(run)

    outputs = {}
    for run in runs:
        if run.problems:
            continue
        data = (out_dir / f"{run.job.name}.records").read_bytes()
        text = data.decode("utf-8", errors="replace")
        outputs[run.job.name] = text
        run.records = len(text.splitlines())
        run.sha = hashlib.sha256(data).hexdigest()
        if not run.job.is_stabilize and run.sha != references.get(run.job.name):
            run.problems.append("records hash differs from its reference")
        run.problems += check_job(run.job, text)
    for name, problems in check_laurent(outputs).items():
        next(r for r in runs if r.job.name == name).problems += problems
    return runs


def setup_time(runner: Runner, config: Path) -> float | None:
    """Rescaled time for a fresh interpreter to import the CLI and parse ``config``."""
    argv = [sys.executable, "-c", SETUP_CODE, str(config)]
    child = runner.child(argv, WORK / "setup.out", WORK / "setup.err")
    return child.norm_s if child.status == 0 else None


def layer_metrics(runs: list[JobRun]) -> dict[str, float]:
    """Per-layer totals over one traced pass, with derived ratios.

    Times are rescaled by each job's probe factor, like the wall times.
    """
    totals: dict[str, float] = {}
    extra = {"extended_terms_out": 0, "extended_terms_in": 0, "compute_s": 0.0}
    for run in runs:
        if run.summary is None:
            continue
        for label, row in run.summary["layers"].items():
            for key, value in row.items():
                name = f"{label}.{key}"
                totals[name] = totals.get(name, 0) + (run.scale * value if key == "s" else value)
        for key in extra:
            extra[key] += run.summary[key] * (run.scale if key == "compute_s" else 1)
    for name, (label, num, den) in RATIOS.items():
        totals[name] = _ratio(totals.get(f"{label}.{num}", 0), totals.get(f"{label}.{den}", 0))
    totals["ifunctions.extended.kept_ratio"] = _ratio(
        extra["extended_terms_out"], extra["extended_terms_in"]
    )
    totals["cli.records_out"] = sum(run.records for run in runs)
    totals["trace.compute_s"] = extra["compute_s"]
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_time_problems(run: JobRun) -> list[str]:
    """Per-layer self times must add up to the traced compute time."""
    s = run.summary
    if s is None or abs(s["self_sum_s"] - s["compute_s"]) <= 1e-9 * max(1.0, s["compute_s"]):
        return []
    return [f"self times sum to {s['self_sum_s']} s, compute time is {s['compute_s']} s"]


def environment(nproc: int, measured_cpu: int) -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return (
        f"env\tpython={platform.python_version()}\tnproc={nproc}\tcpu={cpu}"
        f"\tmeasured_cpu={measured_cpu}"
    )


def job_rows(passes: list[list[JobRun]]) -> list[str]:
    """One row per job: median raw and rescaled wall time, largest RSS, records, hash."""
    rows = []
    for runs in zip(*passes):
        last = runs[-1]
        rows.append(
            "\t".join(
                (
                    "job",
                    last.job.name,
                    f"wall_s={statistics.median(r.wall_s for r in runs):.4f}",
                    f"norm_wall_s={statistics.median(r.norm_s for r in runs):.4f}",
                    f"peak_rss_mb={max(r.rss_kb for r in runs) / 1024:.1f}",
                    f"records={last.records}",
                    f"sha256={last.sha}",
                    "ok" if not any(r.problems for r in runs) else
                    "FAILED: " + "; ".join(p for r in runs for p in r.problems),
                )
            )
        )
    return rows


def _pass_wall(runs: list[JobRun]) -> float:
    """Rescaled time of one pass."""
    return sum(run.norm_s for run in runs)


def end_to_end_metrics(plain: list[list[JobRun]], setup: list[float]) -> dict[str, dict]:
    rss = [max(run.rss_kb for run in runs) / 1024 for runs in plain]
    return {
        "norm_wall_s": {"value": statistics.median(map(_pass_wall, plain)), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        "setup_s": {"value": statistics.median(setup) if setup else 0.0, "unit": "s"},
    }


def traced_metrics(plain: list[list[JobRun]], traced: list[list[JobRun]]) -> dict[str, dict]:
    """Medians over traced passes of the per-layer totals, and the overhead.

    The overhead is rescaled traced minus rescaled untraced pass time.
    """
    per_pass = [layer_metrics(runs) for runs in traced]
    values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    values["trace.overhead_s"] = statistics.median(map(_pass_wall, traced)) - statistics.median(
        map(_pass_wall, plain)
    )
    return {name: {"value": value, "unit": _unit(name)} for name, value in sorted(values.items())}


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    return "ratio" if name.endswith(("_ratio", ".yield")) else "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rootstack_gw" / "cli.py").is_file():
        print(f"error: no rootstack_gw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # One measured CPU for the benchmark, its children and the speed probe.
    cpus = os.sched_getaffinity(0)
    print(environment(len(cpus), max(cpus)))
    os.sched_setaffinity(0, {max(cpus)})
    (WORK / "out").mkdir(parents=True, exist_ok=True)
    probe = Probe(WORK / "probe.bin")
    try:
        spawner = Spawner(ROOT, child_env())
        try:
            return measure(args, probe, spawner)
        finally:
            spawner.close()
    finally:
        probe.close()


def measure(args: argparse.Namespace, probe: Probe, spawner: Spawner) -> int:
    start = time.monotonic()
    runner = Runner(deadline=start + RUN_BUDGET_S, probe=probe, spawner=spawner)
    write_configs(WORK / "configs")
    references = load_references()
    jobs = seeded_jobs(args.workload, args.seed)
    print("order\t" + ",".join(job.name for job in jobs))

    # Untimed warm-up: compiles __pycache__ and warms the file cache.
    warm = runner.child(
        [sys.executable, "-c", "import rootstack_gw.cli"], WORK / "setup.out", WORK / "setup.err"
    )
    if warm.status != 0:
        print("error: rootstack_gw.cli does not import", file=sys.stderr)
        return 2

    attempted = failed = 0
    plain: list[list[JobRun]] = []
    traced: list[list[JobRun]] = []
    setup: list[float | None] = []
    t_measure = time.monotonic()
    while True:
        t_pass = time.monotonic()
        plain.append(
            run_pass(runner, jobs, references, traced=False, setup=None if args.trace else setup)
        )
        if args.trace:
            runs = run_pass(runner, jobs, references, traced=True)
            for run in runs:
                run.problems += self_time_problems(run)
            traced.append(runs)
        # After MIN_PASSES, stop before a further pass like the last one
        # would overrun --seconds.
        now = time.monotonic()
        overrun = 2 * now - t_pass - t_measure > args.seconds
        if (overrun and len(plain) >= MIN_PASSES[args.trace]) or now - start > RUN_BUDGET_S:
            break

    for runs in plain + traced:
        attempted += len(runs)
        failed += sum(1 for run in runs if run.problems)
    attempted += len(setup)
    failed += setup.count(None)
    setup_ok = [t for t in setup if t is not None]
    for row in job_rows(plain):
        print(row)
    for i, runs in enumerate(plain):
        print(
            f"pass\t{i}\tnorm_s={_pass_wall(runs):.4f}\t"
            + "\t".join(f"{r.job.name}={r.wall_s:.4f}x{r.scale:.4f}" for r in runs)
        )

    if args.trace:
        for row in job_rows(traced):
            print("traced " + row)
        metrics = traced_metrics(plain, traced)
        print(f"samples\ttraced_passes={len(traced)}\tuntraced_passes={len(plain)}")
    else:
        metrics = end_to_end_metrics(plain, setup_ok)
        raw = statistics.median(sum(run.wall_s for run in runs) for runs in plain)
        print(f"samples\tpasses={len(plain)}\tsetup_s={len(setup_ok)}\traw_wall_s={raw:.4f}")
    print(f"fail_ratio\t{failed / attempted}\t({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
