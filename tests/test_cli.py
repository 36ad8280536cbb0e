from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import print_classes, untwisted_extended
from rootstack_gw import extended, identities, ifunctions, invariants, periods
from rootstack_gw.algebra import GradedSeries
from rootstack_gw.cli import WRITE_BATCH, run, write_lines
from rootstack_gw.report import series_records, series_table
from rootstack_gw.config import ConfigError, JobConfig, config_from_dict, parse_config
from rootstack_gw.targets import check_coprime

SRC = Path(__file__).resolve().parent.parent / "src"

PLANE_JOB = {
    "target": {"factors": [2]},
    "divisors": [
        {"name": "L", "coeffs": [1]},
        {"name": "C", "coeffs": [2]},
    ],
    "cap": 9,
}

FIBRE_JOB = {
    "target": {"factors": [1, 1]},
    "divisors": [{"name": "F", "coeffs": [0, 1]}],
    "cap": 4,
}

CUBIC_JOB = {
    "target": {"factors": [2]},
    "divisors": [{"name": "E", "coeffs": [3]}],
    "cap": 6,
}


@pytest.fixture
def plane_config(tmp_path):
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(PLANE_JOB), encoding="utf-8")
    return str(path)


def write_job(tmp_path, doc) -> str:
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def cubic_config(tmp_path):
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(CUBIC_JOB), encoding="utf-8")
    return str(path)


class TestConfig:
    def test_happy_path(self):
        job = config_from_dict(PLANE_JOB)
        assert job.target.factors == (2,)
        assert [d.name for d in job.arrangement.divisors] == ["L", "C"]
        assert job.roots is None and job.cap == 9

    def test_inline_text(self):
        job = parse_config(json.dumps(PLANE_JOB))
        assert job.cap == 9

    def test_non_coprime_roots_rejected(self):
        doc = dict(PLANE_JOB, roots=[2, 4])
        with pytest.raises(ConfigError, match="pairwise coprime"):
            config_from_dict(doc)

    def test_non_nef_rejected(self):
        doc = json.loads(json.dumps(PLANE_JOB))
        doc["divisors"][0]["coeffs"] = [-1]
        with pytest.raises(ConfigError, match=r"divisors\[0\].coeffs.*not nef"):
            config_from_dict(doc)

    def test_cap_bounds(self):
        with pytest.raises(ConfigError, match="cap"):
            config_from_dict(dict(PLANE_JOB, cap=65))
        with pytest.raises(ConfigError, match="cap"):
            config_from_dict(dict(PLANE_JOB, cap=0))

    def test_m_bounds(self):
        assert config_from_dict(dict(PLANE_JOB, m=64)).m == 64
        for m in (0, 65, 5000):
            with pytest.raises(ConfigError, match=r"^m: m must lie in 1\.\.64$"):
                config_from_dict(dict(PLANE_JOB, m=m))

    @pytest.mark.parametrize("m", [65, 5000])
    def test_large_m_refused_before_any_build(self, tmp_path, capsys, monkeypatch, m):
        def unreachable(*args):
            raise AssertionError("contact monomials enumerated")

        monkeypatch.setattr(extended, "_contact_vectors", unreachable)
        config = write_job(tmp_path, dict(PLANE_JOB, cap=1, m=m))
        assert run(["--config", config, "--command", "invariants"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: m: m must lie in 1..64\n"
        assert captured.out == ""

    def test_malformed_json_names_location(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("{not json")

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError, match="unknown fields"):
            config_from_dict(dict(PLANE_JOB, extra=1))


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**20), 10**20)
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10,
)


@st.composite
def config_docs(draw):
    """A job document near the schema: a well-formed one with a few of its
    fields replaced by junk, removed, or pushed out of range (caps and m
    outside 1..64, empty or non-coprime roots, coefficient lists of the
    wrong length), or an unknown field added."""
    rank = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    coeffs = st.lists(st.integers(0, 3), min_size=rank, max_size=rank)
    doc = {
        "target": {"factors": draw(st.lists(st.integers(1, 3), min_size=rank, max_size=rank))},
        "divisors": [
            {"name": f"D{i}", "coeffs": draw(coeffs.filter(any))} for i in range(n)
        ],
        "cap": draw(st.integers(1, 64)),
    }
    if draw(st.booleans()):
        doc["roots"] = draw(st.sampled_from([[2, 3, 5], [7, 11, 13], [5, 7, 9]]))[:n]
    if draw(st.booleans()):
        doc["m"] = draw(st.integers(1, 64))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["junk", "drop", "range", "roots", "coeffs", "extra"]))
        if kind == "junk":
            path = draw(st.sampled_from(["target", "factors", "divisors", "divisor", "name", "roots", "cap", "m"]))
            value = draw(json_values)
            if path == "factors":
                doc["target"] = {"factors": value}
            elif path == "divisor":
                # an earlier mutation may have left junk such as a bool here
                rest = doc.get("divisors")
                doc["divisors"] = [value] + (rest[1:] if isinstance(rest, list) else [])
            elif path == "name":
                doc["divisors"] = [{"name": value, "coeffs": [1] * rank}]
            else:
                doc[path] = value
        elif kind == "drop":
            doc.pop(draw(st.sampled_from(["target", "divisors", "cap", "roots", "m"])), None)
        elif kind == "range":
            field = draw(st.sampled_from(["cap", "m"]))
            doc[field] = draw(st.sampled_from([-1, 0, 65, 10**30, True, 1.0]))
        elif kind == "roots":
            doc["roots"] = draw(st.sampled_from([[], [0] * n, [4, 6, 8][:n], [1] * (n + 1), [-3] * n]))
        elif kind == "coeffs":
            doc["divisors"] = [
                {"name": f"D{i}", "coeffs": draw(st.lists(st.integers(-1, 3), max_size=4))}
                for i in range(n)
            ]
        else:
            doc[draw(st.text(max_size=5))] = draw(json_values)
    return doc


def assert_valid_job(job: JobConfig) -> None:
    rank = job.target.rank
    assert all(n >= 1 for n in job.target.factors)
    assert 1 <= job.cap <= 64 and (job.m is None or 1 <= job.m <= 64)
    for divisor in job.arrangement.divisors:
        assert len(divisor.coeffs) == rank and any(divisor.coeffs)
        assert all(c >= 0 for c in divisor.coeffs)
    if job.roots is not None:
        assert len(job.roots.orders) == job.arrangement.n
        assert all(r >= 1 for r in job.roots.orders) and check_coprime(job.roots.orders)


class TestConfigFuzz:
    @settings(max_examples=600, deadline=None)
    @given(st.one_of(config_docs(), json_values))
    def test_documents_give_a_job_or_config_error(self, doc):
        outcomes = []
        for parse in (lambda: config_from_dict(doc), lambda: parse_config(json.dumps(doc))):
            try:
                job = parse()
            except ConfigError as err:
                outcomes.append(str(err))
            else:
                assert_valid_job(job)
                outcomes.append(job)
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=400))
    def test_any_text_gives_a_job_or_config_error(self, text):
        try:
            assert_valid_job(parse_config(text))
        except ConfigError:
            pass

    @pytest.mark.parametrize(
        "text", ["[" * 100_000, "a\x00b", json.dumps(dict(PLANE_JOB, cap=1 + 10**300))]
    )
    def test_hostile_text_is_a_config_error(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)


class TestCommands:
    def test_compare_periods_exit_zero(self, plane_config, capsys):
        assert run(["--config", plane_config, "--command", "compare-periods"]) == 0
        out = capsys.readouterr().out
        assert "degree 9: regularized 1680  classical 1680  ok" in out

    def test_check_identity_exit_zero(self, plane_config, capsys):
        assert run(["--config", plane_config, "--command", "check-identity"]) == 0
        out = capsys.readouterr().out
        assert "sign -1: ok" in out and "sign +1: ok" in out

    def test_stabilize(self, plane_config, capsys):
        status = run(
            [
                "--config",
                plane_config,
                "--command",
                "stabilize",
                "--roots",
                "7,11",
                "--roots",
                "11,13",
                "--format",
                "records",
            ]
        )
        assert status == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert all(row.split("\t")[-1] == "ok" for row in rows)
        assert len(rows) == 8

    def test_nontrivial_mirror_map_is_status_two(self, cubic_config, capsys):
        status = run(["--config", cubic_config, "--command", "invariants"])
        assert status == 2
        err = capsys.readouterr().err
        assert "mirror map nontrivial" in err and "Birkhoff" in err

    @pytest.mark.parametrize("command", ["period", "compare-periods"])
    def test_period_refusal_is_status_two(self, cubic_config, capsys, command):
        # the cubic fails the two-positive-pairings condition (PeriodError)
        assert run(["--config", cubic_config, "--command", command]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: two-positive-pairings condition fails")
        assert "mirror map is not trivial" in captured.err and captured.out == ""

    def test_laurent_period_without_config(self, capsys):
        status = run(
            [
                "--command",
                "laurent-period",
                "--laurent",
                "x+y+1/(x*y)",
                "--cap",
                "9",
                "--format",
                "records",
            ]
        )
        assert status == 0
        rows = capsys.readouterr().out.strip().splitlines()
        values = [row.split("\t")[3] for row in rows]
        assert values == [
            "1/1", "0/1", "0/1", "6/1", "0/1", "0/1", "90/1", "0/1", "0/1", "1680/1",
        ]

    def test_ifunction_table(self, plane_config, capsys):
        status = run(
            [
                "--config",
                plane_config,
                "--command",
                "ifunction",
                "--series",
                "infinity",
                "--cap",
                "3",
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "# series infinity" in out
        assert "z^1" in out

    def test_root_extended_series(self, tmp_path, capsys):
        doc = dict(PLANE_JOB, roots=[7, 11], cap=3, m=2)
        path = tmp_path / "rooted.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        status = run(
            [
                "--config",
                str(path),
                "--command",
                "ifunction",
                "--series",
                "root-extended",
                "--format",
                "records",
            ]
        )
        assert status == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows and all(row.startswith("term\t") for row in rows)

    def test_period_records_include_counts(self, plane_config, capsys):
        status = run(
            ["--config", plane_config, "--command", "period", "--format", "records"]
        )
        assert status == 0
        rows = capsys.readouterr().out.strip().splitlines()
        counts = [r for r in rows if r.startswith("count\t")]
        assert "count\t1\t1,2\t2/1" in counts
        assert "count\t2\t2,4\t6/1" in counts

    def test_out_file(self, plane_config, tmp_path):
        target = tmp_path / "report.txt"
        status = run(
            [
                "--config",
                plane_config,
                "--command",
                "compare-periods",
                "--out",
                str(target),
            ]
        )
        assert status == 0
        assert "ok" in target.read_text(encoding="utf-8")

    def test_missing_config_is_usage_error(self, capsys):
        assert run(["--command", "period"]) == 1
        assert "config" in capsys.readouterr().err

    def test_missing_config_file_named(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert run(["--config", missing, "--command", "period"]) == 1
        assert f"config: no such file {missing!r}" in capsys.readouterr().err

    def test_unwritable_out_is_clean_error(self, plane_config, tmp_path, capsys):
        target = tmp_path / "absent" / "report.txt"
        args = ["--command", "period", "--cap", "3", "--out", str(target)]
        assert run(["--config", plane_config, *args]) == 1
        captured = capsys.readouterr()
        assert f"error: cannot write {str(target)!r}" in captured.err
        assert captured.out == "" and not target.exists()

    def test_repeated_roots_refused_outside_stabilize(self, tmp_path, capsys):
        config = write_job(tmp_path, dict(PLANE_JOB, roots=[11, 13]))
        args = ["--command", "ifunction", "--series", "root", "--cap", "3"]
        repeated = ["--roots", "2,4", "--roots", "11,13"]
        assert run(["--config", config, *args, *repeated]) == 1
        err = capsys.readouterr().err
        assert "roots: only stabilize takes more than one --roots" in err

    def test_single_roots_override_applies(self, tmp_path, capsys):
        args = ["--command", "ifunction", "--series", "root", "--cap", "3"]
        args += ["--format", "records"]
        outputs = []
        for roots, spec in (([7, 11], None), ([11, 13], "7,11")):
            config = write_job(tmp_path, dict(PLANE_JOB, roots=roots))
            extra = ["--roots", spec] if spec else []
            assert run(["--config", config, *args, *extra]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and "\t6,9\t" in outputs[0]

    def test_stabilize_takes_several_roots(self, plane_config, capsys):
        args = ["--command", "stabilize", "--cap", "3", "--format", "records"]
        args += ["--roots", "7,11", "--roots", "11,13"]
        assert run(["--config", plane_config, *args]) == 0
        rows = capsys.readouterr().out.splitlines()
        vectors = {row.split("\t")[1] for row in rows}
        assert vectors == {"7,11", "11,13"}

    @pytest.mark.parametrize(
        "roots, message",
        [("2,4", "roots: roots must be pairwise coprime"), ("7", "roots: one root")],
    )
    def test_roots_override_validated(self, plane_config, capsys, roots, message):
        args = ["--command", "period", "--roots", roots]
        assert run(["--config", plane_config, *args]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["0", "65"])
    def test_cap_override_validated(self, plane_config, capsys, cap):
        assert run(["--config", plane_config, "--command", "period", "--cap", cap]) == 1
        assert "cap: cap must lie in 1..64" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["-1", "65"])
    def test_laurent_cap_validated(self, capsys, cap):
        args = ["--command", "laurent-period", "--laurent", "x+1/x", "--cap", cap]
        assert run(args) == 1
        assert "cap: cap must lie in 1..64" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ifunction", "stabilize"])
    def test_roots_spec_must_be_integers(self, plane_config, capsys, command):
        args = ["--command", command, "--roots", "7,x", "--cap", "3"]
        assert run(["--config", plane_config, *args]) == 1
        err = capsys.readouterr().err
        assert "roots: expected integers" in err and "'7,x'" in err

    def test_stabilize_roots_go_through_config_checks(self, plane_config, capsys):
        args = ["--command", "stabilize", "--roots", "7,11", "--roots", "2,4"]
        assert run(["--config", plane_config, *args]) == 1
        assert "roots: roots must be pairwise coprime" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--config", "/nonexistent"), ("--roots", "2,4"), ("--series", "root")],
    )
    def test_laurent_refuses_job_flags(self, capsys, flag, value):
        args = ["--command", "laurent-period", "--laurent", "x+1/x", "--cap", "2"]
        assert run([*args, flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: laurent-period reads no job; drop {flag}\n"
        assert captured.out == ""

    def test_malformed_laurent_exits_one(self, capsys):
        args = ["--command", "laurent-period", "--laurent", "2x+1/x", "--cap", "2"]
        assert run(args) == 1
        assert "cannot parse Laurent polynomial '2x+1/x'" in capsys.readouterr().err

    def test_unbuildable_extended_series_refused_with_estimate(
        self, tmp_path, capsys, monkeypatch
    ):
        # the README job at cap 9: degree zero alone keeps C(24,12) terms
        def unreachable(*args):
            raise AssertionError("contact monomials enumerated")

        monkeypatch.setattr(extended, "_contact_vectors", unreachable)
        config = write_job(tmp_path, dict(PLANE_JOB, roots=[7, 11], m=6))
        for series, estimate in (
            ("infinity-extended", "10,816,624"),
            ("root-extended", "2,019,185,735"),
        ):
            args = ["--command", "ifunction", "--series", series, "--format", "records"]
            assert run(["--config", config, *args]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: the extended series would form up to {estimate} contact "
                "combinations, over the limit of 2,000,000; lower the cap or m\n"
            )

    def test_fold_warning_is_written_as_its_message(self, tmp_path):
        # on the command line the frame a builder warning names is always
        # the package's own, so only the message is written; the test
        # configuration ignores the warning, so the command runs in its own
        # interpreter, as it does for a user
        doc = {"target": {"factors": [2]}, "divisors": [{"name": "C", "coeffs": [2]}]}
        config = write_job(tmp_path, dict(doc, roots=[5], cap=18))
        argv = ["-m", "rootstack_gw.cli", "--config", config, "--command", "ifunction"]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("PYTHONWARNINGS", None)
        shown, quiet = (
            subprocess.run(
                [sys.executable, *flags, *argv, "--series", "root"],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            for flags in ((), ("-W", "ignore"))
        )
        fold = "tangency shift 10 folds into the untwisted sector at root order 5"
        assert shown.stderr.splitlines() == [f"warning: {fold}"]
        assert "report.py" not in shown.stderr and quiet.stderr == ""
        assert shown.stdout == quiet.stdout and "# series root" in shown.stdout


def cli_process(argv, env=(), stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """``python -m rootstack_gw.cli`` in its own interpreter, as a user runs
    it, its stdout block-buffered as when redirected; stdout and stderr are
    bytes."""
    environ = dict(os.environ, PYTHONPATH=str(SRC))
    environ.pop("PYTHONUNBUFFERED", None)
    environ.update(env)
    return subprocess.run(
        [sys.executable, "-m", "rootstack_gw.cli", *argv],
        env=environ,
        stdout=stdout,
        stderr=subprocess.PIPE,
        timeout=120,
    )


class TestProcess:
    """Each job ends through ``main``, which flushes and skips interpreter
    teardown: the process writes what :func:`run` writes and exits with the
    status it returns."""

    def test_ok_job_writes_what_run_writes(self, plane_config, tmp_path, capsys):
        argv = ["--config", plane_config, "--command", "compare-periods"]
        assert run(argv) == 0
        expected = capsys.readouterr().out.encode()
        job = cli_process(argv)
        assert (job.returncode, job.stdout, job.stderr) == (0, expected, b"")
        target = tmp_path / "report.txt"
        sunk = cli_process([*argv, "--out", str(target)])
        assert (sunk.returncode, sunk.stdout, sunk.stderr) == (0, b"", b"")
        assert target.read_bytes() == expected

    def test_refusal_is_status_two(self, cubic_config, capsys):
        argv = ["--config", cubic_config, "--command", "invariants", "--cap", "4"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: mirror map nontrivial: ")
        job = cli_process(argv)
        assert (job.returncode, job.stdout, job.stderr.decode()) == (2, b"", err)

    def test_error_statuses(self, tmp_path):
        absent = str(tmp_path / "absent.json")
        missing = cli_process(["--config", absent, "--command", "invariants"])
        assert (missing.returncode, missing.stdout) == (1, b"")
        assert missing.stderr.decode().startswith("error: config: no such file ")
        usage = cli_process(["--command", "nope"])
        assert (usage.returncode, usage.stdout) == (2, b"")
        assert usage.stderr.decode().startswith("usage: rootstack-gw ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["final-flush", "write"])
    def test_failed_write_is_never_status_zero(self, unbuffered):
        # block-buffered, the short report fails in main's flush; unbuffered,
        # in write_lines
        argv = ["--command", "laurent-period", "--laurent", "x+1/x", "--cap", "2"]
        env = {"PYTHONUNBUFFERED": "1"} if unbuffered else {}
        with open("/dev/full", "w") as full:
            job = cli_process(argv, env=env, stdout=full)
        assert job.returncode != 0
        assert "OSError: [Errno 28] No space left on device" in job.stderr.decode()


class TestMismatchLines:
    """One failing report in each check command, made by spoiling one report
    of the library call: its record ends in ``mismatch`` (``MISMATCH`` for
    ``compare``), its table line names the first differing key, and the
    command exits 1 in both formats."""

    def run_both(self, plane_config, capsys, command, *extra):
        lines = {}
        for fmt in ("records", "table"):
            argv = ["--config", plane_config, "--command", command, "--cap", "3"]
            assert run([*argv, "--format", fmt, *extra]) == 1
            captured = capsys.readouterr()
            assert captured.err == ""
            lines[fmt] = captured.out.splitlines()
        return lines["records"], lines["table"]

    @staticmethod
    def spoiled_at(lines, failing):
        # the one line that reports a failure
        (index,) = [i for i, line in enumerate(lines) if failing(line)]
        return index

    def test_stabilize(self, plane_config, capsys, monkeypatch):
        original = invariants.stabilization_check
        keys = []

        def spoil(*args):
            report = original(*args)
            case = report.cases[-1]
            assert case.ok and case.limit.terms
            keys.append(min(case.limit.terms))
            bad = case._replace(ok=False, limit=case.limit.scale(2))
            return report._replace(cases=(*report.cases[:-1], bad))

        monkeypatch.setattr(invariants, "stabilization_check", spoil)
        records, table = self.run_both(plane_config, capsys, "stabilize", "--roots", "7,11")
        assert records[-1] == "stabilize\t7,11\t1\tmismatch"
        assert self.spoiled_at(records, lambda r: not r.endswith("\tok")) == len(records) - 1
        assert table[-1] == f"roots (7,11)  beta (1): MISMATCH at {keys[0]}"
        assert self.spoiled_at(table, lambda r: not r.endswith(": ok")) == len(table) - 1
        assert keys[0] == keys[1]

    def test_check_identity(self, plane_config, capsys, monkeypatch):
        original = identities.check_identities
        spoiled = []

        def spoil(X, arrangement, beta):
            first, second = original(X, arrangement, beta)
            if beta != (1,):
                return first, second
            assert first.ok and first.right.terms
            spoiled.append((first, min(first.right.terms)))
            return first._replace(right=first.right.scale(2)), second

        monkeypatch.setattr(identities, "check_identities", spoil)
        records, table = self.run_both(plane_config, capsys, "check-identity")
        (report, key), again = spoiled
        assert again == (report, key)
        sign = f"{report.sign:+d}"
        at = self.spoiled_at(records, lambda r: r.endswith("\tmismatch"))
        assert records[at] == f"identity\t{report.name}\t1\t{sign}\tmismatch"
        assert self.spoiled_at(table, lambda r: "MISMATCH" in r) == at
        assert table[at] == f"{report.name}  beta (1)  sign {sign}: MISMATCH at {key}"
        others = records[:at] + records[at + 1 :]
        assert all(r.endswith("\tok") for r in others if r.startswith("identity"))

    def test_compare_periods(self, plane_config, capsys, monkeypatch):
        original = periods.compare_periods

        def spoil(*args):
            outcome = original(*args)
            coeffs = list(outcome.classical.coeffs)
            coeffs[2] += 1
            classical = outcome.classical._replace(coeffs=tuple(coeffs))
            return outcome._replace(classical=classical)

        monkeypatch.setattr(periods, "compare_periods", spoil)
        records, table = self.run_both(plane_config, capsys, "compare-periods")
        assert records[2] == "compare\t2\t0/1\t1/1\tMISMATCH"
        assert self.spoiled_at(records, lambda r: r.endswith("\tMISMATCH")) == 2
        assert table[2] == "degree 2: regularized 0  classical 1  MISMATCH"
        assert self.spoiled_at(table, lambda r: r.endswith("MISMATCH")) == 2


class TestRecords:
    def test_fibre_identity_records(self, tmp_path, capsys):
        # beta (1,1) meets the fibre once and beta (0,2) twice; each extended
        # check reads the body of its own class only
        config = write_job(tmp_path, FIBRE_JOB)
        args = ["--command", "check-identity", "--format", "records"]
        assert run(["--config", config, *args]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "identity\tlocal-relative\t0,1\t+1\tok",
            "identity\tlocal-tangency-extended\t0,1\t+1\tok",
            "identity\tlocal-relative\t0,2\t-1\tok",
            "identity\tlocal-tangency-extended\t0,2\t-1\tok",
            "identity\tlocal-relative\t1,1\t+1\tok",
            "identity\tlocal-tangency-extended\t1,1\t+1\tok",
            "skipped\t1,0\tsome divisor misses the class",
            "skipped\t2,0\tsome divisor misses the class",
        ]

    def test_invariants_with_overlapping_blocks(self, tmp_path, capsys):
        # beta (1,0) and (2,0) meet no divisor, so their tangency block is
        # their contact block's empty tiling and is read once
        config = write_job(tmp_path, FIBRE_JOB)
        args = ["--command", "invariants", "--format", "records"]
        assert run(["--config", config, *args]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "invariant\t0,1\t-\t1,0\t0\t-1\t1/1",
            "invariant\t0,1\t1:1^1\t1,1\t0\t0\t1/1",
            "invariant\t0,1\t1:1^1\t1,0\t1\t0\t-1/1",
            "invariant\t0,2\t-\t1,0\t1\t-2\t1/4",
            "invariant\t0,2\t1:1^2\t1,1\t2\t0\t1/2",
            "invariant\t0,2\t1:1^2\t1,0\t3\t0\t-3/4",
            "invariant\t0,2\t1:2^1\t1,1\t1\t0\t1/2",
            "invariant\t0,2\t1:2^1\t1,0\t2\t0\t-3/4",
            "invariant\t1,0\t-\t1,1\t0\t0\t1/1",
            "invariant\t1,0\t-\t0,1\t1\t0\t-2/1",
            "invariant\t1,1\t-\t1,0\t2\t-1\t1/1",
            "invariant\t1,1\t-\t0,0\t3\t-1\t-2/1",
            "invariant\t1,1\t1:1^1\t1,1\t2\t0\t1/1",
            "invariant\t1,1\t1:1^1\t0,1\t3\t0\t-2/1",
            "invariant\t1,1\t1:1^1\t1,0\t3\t0\t-1/1",
            "invariant\t1,1\t1:1^1\t0,0\t4\t0\t2/1",
            "invariant\t2,0\t-\t1,1\t2\t0\t1/4",
            "invariant\t2,0\t-\t0,1\t3\t0\t-3/4",
            "flagged\t0,1\t-2\t-\t-1\t0,1\t0",
            "flagged\t0,2\t-3\t-\t-2\t0,1\t0",
            "flagged\t1,1\t-5\t-\t-1\t1,1\t0",
            "flagged\t1,1\t-4\t-\t-1\t0,1\t0",
        ]

    def test_round_trip_and_determinism(self, plane_config, capsys):
        args = [
            "--config",
            plane_config,
            "--command",
            "invariants",
            "--cap",
            "6",
            "--format",
            "records",
        ]
        assert run(args) == 0
        first = capsys.readouterr().out
        assert run(args) == 0
        second = capsys.readouterr().out
        assert first == second
        parsed = []
        for row in first.strip().splitlines():
            fields = row.split("\t")
            if fields[0] != "invariant":
                continue
            num, den = fields[-1].split("/")
            parsed.append((tuple(fields[1:-1]), F(int(num), int(den))))
        assert parsed
        # every value is exact and the maximal-tangency count shows up
        flat = dict(parsed)
        assert flat[("1", "1:1^1,2:2^1", "2", "0", "0,0")] == 2

    def test_series_records_round_trip(self, plane_config, capsys):
        args = [
            "--config",
            plane_config,
            "--command",
            "ifunction",
            "--series",
            "local",
            "--cap",
            "3",
            "--format",
            "records",
        ]
        assert run(args) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        seen = {}
        for row in rows:
            kind, beta, zpow, xexp, sector, mono, lam, value = row.split("\t")
            assert kind == "term"
            num, den = value.split("/")
            seen[(beta, int(zpow), xexp, sector, mono, lam)] = F(int(num), int(den))
        # the bare degree-one part of the local series: -2 P^2 z^-1
        assert seen[("1", -1, "-", "0,0", "2", "0,0")] == -2


DIAGONALS_JOB = {
    "target": {"factors": [1, 1]},
    "divisors": [
        {"name": "L1", "coeffs": [1, 1]},
        {"name": "L2", "coeffs": [1, 1]},
    ],
    "cap": 12,
}

FOUR_FIBRES_JOB = {
    "target": {"factors": [1, 1]},
    "divisors": [
        {"name": "F1", "coeffs": [1, 0]},
        {"name": "F2", "coeffs": [0, 1]},
        {"name": "F3", "coeffs": [1, 0]},
        {"name": "F4", "coeffs": [0, 1]},
    ],
    "cap": 8,
}

# The whole-series builder of each closed-form family.
CLOSED_FORM_BUILDERS = {
    "root": "i_root_nonextended",
    "infinity": "i_infinity_nonextended",
    "relative": "i_relative_smooth",
    "local": "i_local",
}


class _CountingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


class TestWriter:
    @pytest.mark.parametrize(
        "doc, argv, status, message",
        [
            # line + conic: classes 0 and 1 fit m = 3, class 2 does not
            (
                dict(PLANE_JOB, roots=[7, 11], m=3),
                ["--command", "invariants"],
                1,
                "error: contact bound m=3 misses tangency 4 needed at beta=(2,)\n",
            ),
            (
                dict(PLANE_JOB, roots=[7, 11], m=3),
                ["--command", "ifunction", "--series", "infinity-extended-h0"],
                1,
                "error: contact bound m=3 misses tangency 4 needed at beta=(2,)\n",
            ),
            (CUBIC_JOB, ["--command", "invariants"], 2, "error: mirror map nontrivial: "),
            (
                dict(PLANE_JOB, m=6),
                ["--command", "ifunction", "--series", "infinity-extended"],
                1,
                "error: the extended series would form up to 10,816,624 contact ",
            ),
            (
                dict(PLANE_JOB, roots=[7, 11], m=6),
                ["--command", "ifunction", "--series", "root-extended"],
                1,
                "error: the extended series would form up to 2,019,185,735 contact ",
            ),
            (
                dict(PLANE_JOB, roots=[7, 11], cap=2, m=7),
                ["--command", "ifunction", "--series", "root-extended"],
                1,
                "error: contact orders up to m must stay below every root order\n",
            ),
            (
                DIAGONALS_JOB,
                ["--command", "ifunction", "--series", "relative"],
                1,
                "error: relative series needs exactly one divisor\n",
            ),
            (
                DIAGONALS_JOB,
                ["--command", "ifunction", "--series", "root"],
                1,
                'error: this command needs root orders; set "roots"\n',
            ),
        ],
        ids=[
            "m-miss",
            "h0-m-miss",
            "mirror-map",
            "budget",
            "budget-finite",
            "m-at-root-order",
            "relative-two-divisors",
            "root-without-roots",
        ],
    )
    def test_refusal_writes_nothing(self, tmp_path, capsys, doc, argv, status, message):
        config = write_job(tmp_path, doc)
        target = tmp_path / "report.txt"
        for sink in ([], ["--out", str(target)]):
            assert run(["--config", config, *argv, "--format", "records", *sink]) == status
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith(message)
            assert not target.exists()

    @pytest.mark.parametrize(
        "doc, series",
        [
            (dict(PLANE_JOB, cap=3, m=3), "infinity-extended"),
            (dict(PLANE_JOB, roots=[7, 11], cap=3, m=2), "root-extended"),
        ],
        ids=["infinity-extended", "root-extended"],
    )
    @pytest.mark.parametrize("fmt", ["records", "table"])
    def test_extended_series_streams_without_a_series(
        self, tmp_path, capsys, monkeypatch, doc, series, fmt
    ):
        # the command writes the builder's rows class by class: it calls no
        # whole-series builder and makes no GradedSeries at all
        config = write_job(tmp_path, doc)
        args = ["--config", config, "--command", "ifunction", "--series", series]
        args += ["--format", fmt]
        assert run(args) == 0
        want = capsys.readouterr().out

        def unbuilt(*args, **kwargs):
            raise AssertionError("a whole series was built")

        for name in ("i_root_extended", "i_infinity_extended"):
            monkeypatch.setattr(ifunctions, name, unbuilt)
        monkeypatch.setattr(ifunctions, "_rows_series", unbuilt)
        monkeypatch.setattr(GradedSeries, "__init__", unbuilt)
        monkeypatch.setattr(GradedSeries, "_trusted", classmethod(unbuilt))
        assert run(args) == 0
        got = capsys.readouterr().out
        assert got == want and got.count("\n") > 100
        if fmt == "table":
            # the count closes the table
            terms = got.count("\n") - 1
            assert got.endswith(f"\n# series {series}: {terms} terms\n")

    @pytest.mark.parametrize(
        "doc, series",
        [
            (dict(PLANE_JOB, cap=4, m=4), "infinity-extended"),
            (dict(PLANE_JOB, roots=[7, 11], cap=3, m=3), "root-extended"),
        ],
        ids=["infinity-extended", "root-extended"],
    )
    def test_table_count_is_the_records_count(self, tmp_path, capsys, doc, series):
        config = write_job(tmp_path, doc)
        args = ["--config", config, "--command", "ifunction", "--series", series]
        assert run([*args, "--format", "records"]) == 0
        count = capsys.readouterr().out.count("\n")
        assert run([*args, "--format", "table"]) == 0
        table = capsys.readouterr().out
        assert table.endswith(f"\n# series {series}: {count} terms\n") and count > 1000

    @pytest.mark.parametrize("fmt", ["records", "table"])
    def test_h0_series_streams_one_class_at_a_time(
        self, tmp_path, capsys, monkeypatch, fmt
    ):
        # the untwisted extended series is written one class at a time off
        # its class bodies, with no GradedSeries made, and from the floor -6
        # up its output is that of the untwisted terms of the extended series
        config = write_job(tmp_path, dict(DIAGONALS_JOB, cap=8))
        args = ["--config", config, "--command", "ifunction"]
        args += ["--series", "infinity-extended-h0", "--format", fmt]

        def unbuilt(*args, **kwargs):
            raise AssertionError("a series was built")

        monkeypatch.setattr(GradedSeries, "__init__", unbuilt)
        monkeypatch.setattr(GradedSeries, "_trusted", classmethod(unbuilt))
        assert run(args) == 0
        got = capsys.readouterr().out.splitlines()
        monkeypatch.undo()
        job = config_from_dict(dict(DIAGONALS_JOB, cap=8))
        X, m = job.target, job.contact_bound()
        whole = print_classes(untwisted_extended(X, job.arrangement, m, 8, -6))
        if fmt == "records":
            want = list(series_records(whole))
            zpow = [int(line.split("\t")[2]) for line in got]
        else:
            want = list(series_table(whole, X.ring, "infinity-extended-h0"))[:-1]
            assert got.pop() == "# series infinity-extended-h0: 623 terms"
            # a table line names z^k unless k is 0
            zpow = [next((int(b[2:]) for b in line.split() if b[:2] == "z^"), 0) for line in got]
        assert len(got) == 623 and len(want) == 550
        assert [line for line, k in zip(got, zpow) if k >= -6] == want

    @pytest.mark.parametrize(
        "doc, series",
        [
            (dict(DIAGONALS_JOB, roots=[7, 11]), "root"),
            (DIAGONALS_JOB, "infinity"),
            (dict(DIAGONALS_JOB, divisors=DIAGONALS_JOB["divisors"][:1]), "relative"),
            (FOUR_FIBRES_JOB, "local"),
        ],
        ids=["root", "infinity", "relative", "local"],
    )
    @pytest.mark.parametrize("fmt", ["records", "table"])
    def test_closed_form_series_stream_one_class_at_a_time(
        self, tmp_path, capsys, monkeypatch, doc, series, fmt
    ):
        # each class of a closed-form series is written off its own slice:
        # no whole series is built or summed, and the output is that of the
        # whole series the library builds
        config = write_job(tmp_path, doc)
        args = ["--config", config, "--command", "ifunction"]
        args += ["--series", series, "--format", fmt]

        def unbuilt(*args, **kwargs):
            raise AssertionError("a whole series was built")

        for name in (*CLOSED_FORM_BUILDERS.values(), "series_sum"):
            monkeypatch.setattr(ifunctions, name, unbuilt)
        assert run(args) == 0
        got = capsys.readouterr().out
        monkeypatch.undo()
        job = config_from_dict(doc)
        X = job.target
        roots = (job.require_roots(),) if series == "root" else ()
        build = getattr(ifunctions, CLOSED_FORM_BUILDERS[series])
        whole = print_classes(build(X, job.arrangement, *roots, job.cap))
        if fmt == "records":
            want = series_records(whole)
        else:
            want = series_table(whole, X.ring, series)
        assert got == "".join(line + "\n" for line in want)
        assert got.count("\n") > 90

    def test_empty_report_is_one_newline(self, tmp_path, capsys):
        # at cap 1 the fibre job's only class is 0, which check-identity skips
        config = write_job(tmp_path, dict(FIBRE_JOB, cap=1))
        target = tmp_path / "report.txt"
        args = ["--config", config, "--command", "check-identity"]
        assert run(args) == 0
        assert capsys.readouterr().out == "\n"
        assert run([*args, "--out", str(target)]) == 0
        assert target.read_bytes() == b"\n"

    @pytest.mark.parametrize(
        "count", [0, 1, WRITE_BATCH - 1, WRITE_BATCH, WRITE_BATCH + 1, 3 * WRITE_BATCH]
    )
    def test_batches(self, count):
        lines = [f"row {i}" for i in range(count)]
        stream = _CountingStream()
        write_lines(stream, iter(lines))
        assert stream.getvalue() == "\n".join(lines) + "\n"
        assert stream.writes == max(1, -(-count // WRITE_BATCH))

    @pytest.mark.parametrize(
        "doc, argv",
        [
            (
                dict(PLANE_JOB, cap=3, m=3),
                ["--command", "ifunction", "--series", "infinity-extended"],
            ),
            (DIAGONALS_JOB, ["--command", "invariants"]),
        ],
        ids=["infinity-extended", "invariants"],
    )
    @pytest.mark.parametrize("fmt", ["records", "table"])
    def test_out_file_equals_stdout(self, tmp_path, capsys, doc, argv, fmt):
        config = write_job(tmp_path, doc)
        target = tmp_path / "report.txt"
        args = ["--config", config, *argv, "--format", fmt]
        assert run(args) == 0
        out = capsys.readouterr().out
        assert out.count("\n") > 3 * WRITE_BATCH
        assert run([*args, "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == out.encode("utf-8")

    def test_peak_memory_follows_the_largest_class(self, tmp_path):
        # written whole, the report is held several times over (the table,
        # a sorted copy, the rows, the text and its encoding): over 8 times
        # its size on this job; written class by class, under 2
        config = write_job(tmp_path, dict(DIAGONALS_JOB, cap=14))
        target = tmp_path / "report.txt"
        args = ["--config", config, "--command", "invariants", "--format", "records"]
        # a first run loads the modules the command imports
        assert run([*args, "--cap", "2", "--out", str(target)]) == 0
        tracemalloc.start()
        try:
            assert run([*args, "--out", str(target)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = target.stat().st_size
        assert size > 500_000
        assert peak < 4 * size, (peak, size)
