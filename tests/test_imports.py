"""What the package imports, and its public names.

Each command of the command line imports only the modules it runs.  The
footprint is read in fresh interpreters, so the modules pytest and the other
tests have loaded do not count.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rootstack_gw
from rootstack_gw.cli import COMMANDS

SRC = Path(__file__).resolve().parent.parent / "src"

# The public names of the package, by the submodule that defines them.
EXPORTS = {
    "algebra": [
        "AmbientRing",
        "CohClass",
        "ContractError",
        "DivisibilityError",
        "GradedSeries",
        "NotInvertibleError",
        "SeriesContext",
        "TermKey",
        "exact_divide_linear",
        "invert_z_linear",
        "series_sum",
    ],
    "config": ["ConfigError", "JobConfig", "config_from_dict", "parse_config"],
    "identities": [
        "IdentityReport",
        "RefusedIdentityError",
        "check_identities",
        "divisor_derivative",
        "pushforward_iota",
    ],
    "ifunctions": [
        "ExtendedBudgetError",
        "ExtendedDataTooSmall",
        "SectorFoldWarning",
        "i_infinity_extended",
        "i_infinity_extended_h0",
        "i_infinity_nonextended",
        "i_local",
        "i_relative_smooth",
        "i_root_extended",
        "i_root_nonextended",
    ],
    "invariants": [
        "InvariantTable",
        "MirrorMapReport",
        "StabilizationReport",
        "TableEntry",
        "UnsupportedMirrorMapError",
        "extract_invariants",
        "mirror_map",
        "n_orb",
        "stabilization_check",
    ],
    "periods": [
        "LaurentPolynomial",
        "PeriodComparison",
        "PeriodError",
        "PeriodSequence",
        "classical_period_orbifold",
        "compare_periods",
        "laurent_classical_period",
        "quantum_period",
        "regularize",
    ],
    "targets": [
        "AssumptionReport",
        "ConfigurationError",
        "Divisor",
        "DivisorArrangement",
        "RootData",
        "TargetSpace",
        "base_j_function",
        "check_assumption",
        "check_coprime",
        "enumerate_curve_classes",
        "pairing",
    ],
}

CONIC_JOB = {
    "target": {"factors": [2]},
    "divisors": [{"name": "C", "coeffs": [2]}],
    "roots": [3],
    "cap": 3,
}

LINE_CONIC_JOB = {
    "target": {"factors": [2]},
    "divisors": [{"name": "L", "coeffs": [1]}, {"name": "C", "coeffs": [2]}],
    "roots": [7, 11],
    "cap": 3,
    "m": 3,
}


def fresh_modules(code: str, *args: str) -> set[str]:
    """Run ``code`` in a fresh interpreter; it binds ``before``, the modules
    loaded at start-up.  Returns the modules loaded since."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        + code
        + "\nimport json\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def package_modules(loaded: set[str]) -> set[str]:
    return {name for name in loaded if name.split(".")[0] == "rootstack_gw"}


def test_cli_import_loads_five_modules():
    loaded = fresh_modules("import rootstack_gw.cli")
    assert package_modules(loaded) == {
        "rootstack_gw",
        "rootstack_gw.cli",
        "rootstack_gw.config",
        "rootstack_gw.targets",
        "rootstack_gw.algebra",
    }


# (command, job, modules it never loads, a line of its report): only the
# commands that build an extended series load the extended builder
@pytest.mark.parametrize(
    "command, job, never, marker",
    [
        ("check-identity", CONIC_JOB, {"invariants", "periods", "extended"}, "ok"),
        ("stabilize", CONIC_JOB, {"identities", "periods", "extended"}, "ok"),
        ("period", LINE_CONIC_JOB, {"identities", "extended"}, "quantum[0] = 1"),
        ("compare-periods", LINE_CONIC_JOB, {"identities", "extended"}, "ok"),
    ],
)
def test_command_loads_only_what_it_runs(tmp_path, command, job, never, marker):
    config = tmp_path / "job.json"
    config.write_text(json.dumps(job), encoding="utf-8")
    code = (
        "from rootstack_gw.cli import run\n"
        "status = run(['--config', sys.argv[1], '--command', sys.argv[2], "
        "'--out', sys.argv[3]])\n"
        "assert status == 0, status\n"
    )
    loaded = fresh_modules(code, str(config), command, str(tmp_path / "out.txt"))
    ran = {name.split(".")[1] for name in package_modules(loaded) if "." in name}
    assert not ran & never
    assert marker in (tmp_path / "out.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("command", COMMANDS)
def test_no_command_loads_dataclasses_or_inspect(tmp_path, command):
    if command == "laurent-period":
        argv = ["--laurent", "x+1/x", "--cap", "4"]
    else:
        config = tmp_path / "line_conic.json"
        config.write_text(json.dumps(LINE_CONIC_JOB), encoding="utf-8")
        argv = ["--config", str(config)]
        if command == "ifunction":
            argv += ["--series", "root"]
    code = (
        "from rootstack_gw.cli import run\n"
        "status = run(sys.argv[1:])\n"
        "assert status == 0, status\n"
    )
    out = tmp_path / "out.txt"
    loaded = fresh_modules(code, "--command", command, *argv, "--out", str(out))
    assert out.read_text(encoding="utf-8")
    assert not loaded & {"dataclasses", "inspect"}


def test_package_never_imports_logging():
    loaded = fresh_modules("from rootstack_gw import *\nimport rootstack_gw.cli")
    assert package_modules(loaded) >= {f"rootstack_gw.{module}" for module in EXPORTS}
    assert "logging" not in loaded


def test_public_names_are_pinned():
    names = [*EXPORTS, *(name for names in EXPORTS.values() for name in names)]
    assert sorted(rootstack_gw.__all__) == sorted(names)
    assert set(rootstack_gw.__all__) <= set(dir(rootstack_gw))


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_public_names_are_their_submodule_attributes(module):
    source = getattr(rootstack_gw, module)
    assert source.__name__ == f"rootstack_gw.{module}"
    for name in EXPORTS[module]:
        assert getattr(rootstack_gw, name) is getattr(source, name), name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from rootstack_gw import *", namespace)
    for name in rootstack_gw.__all__:
        assert namespace[name] is getattr(rootstack_gw, name), name


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        rootstack_gw.no_such_name
