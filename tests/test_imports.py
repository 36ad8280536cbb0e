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
from rootstack_gw.cli import COMMANDS, SERIES_CHOICES

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
        "StabilizationReport",
        "TableEntry",
        "extract_invariants",
        "n_orb",
        "stabilization_check",
    ],
    "laurent": ["LaurentPolynomial", "PeriodSequence", "laurent_classical_period"],
    "mirror": ["MirrorMapReport", "UnsupportedMirrorMapError", "mirror_map"],
    "periods": [
        "PeriodComparison",
        "PeriodError",
        "classical_period_orbifold",
        "compare_periods",
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


def load_order(code: str, *args: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; it binds ``before``, the modules
    loaded at start-up.  Returns the modules loaded since, in the order of
    ``sys.modules``: a module takes its place there when it has run, after
    the modules it imports."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        + code
        + "\nloaded = [name for name in sys.modules if name not in before]\n"
        "import json\n"
        "print(json.dumps(loaded))\n"
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
    return json.loads(done.stdout.splitlines()[-1])


def fresh_modules(code: str, *args: str) -> set[str]:
    """The modules ``code`` loads in a fresh interpreter (see load_order)."""
    return set(load_order(code, *args))


def package_modules(loaded: set[str]) -> set[str]:
    return {name for name in loaded if name.split(".")[0] == "rootstack_gw"}


# ``import rootstack_gw.cli`` loads these, and every command loads them
BASE = {"cli", "config", "algebra", "series", "ring", "chain", "records"}


def test_cli_import_loads_no_domain_module():
    # ``targets`` waits until a job is read
    loaded = fresh_modules("import rootstack_gw.cli")
    assert package_modules(loaded) == {"rootstack_gw", *(f"rootstack_gw.{m}" for m in BASE)}


RUN_CODE = (
    "from rootstack_gw.cli import run\n"
    "status = run(sys.argv[1:])\n"
    "assert status == 0, status\n"
)


def command_argv(tmp_path, command: str, job: dict | None, *extra: str) -> list[str]:
    """The arguments of one job writing its table to ``tmp_path / out.txt``;
    with no job, the Laurent period of x + 1/x."""
    if job is None:
        argv = ["--laurent", "x+1/x", "--cap", "4"]
    else:
        config = tmp_path / "job.json"
        config.write_text(json.dumps(job), encoding="utf-8")
        argv = ["--config", str(config)]
    return ["--command", command, *argv, *extra, "--out", str(tmp_path / "out.txt")]


# (command, job, extra arguments, the package modules it loads beside BASE,
# modules it never loads, a line of its report): only the commands that
# build an extended series load the extended builder, only the local series
# loads its closed form, the period commands read their numbers and their
# certificate off the dense class chains, without the invariant tables or
# any series builder, and only the two reports written class by class load
# their renderers.  No command loads the sparse reference routines.  The
# Laurent period reads no job: no domain objects and no JSON.
NO_JOB = {"targets", "periods", "mirror", "invariants", "ifunctions", "identities", "extended"}


@pytest.mark.parametrize(
    "command, job, extra, loads, never, marker",
    [
        (
            "ifunction",
            LINE_CONIC_JOB,
            ("--series", "local"),
            {"targets", "ifunctions", "local", "report"},
            {"invariants", "mirror", "extended", "h0", "reference"},
            "# series local: 14 terms",
        ),
        (
            "ifunction",
            LINE_CONIC_JOB,
            ("--series", "root"),
            {"targets", "ifunctions", "report"},
            {"local", "invariants", "mirror", "extended", "h0", "reference"},
            "# series root: 3 terms",
        ),
        (
            "ifunction",
            LINE_CONIC_JOB,
            ("--series", "infinity-extended-h0"),
            {"targets", "ifunctions", "h0", "report"},
            {"invariants", "mirror", "extended", "reference"},
            "# series infinity-extended-h0: 7 terms",
        ),
        (
            "invariants",
            LINE_CONIC_JOB,
            (),
            {"targets", "ifunctions", "h0", "extended", "mirror", "invariants", "report"},
            {"identities", "periods", "reference"},
            "# extracted one-point invariants",
        ),
        (
            "check-identity",
            CONIC_JOB,
            (),
            {"targets", "ifunctions", "identities"},
            {"h0", "invariants", "periods", "extended", "reference", "report"},
            "ok",
        ),
        (
            "stabilize",
            CONIC_JOB,
            (),
            {"targets", "ifunctions", "h0", "mirror", "invariants"},
            {"identities", "periods", "extended", "reference", "report"},
            "ok",
        ),
        (
            "period",
            LINE_CONIC_JOB,
            (),
            {"targets", "mirror", "laurent", "periods"},
            {"ifunctions", "h0", "identities", "invariants", "extended", "reference", "report"},
            "quantum[0] = 1",
        ),
        (
            "compare-periods",
            LINE_CONIC_JOB,
            (),
            {"targets", "mirror", "laurent", "periods"},
            {"ifunctions", "h0", "identities", "invariants", "extended", "reference", "report"},
            "ok",
        ),
        (
            "laurent-period",
            None,
            (),
            {"laurent"},
            NO_JOB | {"h0", "reference", "report", "json"},
            "laurent[4] = 6",
        ),
    ],
)
def test_command_loads_only_what_it_runs(tmp_path, command, job, extra, loads, never, marker):
    loaded = fresh_modules(RUN_CODE, *command_argv(tmp_path, command, job, *extra))
    ran = {name.split(".")[1] for name in package_modules(loaded) if "." in name}
    assert ran == BASE | loads
    assert not (ran | loaded) & never
    assert marker in (tmp_path / "out.txt").read_text(encoding="utf-8")


# Every module a command loads is compiled in its child, and with no
# bytecode cache written (``PYTHONDONTWRITEBYTECODE=1``) from source.
MAX_MODULE_LINES = 470


@pytest.mark.parametrize(
    "command, extra",
    [("ifunction", ("--series", name)) for name in SERIES_CHOICES]
    + [(command, ()) for command in COMMANDS if command != "ifunction"],
)
def test_no_command_compiles_a_large_module(tmp_path, command, extra):
    """A module's compile raises a fresh interpreter's resident set by about
    2.5 KB per source line and never gives it back; every later, smaller
    compile and import reuses that memory.  So a child's peak resident set
    is set by its largest single compile, and no command may load a package
    module of more than :data:`MAX_MODULE_LINES` lines.  Only the local
    series compiles :mod:`rootstack_gw.local`."""
    if command == "laurent-period":
        job = None
    else:
        job = CONIC_JOB if extra[1:] == ("relative",) else LINE_CONIC_JOB
    loaded = fresh_modules(RUN_CODE, *command_argv(tmp_path, command, job, *extra))
    sizes = {}
    for name in package_modules(loaded):
        parts = name.split(".")[1:] or ["__init__"]
        source = SRC.joinpath("rootstack_gw", *parts).with_suffix(".py")
        sizes[name] = len(source.read_text(encoding="utf-8").splitlines())
    assert max(sizes.values()) <= MAX_MODULE_LINES, sizes
    assert ("rootstack_gw.local" in loaded) == (extra == ("--series", "local"))


def test_algebra_provides_the_reference_routines_on_lookup():
    # the sparse reference routines are compiled only when first looked up,
    # and algebra then holds the reference module's own objects
    code = (
        "from rootstack_gw import algebra\n"
        "assert 'rootstack_gw.reference' not in sys.modules\n"
        "from rootstack_gw import reference\n"
        "for name in ('DivisibilityError', 'exact_divide_linear', 'invert_z_linear'):\n"
        "    assert getattr(algebra, name) is getattr(reference, name), name\n"
    )
    assert "rootstack_gw.reference" in fresh_modules(code)
    with pytest.raises(AttributeError, match="no_such_name"):
        rootstack_gw.algebra.no_such_name


def test_ifunctions_defines_the_h0_builder():
    # the untwisted extended limit's entry point is an ordinary function of
    # ifunctions, beside the other builders; h0 holds only its rows
    from rootstack_gw import h0, ifunctions

    assert ifunctions.i_infinity_extended_h0.__module__ == "rootstack_gw.ifunctions"
    assert not hasattr(h0, "i_infinity_extended_h0")
    assert "__getattr__" not in vars(ifunctions)


@pytest.mark.parametrize(
    "code",
    [
        "import rootstack_gw\n"
        "X = rootstack_gw.TargetSpace((2,))\n"
        "D = rootstack_gw.Divisor\n"
        "line_conic = rootstack_gw.DivisorArrangement((D('L', (1,)), D('C', (2,))))\n"
        "series = rootstack_gw.i_infinity_extended_h0(X, line_conic, 2, 3)\n"
        "assert len(series.terms) == 7, len(series.terms)\n",
        "from rootstack_gw.mirror import UnsupportedMirrorMapError, contact_one_counts\n"
        "from rootstack_gw.targets import Divisor as D, DivisorArrangement, TargetSpace\n"
        "squares = DivisorArrangement((D('A', (2, 0)), D('B', (0, 2))))\n"
        "try:\n"
        "    contact_one_counts(TargetSpace((1, 1)), squares, 4)\n"
        "except UnsupportedMirrorMapError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('the mirror map was not refused')\n",
    ],
    ids=["h0-series", "mirror-refusal"],
)
def test_h0_rows_fold_without_the_extended_builder(code):
    # the untwisted extended limit and a refused mirror map both fold the
    # h0 rows with ifunctions._rows_series, so neither loads extended
    loaded = fresh_modules(code)
    assert {"rootstack_gw.h0", "rootstack_gw.ifunctions"} <= loaded
    assert "rootstack_gw.extended" not in loaded


@pytest.mark.parametrize(
    "name, loads",
    [
        # the certificate's names come from mirror, which the period
        # pipeline loads without the invariant tables or any series builder
        ("mirror_map", {"mirror", "targets", "algebra", "series", "ring", "chain", "records"}),
        ("laurent_classical_period", {"laurent", "records"}),
    ],
)
def test_public_name_loads_only_its_source(name, loads):
    loaded = fresh_modules(f"import rootstack_gw\nrootstack_gw.{name}")
    assert package_modules(loaded) == {"rootstack_gw", *(f"rootstack_gw.{m}" for m in loads)}


def test_invariants_provides_the_mirror_map_names():
    from rootstack_gw import invariants, mirror

    for name in EXPORTS["mirror"]:
        assert getattr(invariants, name) is getattr(mirror, name), name


@pytest.mark.parametrize("command", [None, "compare-periods"])
def test_algebra_is_compiled_before_json_and_argparse(tmp_path, command):
    # a module takes its place in sys.modules when it has run, so algebra
    # coming first means it was compiled before either was imported
    if command is None:
        order = load_order("import rootstack_gw.cli")
        assert "json" not in order
    else:
        order = load_order(RUN_CODE, *command_argv(tmp_path, command, LINE_CONIC_JOB))
        assert "json" in order
    first = order.index("rootstack_gw.algebra")
    assert all(order.index(name) > first for name in ("json", "argparse") if name in order)
    assert "argparse" in order


@pytest.mark.parametrize("command", COMMANDS)
def test_no_command_loads_dataclasses_or_inspect(tmp_path, command):
    job = None if command == "laurent-period" else LINE_CONIC_JOB
    argv = command_argv(tmp_path, command, job)
    if command == "ifunction":
        argv += ["--series", "root"]
    loaded = fresh_modules(RUN_CODE, *argv)
    assert (tmp_path / "out.txt").read_text(encoding="utf-8")
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


def test_readme_library_example_prints_what_it_says(tmp_path):
    # the python block under "## Library", run as written in a fresh
    # interpreter, prints the values its comments give
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert done.stdout.splitlines() == ["2", "True"]
