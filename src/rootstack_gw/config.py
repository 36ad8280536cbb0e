"""Job configuration: JSON schema, validation, diagnostics.

Schema::

    {
      "target":   {"factors": [int, ...]},
      "divisors": [{"name": str, "coeffs": [int, ...]}, ...],
      "roots":    [int, ...],          # optional
      "cap":      int,
      "m":        int                  # optional contact-order bound, 1..64
    }

Every violation is reported with the offending field path.  This module
checks the JSON shapes only; the domain checks (positivity, nef divisors,
distinct names, admissible root orders) belong to ``targets``.

``json`` is imported by :func:`parse_config` and ``targets`` by the
functions that build its objects, so a command that reads no job, such as
``laurent-period``, loads neither.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from .records import Record

if TYPE_CHECKING:
    from .targets import DivisorArrangement, RootData, TargetSpace

MAX_CAP = 64


class ConfigError(ValueError):
    """Malformed or invalid job configuration."""


class JobConfig(Record):
    target: TargetSpace
    arrangement: DivisorArrangement
    roots: RootData | None
    cap: int
    m: int | None

    def require_roots(self) -> RootData:
        if self.roots is None:
            raise ConfigError("this command needs root orders; set \"roots\"")
        return self.roots

    def contact_bound(self) -> int:
        """The configured m, else the largest intersection number in the cap."""
        if self.m is not None:
            return self.m
        return max(1, *self.arrangement.max_degrees(self.target, self.cap))


def _expect(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{where}: {message}")


def _int_list(value, where: str) -> list[int]:
    _expect(isinstance(value, list) and value, where, "expected a nonempty list")
    for idx, item in enumerate(value):
        _expect(
            isinstance(item, int) and not isinstance(item, bool),
            f"{where}[{idx}]",
            "expected an integer",
        )
    return list(value)


def _domain(where: str, check, *args):
    """Run a constructor or check from ``targets``, naming the field on failure."""
    try:
        return check(*args)
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


def _bounded(value, name: str) -> int:
    """The field's value, if it is an integer in 1..MAX_CAP."""
    _expect(
        isinstance(value, int) and not isinstance(value, bool),
        name,
        "expected an integer",
    )
    _expect(1 <= value <= MAX_CAP, name, f"{name} must lie in 1..{MAX_CAP}")
    return value


def check_cap(cap) -> int:
    """The degree cap, if it is an integer in 1..MAX_CAP."""
    return _bounded(cap, "cap")


def roots_for(orders: tuple[int, ...], arrangement: DivisorArrangement) -> RootData:
    """Root data admissible for the arrangement, or a ConfigError on ``roots``."""
    from .targets import RootData

    roots = _domain("roots", RootData, orders)
    _domain("roots", roots.validate_for, arrangement)
    return roots


def parse_roots(spec: str, arrangement: DivisorArrangement) -> RootData:
    """Root data from an "r1,r2,..." command-line spec, checked by roots_for."""
    try:
        orders = tuple(int(tok) for tok in spec.split(","))
    except ValueError:
        raise ConfigError(f"roots: expected integers like 7,11, got {spec!r}") from None
    return roots_for(orders, arrangement)


def parse_config(source: str | Path) -> JobConfig:
    """Parse a JSON job description from a path or inline text.

    Text that cannot name a file (too long for a path, or holding a NUL
    byte) is read as inline JSON.
    """
    import json

    text = source
    path = Path(str(source))
    try:
        is_file = path.is_file()
    except (OSError, ValueError):
        is_file = False
    if is_file:
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"config: cannot read {str(source)!r}: {err}") from err
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"line {err.lineno}, column {err.colno}: {err.msg}") from err
    except RecursionError:
        raise ConfigError("document: nested too deeply") from None
    return config_from_dict(doc)


def config_from_dict(doc) -> JobConfig:
    from .targets import Divisor, DivisorArrangement, TargetSpace

    _expect(isinstance(doc, dict), "document", "expected a JSON object")
    unknown = set(doc) - {"target", "divisors", "roots", "cap", "m"}
    _expect(not unknown, "document", f"unknown fields {sorted(unknown)}")

    target_doc = doc.get("target")
    _expect(isinstance(target_doc, dict), "target", "expected an object")
    factors = _int_list(target_doc.get("factors"), "target.factors")
    target = _domain("target.factors", TargetSpace, tuple(factors))

    divisors_doc = doc.get("divisors")
    _expect(
        isinstance(divisors_doc, list) and divisors_doc,
        "divisors",
        "expected a nonempty list",
    )
    divisors = []
    for idx, item in enumerate(divisors_doc):
        where = f"divisors[{idx}]"
        _expect(isinstance(item, dict), where, "expected an object")
        name = item.get("name")
        _expect(isinstance(name, str) and name, f"{where}.name", "expected a name")
        coeffs = _int_list(item.get("coeffs"), f"{where}.coeffs")
        divisor = Divisor(name, tuple(coeffs))
        _domain(f"{where}.coeffs", divisor.validate_on, target)
        divisors.append(divisor)
    arrangement = _domain("divisors", DivisorArrangement, tuple(divisors))

    roots = None
    if doc.get("roots") is not None:
        roots = roots_for(tuple(_int_list(doc["roots"], "roots")), arrangement)

    cap = check_cap(doc.get("cap"))

    m = doc.get("m")
    if m is not None:
        _bounded(m, "m")

    return JobConfig(
        target=target, arrangement=arrangement, roots=roots, cap=cap, m=m
    )
