"""Exact arithmetic for multigraded series over a nilpotent cohomology ring.

The arithmetic lives in three modules, split so that no job compiles one
large unit: a module's compile raises a fresh interpreter's resident set by
about 2.5 KB per source line, never given back, so the largest compile sets
a job's peak memory.

* :mod:`rootstack_gw.ring`: :class:`AmbientRing` and :class:`CohClass`;
* :mod:`rootstack_gw.series`: the sparse :class:`GradedSeries`, its keys,
  contexts and print order, and :func:`series_sum`;
* :mod:`rootstack_gw.chain`: the dense kernel :class:`_Chain` that builds
  every closed-form slice.

This module re-exports them, and ``Record`` from
:mod:`rootstack_gw.records`, as the same objects.  The sparse reference
routines :func:`invert_z_linear` and :func:`exact_divide_linear`, and
``DivisibilityError``, live in :mod:`rootstack_gw.reference`, which no
command loads; they are imported here when first looked up.
"""

from __future__ import annotations

# ``series``, the largest of the three, is compiled first, on the smallest
# heap; the smaller compiles after it reuse that memory.
from .series import (
    GradedSeries,
    SeriesContext,
    TermKey,
    print_key,
    print_row,
    series_sum,
)
from .chain import NotInvertibleError, _Chain
from .records import Record
from .ring import AmbientRing, CohClass, ContractError

_REFERENCE = ("DivisibilityError", "exact_divide_linear", "invert_z_linear")


def __getattr__(name: str):
    """Import :mod:`rootstack_gw.reference` for its names, and keep them here."""
    if name not in _REFERENCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import reference

    value = globals()[name] = getattr(reference, name)
    return value
