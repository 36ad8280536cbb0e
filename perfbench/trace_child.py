"""Run one CLI job under per-layer timing wrappers and write its span summary.

Usage::

    PYTHONPATH=src python perfbench/trace_child.py SUMMARY.json -- CLI_ARGS...

The wrappers are installed from this file only; the package is not edited.
Each wrapped call records one span (name, start, end, parent span and up to
two counts) in in-memory arrays.  After ``cli.run`` returns, the spans are
reduced to per-name call counts, self times and count totals, and that
summary is written to SUMMARY.json.  Self time is a span's duration minus the
time its child spans cover, so the self times of one job add up to the
duration of its root ``cli.run`` span.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

from rootstack_gw import algebra, cli, config, identities, ifunctions, invariants, periods, targets
from rootstack_gw.algebra import GradedSeries

# Public functions wrapped per layer (module), by attribute name.
LAYERS = {
    algebra: ("series_sum", "invert_z_linear", "exact_divide_linear"),
    targets: ("base_j_function",),
    ifunctions: (
        "i_root_nonextended",
        "i_root_extended",
        "i_infinity_nonextended",
        "i_infinity_extended",
        "i_infinity_extended_h0",
        "i_relative_smooth",
        "i_local",
    ),
    invariants: ("mirror_map", "extract_invariants", "stabilization_check"),
    identities: (
        "check_local_orbifold_nonextended",
        "check_local_orbifold_extended",
        "check_local_relative_smooth",
        "divisor_derivative",
        "pushforward_iota",
    ),
    periods: ("quantum_period", "classical_period_orbifold", "laurent_classical_period"),
    config: ("parse_config",),
    cli: ("run",),
}

EXTENDED_BUILDERS = ("ifunctions.i_root_extended", "ifunctions.i_infinity_extended")


class Tracer:
    """Span store: one slot per wrapped call, parent links from a call stack."""

    def __init__(self):
        self.labels: list[str] = []
        self.counter_names: list[tuple[str, ...]] = []
        self.label = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.count0 = array("q")
        self.count1 = array("q")
        self.stack = [-1]

    def wrap(self, label: str, fn, counters: tuple[str, ...] = (), count=None):
        """Timing wrapper for ``fn``.  ``count(args, kwargs, result)`` returns
        the span's two counts, named by ``counters``."""
        lid = len(self.labels)
        self.labels.append(label)
        self.counter_names.append(counters)
        labels, parents, starts, ends = self.label, self.parent, self.start, self.end
        count0, count1, stack = self.count0, self.count1, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(labels)
            labels.append(lid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            count0.append(0)
            count1.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if count is not None:
                count0[idx], count1[idx] = count(args, kwargs, result)
            return result

        return wrapper

    def _under(self, i: int, ancestors: set[int]) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.label[p] in ancestors:
                return True
            p = self.parent[p]
        return False

    def summary(self) -> dict:
        """Per-name calls, self time and count totals of all recorded spans."""
        n = len(self.label)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                covered[self.parent[i]] += duration[i]
        layers = {
            label: {"calls": 0, "s": 0.0, **{c: 0 for c in counters}}
            for label, counters in zip(self.labels, self.counter_names)
        }
        extended = {self.labels.index(name) for name in EXTENDED_BUILDERS}
        sum_id = self.labels.index("algebra.series_sum")
        extended_terms_in = extended_terms_out = 0
        compute_s = 0.0
        self_sum_s = 0.0
        for i in range(n):
            lid = self.label[i]
            row = layers[self.labels[lid]]
            own = duration[i] - covered[i]
            row["calls"] += 1
            row["s"] += own
            self_sum_s += own
            for name, value in zip(self.counter_names[lid], (self.count0[i], self.count1[i])):
                row[name] += value
            if self.parent[i] < 0:
                compute_s += duration[i]
            if lid in extended:
                extended_terms_out += self.count0[i]
            elif lid == sum_id and self._under(i, extended):
                extended_terms_in += self.count0[i]
        return {
            "layers": layers,
            "spans": n,
            "compute_s": compute_s,
            "self_sum_s": self_sum_s,
            # Terms the extended builders return, and the terms their series
            # sums took in: the share of built terms the builders keep.
            "extended_terms_out": extended_terms_out,
            "extended_terms_in": extended_terms_in,
        }


def _rebind(original, wrapper) -> None:
    """Replace ``original`` in every package namespace that imported it."""
    for name, module in list(sys.modules.items()):
        if name != "rootstack_gw" and not name.startswith("rootstack_gw."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _mul_counts(args, kwargs, result):
    a, b = args
    if isinstance(b, GradedSeries):
        return len(a) * len(b), len(result)
    return 0, 0


def _sum_counts(args, kwargs, result):
    # Every caller in the package passes a list of parts, so it is still
    # there to count after the call.
    return sum(len(part) for part in args[1]), len(result)


def _new_counts(args, kwargs, result):
    terms = args[2] if len(args) > 2 else kwargs["terms"]
    return len(terms), 0


def _terms_out(args, kwargs, result):
    return len(result), 0


def _entries(args, kwargs, result):
    return len(result.entries), 0


def install(tracer: Tracer) -> None:
    """Wrap every function in ``LAYERS`` and the two ``GradedSeries`` methods."""
    seen_j_args: set = set()

    def j_repeats(args, kwargs, result):
        X, beta = args[0], tuple(args[1])
        ctx = args[2] if len(args) > 2 else kwargs.get("ctx")
        key = (X, beta, ctx)
        repeat = key in seen_j_args
        seen_j_args.add(key)
        return int(repeat), 0

    special = {
        "algebra.series_sum": (("terms_in", "terms_out"), _sum_counts),
        "targets.base_j_function": (("repeats",), j_repeats),
        "invariants.extract_invariants": (("entries",), _entries),
    }
    for name in LAYERS[ifunctions]:
        special[f"ifunctions.{name}"] = (("terms_out",), _terms_out)

    for module, names in LAYERS.items():
        layer = module.__name__.rsplit(".", 1)[1]
        for name in names:
            label = f"{layer}.{name}"
            original = getattr(module, name)
            counters, count = special.get(label, ((), None))
            _rebind(original, tracer.wrap(label, original, counters, count))

    mul = tracer.wrap("algebra.mul", GradedSeries.__mul__, ("pairs", "terms_out"), _mul_counts)
    GradedSeries.__mul__ = mul
    GradedSeries.__rmul__ = mul
    GradedSeries.__init__ = tracer.wrap(
        "algebra.new", GradedSeries.__init__, ("terms_in",), _new_counts
    )


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    summary_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    status = cli.run(cli_args)
    sys.stdout.flush()
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
