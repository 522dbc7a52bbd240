"""Outside-in tracer for sc7core's layer functions.

The tracer wraps the public functions listed in LAYERS and records one
span per call: name, start, end, parent span and the id of the CLI call
(operation) it belongs to.  `cli`, `eisenstein` and `quadforms` bind
their callees with `from ... import`, so a wrapper is installed under
every name in every loaded `sc7core.*` module that holds the original
function.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import types
from time import perf_counter
from typing import NamedTuple, Optional

# layer (module of sc7core) -> traced function -> the argument that sets
# the size of a call, or None when the call has no size.
LAYERS = {
    "qseries": {"sc_series": "prec", "eta_quotient_series": "prec"},
    "ternary": {"theta_coeffs": "prec", "rep_count": "m"},
    "quadforms": {"reduced_forms": "D", "hurwitz": "D",
                  "dirichlet_hurwitz": "D", "hurwitz_scaled": "D"},
    "arith": {"kronecker_row": "limit"},
    "partitions": {"sc_count": "n"},
    "eisenstein": {"sc7_from_class_number": "n", "sc7_from_character_sum": "n",
                   "closed_rep_count": "m", "theta_from_eisenstein": "m"},
    "cli": {"main": None, "record_for": "n"},
}

# Work done by one call, read from its result: traced function -> (metric, reader).
WORK = {
    # the coefficients sum to the number of lattice points the sweep visited
    "ternary.theta_coeffs": ("ternary.theta_coeffs.points", lambda series: sum(series.coeffs)),
    "quadforms.reduced_forms": ("quadforms.reduced_forms.forms", len),
    "arith.kronecker_row": ("arith.kronecker_row.len", len),
}

# The kernels whose duration against size gives a layer's scaling exponent.
SCALING = {
    "qseries": ("qseries.sc_series", "qseries.eta_quotient_series"),
    "ternary": ("ternary.theta_coeffs", "ternary.rep_count"),
    "quadforms": ("quadforms.reduced_forms",),
    "arith": ("arith.kronecker_row",),
    "partitions": ("partitions.sc_count",),
}

FUNCTIONS = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]

# Per-layer metric name -> unit, as the benchmark reports them.
METRICS = {}
for _name in FUNCTIONS:
    METRICS[f"{_name}.calls"] = "count"
    METRICS[f"{_name}.self_s"] = "s"
METRICS.update({metric: "count" for metric, _ in WORK.values()})
METRICS["qseries.coeffs"] = "count"  # total precision requested
METRICS["cli.record_for.skips"] = "count"  # cells outside a route's hypotheses
METRICS.update({f"{layer}.scaling_exp": "1" for layer in SCALING})


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    op: int
    name: str
    start: float
    end: float
    self_s: float
    size: Optional[int]
    work: int
    error: Optional[str]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0  # id of the operation now running; set by the caller
        self._open: list[list] = []  # [span id, time spent in children]
        self._next_id = 0
        self._patches: list[tuple] = []

    def install(self) -> None:
        """Replace every binding of a traced function in sc7core.*."""
        wrappers = {}
        for layer, fns in LAYERS.items():
            home = sys.modules[f"sc7core.{layer}"]
            for fn, size_arg in fns.items():
                original = getattr(home, fn)
                wrappers[original] = self._wrap(f"{layer}.{fn}", original, size_arg)
        for modname, module in list(sys.modules.items()):
            if modname != "sc7core" and not modname.startswith("sc7core."):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn, size_arg):
        pos = list(inspect.signature(fn).parameters).index(size_arg) if size_arg else None
        work = WORK[name][1] if name in WORK else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            size = None
            if pos is not None:
                size = args[pos] if pos < len(args) else kwargs.get(size_arg)
            span_id = self._next_id
            self._next_id += 1
            parent = self._open[-1] if self._open else None
            frame = [span_id, 0.0]
            self._open.append(frame)
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                self._open.pop()
                if parent is not None:
                    parent[1] += end - start
                self.spans.append(Span(
                    span_id, parent[0] if parent else None, self.op, name, start, end,
                    end - start - frame[1], size,
                    work(result) if work and error is None else 0, error))

        return traced

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times of every span recorded."""
        out = {name: 0 for name in METRICS if not name.endswith(".scaling_exp")}
        for name in FUNCTIONS:
            out[f"{name}.self_s"] = 0.0
        for s in self.spans:
            out[f"{s.name}.calls"] += 1
            out[f"{s.name}.self_s"] += s.self_s
            if s.name in WORK:
                out[WORK[s.name][0]] += s.work
            if s.name.startswith("qseries."):
                out["qseries.coeffs"] += s.size
            if s.name == "cli.record_for" and s.error == "HypothesisViolation":
                out["cli.record_for.skips"] += 1
        return out

    def scaling_exponents(self) -> dict:
        return {f"{layer}.scaling_exp": scaling_exponent(self.spans, names)
                for layer, names in SCALING.items()}


def scaling_exponent(spans, names) -> float:
    """Log-log slope of call duration against size, one intercept per kernel.

    Calls below a hundredth of a kernel's largest size are left out: their
    time is mostly call overhead, which would flatten the slope.  Returns
    0.0 when no kernel was called at two or more sizes.
    """
    num = den = 0.0
    for name in names:
        pts = [(s.size, s.end - s.start) for s in spans
               if s.name == name and s.error is None and s.size and s.size > 1]
        if not pts:
            continue
        top = max(size for size, _ in pts)
        xy = [(math.log(size), math.log(dur)) for size, dur in pts
              if size * 100 >= top and dur > 0]
        if not xy:
            continue
        mx = sum(x for x, _ in xy) / len(xy)
        my = sum(y for _, y in xy) / len(xy)
        num += sum((x - mx) * (y - my) for x, y in xy)
        den += sum((x - mx) ** 2 for x, _ in xy)
    return num / den if den else 0.0
