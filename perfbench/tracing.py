"""Spans around calls into the agestruct package, recorded from outside it.

``instrument`` replaces the public functions listed in ``LAYERS`` with
wrappers, in every package module that refers to them, so nested public
calls (``cross_validate`` -> ``volterra_solve``) become child spans. Spans
stay in memory until the run ends. ``layer_metrics`` turns them into the
per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import json
import os
import statistics
import sys
import time
from typing import Callable, Optional

#: the public calls that are layer boundaries, by module
LAYERS = {
    "config": ("load_config",),
    "oracle": ("cross_validate", "volterra_solve"),
    "reduction": ("integrate", "rhs", "Trajectory.state_at", "Trajectory.psi_integral_at"),
    "steady": ("bifurcation_sweep", "equilibrium", "steady_state"),
    "stability": ("classify", "classify_trivial", "jacobian_at", "eigenvalues"),
    "reconstruct": ("reconstruct_density", "consistency_check", "default_age_grid"),
    "quadrature": ("simpson",),
    "csvio": ("write_trajectory_csv", "write_density_csv", "write_sweep_csv", "write_oracle_csv"),
}
MODULES = ("cli",) + tuple(LAYERS)


@dataclasses.dataclass
class Span:
    id: int
    parent: Optional[int]
    op: str
    name: str
    start: float
    end: float = 0.0
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; ``op`` is the operation id given to new spans."""

    def __init__(self):
        self.spans: list = []
        self.op = "setup"
        self._stack: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.op, name, 0.0)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, annotate: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    span.attrs["error"] = type(exc).__name__
                    if annotate:
                        annotate(span.attrs, args, kwargs, None, exc)
                    raise
            if annotate:
                annotate(span.attrs, args, kwargs, result, None)
            return result

        return traced

    def dump(self, path) -> None:
        doc = [dataclasses.asdict(s) for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# count annotations, made after the span has ended


def _oracle_counts(attrs, args, kwargs, result, exc):
    model = args[0] if args else kwargs["model"]
    attrs["path"] = "separable" if model.separable else "generic"
    if result is not None:
        attrs["sweeps"] = result.iterations
    else:
        attrs["sweeps"] = getattr(exc, "iterations", None) or 0


def _integrate_counts(attrs, args, kwargs, result, exc):
    attrs["method"] = kwargs.get("method", "rk45")
    attrs["steps"] = result.knot_times.size - 1 if result is not None else 0


def _sweep_counts(attrs, args, kwargs, result, exc):
    attrs["points"] = len(result) if result is not None else 0


def _csv_counts(attrs, args, kwargs, result, exc):
    attrs["bytes"] = os.path.getsize(result) if result is not None else 0


ANNOTATE = {
    "oracle.volterra_solve": _oracle_counts,
    "reduction.integrate": _integrate_counts,
    "steady.bifurcation_sweep": _sweep_counts,
    **{f"csvio.{n}": _csv_counts for n in LAYERS["csvio"]},
}


def instrument(tracer: Tracer, package: str = "agestruct") -> None:
    """Route every call of a ``LAYERS`` function through a recording wrapper."""
    for module_name, names in LAYERS.items():
        module = importlib.import_module(f"{package}.{module_name}")
        for qualname in names:
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            span_name = f"{module_name}.{attr}"
            wrapped = tracer.wrap(span_name, original, ANNOTATE.get(span_name))
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").partition(".")[0] != package:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)


# ---------------------------------------------------------------------------
# per-layer metrics


def self_seconds(spans: list) -> dict:
    """Span id -> duration minus the time its child spans cover."""
    own = {s.id: s.seconds for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.seconds
    return own


def _pass_of(op: str) -> str:
    return op.partition(":")[0]


class _Pools:
    """Spans by origin: the workload's passes, its set-up, and the probes.

    Operation ids are ``pass<k>:<i>`` in the passes, ``setup`` in the
    workload's set-up and ``probe:<i>`` in the probe pass. A metric is taken
    from the passes, or from the probe pass when the passes make no such call.
    """

    def __init__(self, spans: list):
        self.own = [s for s in spans if s.op.startswith("pass")]
        self.setup = [s for s in spans if s.op == "setup"]
        self.probe = [s for s in spans if s.op.startswith("probe:")]

    def select(self, name: str, where: Callable = lambda s: True) -> list:
        hits = [s for s in self.own if s.name == name and where(s)]
        return hits or [s for s in self.probe if s.name == name and where(s)]


def _median_call(spans: list, scale: float) -> float:
    return statistics.median(s.seconds for s in spans) * scale if spans else 0.0


def _per_pass(spans: list, value: Callable) -> float:
    """Median over passes of the per-pass sum of ``value(span)``."""
    totals: dict = {}
    for s in spans:
        totals[_pass_of(s.op)] = totals.get(_pass_of(s.op), 0.0) + value(s)
    return statistics.median(totals.values()) if totals else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics: name -> value. Units and directions are in METRICS."""
    pools = _Pools(spans)
    sel = pools.select
    seconds = lambda s: s.seconds  # noqa: E731
    out = {}
    for probe in ("python_start", "numpy_import", "import"):
        out[f"cli.{probe}_s"] = _median_call(sel(f"cli.{probe}"), 1.0)
    for command in ("steady", "simulate", "reconstruct", "sweep", "validate", "report"):
        out[f"cli.{command}_s"] = _median_call(sel(f"cli.{command}"), 1.0)
    # every workload loads its configs during set-up
    loads = [s for s in pools.setup if s.name == "config.load_config"]
    out["config.load_ms"] = _median_call(loads, 1e3)

    out["oracle.cross_validate_s"] = _per_pass(sel("oracle.cross_validate"), seconds)
    for path in ("separable", "generic"):
        solves = sel("oracle.volterra_solve", lambda s, p=path: s.attrs.get("path") == p)
        total = sum(s.seconds for s in solves)
        sweeps = sum(s.attrs["sweeps"] for s in solves)
        out[f"oracle.{path}_s"] = _per_pass(solves, seconds)
        out[f"oracle.{path}_sweeps"] = _per_pass(solves, lambda s: s.attrs["sweeps"])
        out[f"oracle.{path}_ms_per_sweep"] = _ratio(total, sweeps) * 1e3

    out["reduction.rhs_us"] = _median_call(sel("reduction.rhs"), 1e6)
    for method in ("rk45", "rk4"):
        runs = sel("reduction.integrate", lambda s, m=method: s.attrs.get("method") == m)
        out[f"reduction.{method}_s"] = _per_pass(runs, seconds)
        out[f"reduction.{method}_steps"] = _per_pass(runs, lambda s: s.attrs["steps"])
        if method == "rk45":
            steps = sum(s.attrs["steps"] for s in runs)
            out["reduction.rk45_us_per_step"] = _ratio(sum(s.seconds for s in runs), steps) * 1e6
    dense = sel("reduction.state_at") + sel("reduction.psi_integral_at")
    out["reduction.dense_eval_ms"] = _per_pass(dense, seconds) * 1e3

    sweeps = sel("steady.bifurcation_sweep")
    out["steady.sweep_s"] = _per_pass(sweeps, seconds)
    out["steady.sweep_points_per_s"] = _ratio(sum(s.attrs["points"] for s in sweeps), sum(s.seconds for s in sweeps))
    out["steady.equilibrium_ms"] = _median_call(sel("steady.equilibrium"), 1e3)
    out["stability.classify_ms"] = _median_call(sel("stability.classify"), 1e3)
    out["stability.eigenvalues_us"] = _median_call(sel("stability.eigenvalues"), 1e6)
    out["reconstruct.density_ms"] = _median_call(sel("reconstruct.reconstruct_density"), 1e3)
    out["reconstruct.consistency_ms"] = _median_call(sel("reconstruct.consistency_check"), 1e3)
    # direct calls only: the ones nested in consistency_check are smaller
    out["quadrature.simpson_ms"] = _median_call(sel("quadrature.simpson", lambda s: s.parent is None), 1e3)

    writes = [s for name in LAYERS["csvio"] for s in sel(f"csvio.{name}")]
    out["csvio.write_s"] = _per_pass(writes, seconds)
    out["csvio.bytes"] = _per_pass(writes, lambda s: s.attrs["bytes"])
    out["csvio.mb_per_s"] = _ratio(sum(s.attrs["bytes"] for s in writes), sum(s.seconds for s in writes)) / 1e6

    own_self = self_seconds(spans)
    for module in MODULES:
        of_module = lambda pool, m=module: [s for s in pool if s.name.partition(".")[0] == m]  # noqa: E731
        mine = of_module(pools.setup if module == "config" else pools.own) or of_module(pools.probe)
        out[f"self.{module}_s"] = _per_pass(mine, lambda s: own_self[s.id])
    out["trace.spans"] = _per_pass(pools.own, lambda s: 1)
    return out


#: per-layer metric -> (unit, better); the order BENCHMARK.json lists them in
METRICS = {
    **{f"cli.{p}_s": ("s", "lower") for p in ("python_start", "numpy_import", "import")},
    **{f"cli.{c}_s": ("s", "lower") for c in ("steady", "simulate", "reconstruct", "sweep", "validate", "report")},
    "config.load_ms": ("ms", "lower"),
    "oracle.cross_validate_s": ("s", "lower"),
    "oracle.separable_s": ("s", "lower"),
    "oracle.separable_sweeps": ("count", "lower"),
    "oracle.separable_ms_per_sweep": ("ms", "lower"),
    "oracle.generic_s": ("s", "lower"),
    "oracle.generic_sweeps": ("count", "lower"),
    "oracle.generic_ms_per_sweep": ("ms", "lower"),
    "oracle.xval_gap": ("1", "lower"),
    "reduction.rhs_us": ("us", "lower"),
    "reduction.rk45_s": ("s", "lower"),
    "reduction.rk45_steps": ("count", "lower"),
    "reduction.rk45_us_per_step": ("us", "lower"),
    "reduction.rk4_s": ("s", "lower"),
    "reduction.rk4_steps": ("count", "lower"),
    "reduction.dense_eval_ms": ("ms", "lower"),
    "steady.sweep_s": ("s", "lower"),
    "steady.sweep_points_per_s": ("1/s", "higher"),
    "steady.equilibrium_ms": ("ms", "lower"),
    "stability.classify_ms": ("ms", "lower"),
    "stability.eigenvalues_us": ("us", "lower"),
    "reconstruct.density_ms": ("ms", "lower"),
    "reconstruct.consistency_ms": ("ms", "lower"),
    "quadrature.simpson_ms": ("ms", "lower"),
    "csvio.write_s": ("s", "lower"),
    "csvio.bytes": ("count", "lower"),
    "csvio.mb_per_s": ("MB/s", "higher"),
    **{f"self.{m}_s": ("s", "lower") for m in MODULES},
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}
