"""Span recorder for the traced run.

While installed, every public function of the seven library layers
(config, medium, pulse, excitation, oracle, montecarlo, analysis) is
replaced by a recording wrapper at each module attribute that holds it,
so the wrapper sits at the name its caller uses:
``negdelay.cli.derive_shapes``, ``negdelay.montecarlo.simulate_cycle``,
``negdelay.pulse.transmission_probability`` (which
``excitation.mean_excitation_time`` imports at call time), and so on.
``Accumulator.add_cycle`` and ``Accumulator.result`` are wrapped on the
class. A generator function (``run_campaign``) gets one span per item it
yields, from the request to the yield, so a lazy campaign is recorded
cycle by cycle (with ``simulate_cycle`` inside), never as one span. The benchmark adds its own
``cli.<subcommand>`` spans around its calls into ``negdelay.cli.main``.

A span holds a name, start, end, parent and the region it was recorded
in ("setup" or "pass"). Spans stay in memory until the benchmark writes
them out. A span's self time is its duration minus the time covered by
its children.

Three counts are computed from call arguments, not measured, and ignore
cache effects: ``oracle.emitter_updates`` (steps x emitters x 3 sweeps:
forward, block replay, adjoint), ``excitation.fft_count`` (the FFTs of
``excited_population`` and ``transmitted_excitation_time``) and
``montecarlo.normal_draws`` (shots x samples of the noise matrix).
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import pkgutil
import statistics
import time
from contextlib import contextmanager

LAYERS = (
    "config",
    "medium",
    "pulse",
    "excitation",
    "oracle",
    "montecarlo",
    "analysis",
    "cli",
)
_LIBRARY_LAYERS = LAYERS[:-1]
_METHODS = (("analysis", "Accumulator", ("add_cycle", "result")),)
#: forward sweep, block replay and adjoint sweep of the collision model
_ORACLE_SWEEPS = 3


def _emitter_updates(args, result):
    return {
        "oracle.emitter_updates": _ORACLE_SWEEPS
        * args["sig"].n
        * args["n_atoms"]
    }


def _slab_ffts(args, result):
    n_slabs = args.get("_n_slabs") or args["medium"].n_slabs
    return {"excitation.fft_count": 1 + n_slabs}


def _one_fft(args, result):
    return {"excitation.fft_count": 1}


def _grid_points(args, result):
    return {"pulse.grid_points": result.n}


def _cycle_draws(args, result):
    shots = args["config"].shots_per_cycle
    return {
        "montecarlo.shots": shots,
        "montecarlo.normal_draws": shots * args["config"].n_samples,
    }


_COUNTERS = {
    "oracle.weak_excitation_trace": _emitter_updates,
    "excitation.excited_population": _slab_ffts,
    "excitation.transmitted_excitation_time": _one_fft,
    "pulse.gaussian_field": _grid_points,
    "montecarlo.simulate_cycle": _cycle_draws,
}


def _package_modules():
    import negdelay

    names = [m.name for m in pkgutil.iter_modules(negdelay.__path__)]
    return [negdelay] + [importlib.import_module(f"negdelay.{n}") for n in names]


class Tracer:
    """In-memory span and count recorder with install/uninstall."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, region]
        self.counts: collections.Counter = collections.Counter()
        self.region = "setup"
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.region])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(bound.arguments, result).items():
                    self.counts[(self.region, key)] += value
            return result

        @functools.wraps(fn)
        def traced_items(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                idx = self._open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield item

        return traced_items if inspect.isgeneratorfunction(fn) else traced

    def install(self) -> None:
        modules = _package_modules()
        by_name = {m.__name__: m for m in modules}
        wrappers = {}
        for layer in _LIBRARY_LAYERS:
            mod = by_name[f"negdelay.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)
        for layer, cls_name, methods in _METHODS:
            cls = getattr(by_name[f"negdelay.{layer}"], cls_name)
            for method in methods:
                self._patch(
                    cls, method, self._wrap(f"{layer}.{method}", vars(cls)[method])
                )

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, region: str):
        self.region = region
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def tail_latency(values: list[float]) -> tuple[float, float]:
    """Median, and the p99 or the highest percentile that still has at
    least ten samples beyond it (the maximum below 20 samples)."""
    if not values:
        return 0.0, 0.0
    if len(values) < 20:
        return statistics.median(values), max(values)
    pct = min(99, int(100 * (1.0 - 10.0 / len(values))))
    return statistics.median(values), statistics.quantiles(values, n=100)[pct - 1]


def layer_metrics(tracer: Tracer, n_passes: int) -> dict[str, float]:
    """Per-layer figures for one set-up plus one pass.

    Spans and counts from the set-up region count once; those from the
    traced passes are averaged over ``n_passes``. Latency percentiles
    pool every span of that name.
    """
    weight = {"setup": 1.0, "pass": 1.0 / max(n_passes, 1)}
    child_time = collections.defaultdict(float)
    for name, start, end, parent, region in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    total = collections.defaultdict(float)
    calls = collections.defaultdict(float)
    self_time = collections.defaultdict(float)
    outer_time = collections.defaultdict(float)
    durations = collections.defaultdict(list)
    for idx, (name, start, end, parent, region) in enumerate(tracer.spans):
        dur = end - start
        w = weight[region]
        layer = name.split(".", 1)[0]
        total[name] += w * dur
        calls[name] += w
        calls[layer] += w
        self_time[layer] += w * (dur - child_time[idx])
        if parent < 0 or tracer.spans[parent][0].split(".", 1)[0] != layer:
            outer_time[layer] += w * dur
        durations[name].append(dur)
    counts = collections.defaultdict(float)
    for (region, key), value in tracer.counts.items():
        counts[key] += weight[region] * value

    sim_p50, sim_p99 = tail_latency(durations["montecarlo.simulate_cycle"])
    add_p50, _ = tail_latency(durations["analysis.add_cycle"])
    oracle_s = total["oracle.weak_excitation_trace"]
    out = {
        "config.load_ms": 1e3 * outer_time["config"],
        "medium.self_ms": 1e3 * self_time["medium"],
        "medium.calls": calls["medium"],
        "pulse.gaussian_field_ms": 1e3 * total["pulse.gaussian_field"],
        "pulse.transmission_probability_ms": 1e3
        * total["pulse.transmission_probability"],
        "pulse.grid_points": counts["pulse.grid_points"],
        "excitation.excited_population_ms": 1e3
        * total["excitation.excited_population"],
        "excitation.spectral_report_ms": 1e3 * total["excitation.spectral_report"],
        "excitation.fft_count": counts["excitation.fft_count"],
        "oracle.weak_excitation_trace_s": oracle_s,
        "oracle.build_model_ms": 1e3 * total["oracle.build_model"],
        "oracle.emitter_updates": counts["oracle.emitter_updates"],
        "oracle.emitter_updates_per_s": (
            counts["oracle.emitter_updates"] / oracle_s if oracle_s > 0.0 else 0.0
        ),
        "montecarlo.derive_shapes_s": total["montecarlo.derive_shapes"],
        "montecarlo.derive_shapes_calls": calls["montecarlo.derive_shapes"],
        "montecarlo.calibrate_detection_ms": 1e3
        * total["montecarlo.calibrate_detection"],
        "montecarlo.simulate_cycle_ms_p50": 1e3 * sim_p50,
        "montecarlo.simulate_cycle_ms_p99": 1e3 * sim_p99,
        "montecarlo.shots": counts["montecarlo.shots"],
        "montecarlo.normal_draws": counts["montecarlo.normal_draws"],
        "analysis.add_cycle_ms_p50": 1e3 * add_p50,
        "analysis.result_ms": 1e3 * total["analysis.result"],
        "analysis.integral_with_error_ms": 1e3 * total["analysis.integral_with_error"],
        "analysis.bootstrap_sigma_ms": 1e3 * total["analysis.bootstrap_sigma"],
        "analysis.accumulate_calls": calls["analysis.accumulate"],
    }
    for sub in ("theory", "sweep", "simulate", "analyze", "nullcheck"):
        out[f"cli.{sub}_s"] = total[f"cli.{sub}"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_time[layer]
    return out
