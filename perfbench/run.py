#!/usr/bin/env python3
"""negdelay benchmark: end-to-end metrics, or per-layer metrics when traced.

Usage, from the root of a source checkout (nothing needs installing; the
package is imported from ``src/``):

    python3 perfbench/run.py --workload {theory,campaign,shotlog} \
        --seed N --seconds S --trace {0,1}

A run prepares the workload once, then repeats passes of its fixed work
while the next pass still fits in ``--seconds`` (at least two), checking
the outputs of each pass. ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json``; ``setup_s`` is the median of several cold set-ups
in fresh interpreters, each timed from process start to exit. Both
times are scaled to the reference host speed measured during the run;
see ``hostspeed.py``. ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics; see ``tracer.py``.

The last line of standard output is the result, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The line
before it records the environment. The same record, plus the raw spans
of a traced run, is written to ``.perfbench_out/last-<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from tracer import Tracer, layer_metrics, tail_latency

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MODULES = (
    "analysis",
    "backend",
    "cli",
    "config",
    "errors",
    "excitation",
    "medium",
    "montecarlo",
    "oracle",
    "pulse",
)
#: cold set-ups per run: at least MIN, up to MAX while under BUDGET seconds
SETUP_MIN, SETUP_MAX, SETUP_BUDGET = 3, 7, 3.0
#: reference chunks before, between and after the set-ups
SETUP_CHUNKS = 2
MIN_PASSES = 2
#: the mix of a cold set-up: the interpreter, imports, and for
#: ``campaign`` the oracle inside the shape derivation
SETUP_REFERENCE = {"python": 1.0}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(load_at_start) -> dict:
    import numpy
    import negdelay

    backend = getattr(negdelay, "backend_name", None)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": backend() if backend else None,
        "git_sha": git_sha(),
        "loadavg_at_start": load_at_start,
        "platform": platform.platform(),
    }


def static_counts() -> dict[str, float]:
    """Line counts per module and in total, and the total __all__ size."""
    out = {f"{m}.lines": 0.0 for m in MODULES}
    out["package.lines"] = 0.0
    total = public = 0
    for path in sorted((SRC / "negdelay").glob("*.py")):
        text = path.read_text()
        lines = len(text.splitlines())
        total += lines
        key = "package" if path.stem == "__init__" else path.stem
        if key in MODULES or key == "package":
            out[f"{key}.lines"] = float(lines)
        for node in ast.parse(text).body:
            if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets
            ):
                public += len(node.value.elts)
    out["src.lines"] = float(total)
    out["src.public_names"] = float(public)
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(workload: str) -> tuple[list[float], list[dict[str, float]]]:
    """Cold set-ups in fresh interpreters, each from spawn to exit, and
    the reference chunks timed before, between and after them."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", "0", "--probe-setup"]
    samples: list[float] = []
    hostspeed.chunk()  # untimed: a process's first chunk can run slower
    chunks = [hostspeed.chunk() for _ in range(SETUP_CHUNKS)]
    while len(samples) < SETUP_MIN or (
        len(samples) < SETUP_MAX and sum(samples) < SETUP_BUDGET
    ):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
        chunks.extend(hostspeed.chunk() for _ in range(SETUP_CHUNKS))
    return samples, chunks


def run_passes(wl, seconds: float, tracer=None, ticker=None):
    """Repeat passes while the next one still fits in ``seconds``, and
    at least twice.

    With a tracer, passes alternate untraced and traced, starting
    untraced. With a running ``hostspeed.Ticker``, the time its chunks
    took is taken out of each pass.
    """
    passes = {False: [], True: []}  # traced? -> [(seconds, units, (start, end))]
    checks: list[tuple[str, bool, str]] = []
    spent = {False: [], True: []}
    start = time.perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        t0 = time.perf_counter()
        ticked = ticker.spent if ticker else 0.0
        if traced:
            with tracer.installed("pass"):
                out = wl.run_pass(index, tracer)
        else:
            out = wl.run_pass(index)
        t1 = time.perf_counter()
        wall = t1 - t0
        if ticker:
            wall -= ticker.spent - ticked
        try:
            results = wl.check(out)
        except Exception as exc:  # a malformed output fails the whole pass
            results = [(f"pass {index}", False, f"check raised {exc!r}")] * wl.OPS
        checks.extend(results)
        passes[traced].append((wall, wl.work_units(out), (t0, t1)))
        spent[traced].append(time.perf_counter() - t0)
        index += 1
        nxt = tracer is not None and index % 2 == 1
        estimate = statistics.median(spent[nxt] or spent[not nxt])
        if index >= MIN_PASSES and time.perf_counter() - start + estimate > seconds:
            return passes, checks


def scaled_passes(passes, ticker, weights) -> list[float]:
    """Each pass time scaled by the reference chunks timed during it."""
    return [w * hostspeed.scale(ticker.beside(*span), weights) for w, _, span in passes]


def end_to_end(scaled, setup_samples, setup_chunks) -> dict[str, float]:
    """Median scaled pass and set-up times."""
    setup_scale = hostspeed.scale(setup_chunks, SETUP_REFERENCE)
    return {
        "wall_s": statistics.median(scaled),
        "setup_s": statistics.median(setup_samples) * setup_scale,
        "peak_rss_mb": peak_rss_mb(),
    }


def workload_rates(passes) -> dict[str, float]:
    """Workload-level figures from untraced passes, reported in traced
    runs beside the per-layer metrics."""
    wall = sum(w for w, *_ in passes)
    units = [u for _, u, _ in passes]
    latencies = [x for u in units for x in u.get("latencies", ())]
    p50, tail = tail_latency(latencies)
    return {
        "points_per_s": sum(u.get("points", 0) for u in units) / wall,
        "shots_per_s": sum(u.get("shots", 0) for u in units) / wall,
        "cycle_ms_p50": 1e3 * p50,
        "cycle_ms_p99": 1e3 * tail,
        "cycle_samples": float(len(latencies)),
        "simulate_s": statistics.median(u.get("simulate_s", 0.0) for u in units),
        "analyze_s": statistics.median(u.get("analyze_s", 0.0) for u in units),
        "cli.log_bytes": statistics.median(u.get("log_bytes", 0) for u in units),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "negdelay" / "__init__.py").is_file():
        print(f"error: no negdelay package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_at_start = os.getloadavg()

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.probe_setup:
        workloads.WORKLOADS[args.workload](0, OUT).prepare()
        return 0
    seed = args.seed % 2**31  # the campaign streams need a non-negative seed

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    setup_samples, setup_chunks = ([], []) if args.trace else measure_setup(args.workload)

    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        wl = workloads.WORKLOADS[args.workload](seed, work)
        wl.write_inputs()
        if tracer:
            with tracer.installed("setup"):
                wl.prepare()
        else:
            wl.prepare()
        if tracer:
            passes, checks = run_passes(wl, args.seconds, tracer=tracer)
            scaled, pass_chunks = [], []
        else:
            with hostspeed.Ticker() as ticker:
                passes, checks = run_passes(wl, args.seconds, ticker=ticker)
            scaled = scaled_passes(passes[False], ticker, wl.REFERENCE)
            pass_chunks = ticker.chunks
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for _, ok, _ in checks if not ok)
    for label, ok, detail in checks:
        if not ok:
            print(f"FAIL {label}: {detail}", file=sys.stderr)
    if tracer:
        untraced = statistics.median(w for w, *_ in passes[False])
        traced = statistics.median(w for w, *_ in passes[True])
        values = layer_metrics(tracer, len(passes[True]))
        values.update(workload_rates(passes[False]))
        values.update(static_counts())
        values["trace.overhead_frac"] = traced / untraced - 1.0
        values["fail_frac"] = failed / len(checks)
    else:
        values = end_to_end(scaled, setup_samples, setup_chunks)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(load_at_start),
        "passes": {
            "untraced_s": [w for w, *_ in passes[False]],
            "traced_s": [w for w, *_ in passes[True]],
            "scaled_s": scaled,
        },
        "setup_samples_s": setup_samples,
        "reference": {
            "nominal_s": hostspeed.NOMINAL_S,
            "pass_chunks_s": pass_chunks,
            "setup_chunks_s": setup_chunks,
        },
    }
    dump = dict(record, result=result)
    if tracer:
        dump["spans"] = tracer.spans
    OUT.mkdir(exist_ok=True)
    (OUT / f"last-{args.workload}-trace{args.trace}.json").write_text(json.dumps(dump))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
