"""The benchmark's three workloads.

Each workload has

* ``prepare()``: the program's one-time set-up (import and config; for
  ``campaign`` also the shape derivation and detection calibration).
  ``setup_s`` times it in fresh interpreters;
* ``run_pass(index, tracer)``: one pass of the workload's fixed work
  through the public API, returning what its check needs. ``wall_s``
  times it;
* ``check(out)``: the correctness checks of that pass, one
  ``(operation, ok, detail)`` for each of its ``OPS`` operations. An
  operation is one CLI invocation, one sweep point or one campaign.
* ``REFERENCE``: the shares of python loops, in-cache numpy and deflate
  in a pass, with which ``hostspeed.scale`` takes its time to the
  reference host speed.

Every input derives from the seed alone.
"""

from __future__ import annotations

import csv
import math
import random
import shutil
import time
import traceback
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

from negdelay import analysis, cli, config, montecarlo

#: the acceptance gate's reduced per-sample phase noise, rad
REDUCED_NOISE = 0.012
#: criterion 5's gate on |tau_T(oracle) - tau_T(spectral)| / tau_0
ROUTE_GAP = 0.05
#: a campaign's pull against the kappa-scaled theory integral, in sigma
PULL_LIMIT = 5.0
#: propagated sigma against the bootstrap (criterion 8)
BOOTSTRAP_GAP = 0.10
#: analyze against the in-memory reduction, in units of sigma_urad
REDUCTION_GAP = 1e-6
NULL_KIND = "bypass_atoms"


def run_cli(argv: list[str], tracer=None):
    """One in-process CLI command: (exit code or error text, seconds)."""
    argv = [str(a) for a in argv]
    start = time.perf_counter()
    with tracer.span(f"cli.{argv[0]}") if tracer else nullcontext():
        try:
            code = cli.main(argv)
        except Exception:
            code = traceback.format_exc(limit=3)
    return code, time.perf_counter() - start


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _failed(code) -> str | None:
    return None if code == 0 else f"command failed: {code}"


class Theory:
    """CLI ``theory`` at defaults, then CLI ``sweep`` over
    sigma_rms {10, 36, 150} ns x od {2, 4}; the seed orders the axes."""

    name = "theory"
    SIGMAS_NS = (10.0, 36.0, 150.0)
    ODS = (2.0, 4.0)
    #: sign of tau_T the paper's picture predicts, where it is robust
    SIGN = {(10.0, 4.0): 1, (36.0, 2.0): -1, (36.0, 4.0): -1,
            (150.0, 2.0): -1, (150.0, 4.0): -1}
    OPS = 1 + len(SIGMAS_NS) * len(ODS)
    #: mix of a pass for ``hostspeed.scale``: the oracle's python loops
    REFERENCE = {"python": 1.0}

    def __init__(self, seed: int, work: Path):
        rng = random.Random(seed)
        self.sigmas = rng.sample(self.SIGMAS_NS, len(self.SIGMAS_NS))
        self.ods = rng.sample(self.ODS, len(self.ODS))
        self.work = work
        self.sweep_config = work / "sweep.cfg"

    def write_inputs(self) -> None:
        self.sweep_config.write_text(
            f"sweep.sigma_rms_ns = {', '.join(map(str, self.sigmas))}\n"
            f"sweep.od = {', '.join(map(str, self.ods))}\n"
        )

    def prepare(self) -> None:
        config.default_config()

    def run_pass(self, index: int, tracer=None) -> dict:
        out = self.work / f"pass{index}"
        theory, _ = run_cli(["theory", "--out", out / "theory"], tracer)
        sweep, _ = run_cli(
            ["sweep", "--out", out / "sweep", "--config", self.sweep_config],
            tracer,
        )
        return {"dir": out, "theory": theory, "sweep": sweep}

    @staticmethod
    def _gap(tau0: float, spectral: float, oracle: float) -> float:
        return abs(oracle - spectral) / abs(tau0)

    def check(self, out: dict) -> list[tuple[str, bool, str]]:
        results = []
        err = _failed(out["theory"])
        if err is None:
            rows = {r["method"]: r for r in read_csv(out["dir"] / "theory/summary.csv")}
            spec, orac = rows["spectral"], rows["oracle"]
            gap = self._gap(
                float(spec["tau0_ns"]), float(spec["tauT_ns"]), float(orac["tauT_ns"])
            )
            positive = float(spec["ratio"]) > 0.0 and float(orac["ratio"]) > 0.0
            ok = gap < ROUTE_GAP and positive
            results.append(("theory", ok, f"route gap {gap:.4f}, ratio > 0: {positive}"))
        else:
            results.append(("theory", False, err))

        err = _failed(out["sweep"])
        rows = {}
        if err is None:
            for r in read_csv(out["dir"] / "sweep/sweep.csv"):
                rows[(float(r["sigma_rms_ns"]), float(r["od"]))] = r
        for sigma in self.SIGMAS_NS:
            for od in self.ODS:
                label = f"sweep {sigma:g} ns od {od:g}"
                r = rows.get((sigma, od))
                if r is None:
                    results.append((label, False, err or "row missing"))
                    continue
                gap = self._gap(
                    float(r["tau0_ns"]),
                    float(r["tauT_spectral_ns"]),
                    float(r["tauT_oracle_ns"]),
                )
                want = self.SIGN.get((sigma, od))
                signs = {
                    int(math.copysign(1, float(r["ratio_spectral"]))),
                    int(math.copysign(1, float(r["ratio_oracle"]))),
                }
                ok = gap < ROUTE_GAP and (want is None or signs == {want})
                results.append((label, ok, f"route gap {gap:.4f}, signs {signs}"))
        return results

    def work_units(self, out: dict) -> dict:
        return {"points": self.OPS}


class Campaign:
    """One shape derivation and calibration, then per pass four
    independent-seed campaigns at 12 mrad (two ``normal``, two
    ``bypass_atoms``), each accumulate -> window -> integral -> ratio,
    and one 1e4-resample bootstrap on the first campaign's differences."""

    name = "campaign"
    CYCLES = 400
    MODES = ("normal", "normal", NULL_KIND, NULL_KIND)
    OPS = len(MODES)
    RESAMPLES = 10_000
    #: mix of a pass for ``hostspeed.scale``: the sampler and the
    #: statistics on 1500 x 36 shot matrices
    REFERENCE = {"numpy": 1.0}

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def write_inputs(self) -> None:
        pass

    def prepare(self) -> None:
        run = config.default_config()
        self.run = run
        self.shapes = montecarlo.derive_shapes(
            run.medium,
            run.pulse,
            run.shot,
            n_atoms=run.n_atoms,
            snap_every=run.checkpoint_interval,
        )
        self.cal = montecarlo.calibrate_detection(
            self.shapes.tbar,
            run.shot.mean_photons,
            run.shot.target_click_prob,
            run.shot.background_click_fraction,
        )
        self.shot = replace(run.shot, phase_noise_rms=REDUCED_NOISE)

    def _campaign_seed(self, index: int, i: int) -> int:
        return (self.seed * 1000 + index) * len(self.MODES) + i

    def run_pass(self, index: int, tracer=None) -> dict:
        latencies: list[float] = []
        campaigns = []
        diffs = window = None
        for i, mode in enumerate(self.MODES):
            try:
                cycles = _timed(
                    montecarlo.run_campaign(
                        self._campaign_seed(index, i),
                        self.CYCLES,
                        self.shapes,
                        self.shot,
                        self.cal,
                        mode=mode,
                    ),
                    latencies,
                )
                res = analysis.accumulate(cycles, keep_differences=i == 0)
                if i == 0:
                    res, diffs = res
                window = analysis.integration_window(
                    self.shapes.phi_T1, self.run.window_fraction
                )
                integ = analysis.integral_with_error(
                    res.phi_T, res.cov, window, self.shot.dt
                )
                ratio, sigma = analysis.ratio_estimate(
                    integ, self.shapes.phi_01, self.shot.dt
                )
                campaigns.append((mode, window, integ, ratio, sigma))
            except Exception:
                campaigns.append((mode, traceback.format_exc(limit=3)))
        boot = None
        if diffs is not None:
            try:
                boot = analysis.bootstrap_sigma(
                    diffs,
                    window,
                    self.shot.dt,
                    n_resamples=self.RESAMPLES,
                    seed=self._campaign_seed(index, 0),
                )
            except Exception:
                boot = traceback.format_exc(limit=3)
        return {"campaigns": campaigns, "bootstrap": boot, "latencies": latencies}

    def check(self, out: dict) -> list[tuple[str, bool, str]]:
        kappa = montecarlo.kappa_enumeration(self.cal.eta, self.cal.lam, self.cal.p_bg)
        results = []
        for i, entry in enumerate(out["campaigns"]):
            label = f"campaign {i} {entry[0]}"
            if len(entry) == 2:
                results.append((label, False, entry[1]))
                continue
            mode, window, integ, ratio, sigma = entry
            target = 0.0
            if mode == "normal":
                target, _ = analysis.integrate_trapz(
                    kappa * self.shapes.phi_T1, window, self.shot.dt
                )
            finite = all(map(math.isfinite, (integ.value, integ.sigma, ratio, sigma)))
            pull = (integ.value - target) / integ.sigma if integ.sigma > 0 else math.inf
            ok = finite and abs(pull) < PULL_LIMIT
            detail = f"pull {pull:+.3f}"
            if i == 0:
                boot = out["bootstrap"]
                if isinstance(boot, float):
                    gap = abs(integ.sigma / boot - 1.0)
                    ok = ok and gap < BOOTSTRAP_GAP
                    detail += f", propagated/bootstrap - 1 = {gap:.4f}"
                else:
                    ok = False
                    detail += f", bootstrap failed: {boot}"
            results.append((label, ok, detail))
        return results

    def work_units(self, out: dict) -> dict:
        shots = len(out["campaigns"]) * self.CYCLES * self.shot.shots_per_cycle
        return {"shots": shots, "latencies": out["latencies"]}


class ShotLog:
    """CLI ``simulate`` at three times the default ``campaign.n_cycles``,
    CLI ``analyze`` of that log, then one CLI ``nullcheck`` at defaults."""

    name = "shotlog"
    CYCLE_FACTOR = 3
    OPS = 3
    #: mix of a pass for ``hostspeed.scale``, from the traced run: the
    #: oracle in four shape derivations takes about 80%, the sampler and
    #: the log's zip I/O about 10% each
    REFERENCE = {"python": 0.8, "numpy": 0.1, "deflate": 0.1}

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.log_config = work / "log.cfg"

    def write_inputs(self) -> None:
        self.n_cycles = self.CYCLE_FACTOR * config.default_config().n_cycles
        self.log_config.write_text(f"campaign.n_cycles = {self.n_cycles}\n")
        # reference shapes for the in-memory reduction the check compares
        # analyze against; built by the benchmark, outside any timing
        run = config.load_config(self.log_config)
        self.run = run
        self.shapes = montecarlo.derive_shapes(
            run.medium,
            run.pulse,
            run.shot,
            n_atoms=run.n_atoms,
            snap_every=run.checkpoint_interval,
        )
        self.cal = montecarlo.calibrate_detection(
            self.shapes.tbar,
            run.shot.mean_photons,
            run.shot.target_click_prob,
            run.shot.background_click_fraction,
        )

    def prepare(self) -> None:
        config.default_config()

    def run_pass(self, index: int, tracer=None) -> dict:
        out = self.work / f"pass{index}"
        seed = self.seed * 1000 + index
        log = out / "log" / "shots.npz"
        simulate, simulate_s = run_cli(
            ["simulate", "--out", log.parent, "--config", self.log_config,
             "--seed", seed],
            tracer,
        )
        log_bytes = log.stat().st_size if log.exists() else 0
        analyze, analyze_s = run_cli(
            ["analyze", "--out", out / "analyze", "--config", self.log_config,
             "--log", log],
            tracer,
        )
        nullcheck, _ = run_cli(
            ["nullcheck", "--out", out / "null", "--kind", NULL_KIND,
             "--seed", seed],
            tracer,
        )
        return {
            "dir": out,
            "seed": seed,
            "simulate": simulate,
            "analyze": analyze,
            "nullcheck": nullcheck,
            "simulate_s": simulate_s,
            "analyze_s": analyze_s,
            "log_bytes": log_bytes,
        }

    def check(self, out: dict) -> list[tuple[str, bool, str]]:
        results = []
        err = _failed(out["simulate"])
        ok = err is None and out["log_bytes"] > 0
        results.append(("simulate", ok, err or f"{out['log_bytes']} log bytes"))

        err = _failed(out["analyze"])
        if err is None:
            ref = analysis.accumulate(
                montecarlo.run_campaign(
                    out["seed"], self.n_cycles, self.shapes, self.run.shot, self.cal
                )
            )
            rows = read_csv(out["dir"] / "analyze/phiT_measured.csv")
            got = np.array([float(r["phi_urad"]) for r in rows])
            sig = np.array([float(r["sigma_urad"]) for r in rows])
            gap = float(np.max(np.abs(got - ref.phi_T * 1e6) / sig))
            ratio = read_csv(out["dir"] / "analyze/ratio.csv")[0]
            shots = int(ratio["n_click"]) + int(ratio["n_noclick"])
            want = self.n_cycles * self.run.shot.shots_per_cycle
            ok = gap < REDUCTION_GAP and shots == want
            results.append(
                ("analyze", ok, f"max |phi_T - in-memory| / sigma {gap:.2e}, "
                 f"{shots} shots of {want}")
            )
        else:
            results.append(("analyze", False, err))

        err = _failed(out["nullcheck"])
        if err is None:
            row = read_csv(out["dir"] / "null/ratio.csv")[0]
            ratio, sigma = float(row["ratio"]), float(row["sigma"])
            consistent = "pass" in row and row["pass"] == (
                "1" if abs(ratio) < 2.0 * sigma else "0"
            )
            ok = consistent and math.isfinite(ratio) and sigma > 0.0
            results.append(("nullcheck", ok, f"pass column {row.get('pass')}"))
        else:
            results.append(("nullcheck", False, err))
        shutil.rmtree(out, ignore_errors=True)
        return results

    def work_units(self, out: dict) -> dict:
        shots_per_cycle = self.run.shot.shots_per_cycle
        default_cycles = self.n_cycles // self.CYCLE_FACTOR
        return {
            "shots": (self.n_cycles + default_cycles) * shots_per_cycle,
            "simulate_s": out["simulate_s"],
            "analyze_s": out["analyze_s"],
            "log_bytes": out["log_bytes"],
        }


def _timed(cycles, latencies: list[float]):
    """Pass cycles through, recording the time from asking for each cycle
    to asking for the next: simulate_cycle plus the consumer's add_cycle."""
    start = time.perf_counter()
    for cyc in cycles:
        yield cyc
        now = time.perf_counter()
        latencies.append(now - start)
        start = now


WORKLOADS = {w.name: w for w in (Theory, Campaign, ShotLog)}
