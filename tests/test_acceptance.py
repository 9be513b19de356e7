"""Acceptance gate: one test per shipped claim, run in order.

Every criterion prints a single line

    criterion NN PASS|FAIL <name>: <measured numbers>

before asserting, so a red run still reports everything it measured
(use ``pytest -s`` to see the lines on a green run too).

The Monte Carlo criteria (7, 10) run on pinned seed blocks. Their
gates sit within about one standard error of the population values,
so the seed block is part of the contract; estimator unbiasedness is
covered separately in the estimator tests, which do not pin seeds.
"""

import math
import time
from dataclasses import replace

import numpy as np

from negdelay.analysis import (
    accumulate,
    bootstrap_sigma,
    integral_with_error,
    integrate_trapz,
    integration_window,
    ratio_estimate,
    time_align,
)
from negdelay.excitation import (
    excited_population,
    mean_excitation_time,
    phi0_trace,
    spectral_report,
    transmitted_excitation_time,
)
from negdelay.medium import group_delay, transfer_function
from negdelay.montecarlo import (
    bin_average,
    calibrate_detection,
    fine_signal,
    kappa_enumeration,
    run_campaign,
)
from negdelay.oracle import weak_excitation_trace
from negdelay.pulse import transmission_probability

REDUCED_NOISE = 0.012  # rad; default 0.120 scaled down tenfold


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {verdict} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_conservation_sweep(run):
    t_start = time.perf_counter()
    worst = 0.0
    for sigma_ns in (10.0, 18.0, 27.0, 36.0):
        for od in (0.5, 1.0, 2.0, 3.0, 4.0):
            m = replace(run.medium, od=od)
            sig = fine_signal(m, replace(run.pulse, sigma_rms=sigma_ns * 1e-9))
            budget = (
                m.gamma * excited_population(sig, m).integral()
                + transmission_probability(sig, m)
            )
            worst = max(worst, abs(budget - 1.0))
    elapsed = time.perf_counter() - t_start
    _report(
        1,
        "photon bookkeeping closes",
        worst < 1e-4 and elapsed < 30.0,
        f"max |gamma integral(N_e) + T - 1| = {worst:.2e} over 20 "
        f"(sigma, od) points in {elapsed:.1f} s (gates 1e-4, 30 s)",
    )


def test_criterion_02_analytic_limits(run):
    gamma = run.medium.gamma
    worst_nb = 0.0
    for od in (1.0, 4.0):
        m = replace(run.medium, od=od)
        sig = fine_signal(m, replace(run.pulse, sigma_rms=700e-9))
        got = mean_excitation_time(sig, m)
        worst_nb = max(worst_nb, abs(got * gamma / (1.0 - math.exp(-od)) - 1.0))

    h = 1e-7 * gamma
    fd = (
        np.angle(transfer_function(h, 4.0, gamma))
        - np.angle(transfer_function(-h, 4.0, gamma))
    ) / (2.0 * h)
    closed = group_delay(0.0, 4.0, gamma)
    fd_dev = abs(fd / closed - 1.0)
    anchor_dev = abs(closed / -104e-9 - 1.0)
    _report(
        2,
        "analytic delay limits",
        worst_nb < 1e-3 and fd_dev < 1e-6 and anchor_dev < 1e-9,
        f"narrowband tau_0 off by {worst_nb:.2e} (gate 1e-3); resonant "
        f"group delay {closed * 1e9:.4f} ns vs finite difference off by "
        f"{fd_dev:.2e} (gate 1e-6), -104 ns anchor off by {anchor_dev:.2e}",
    )


def test_criterion_03_reference_operating_point(run, fine_sig):
    primary = spectral_report(fine_sig, run.medium).ratio
    # same nominal 10 ns read as a field rms instead of an intensity rms
    narrower = replace(run.pulse, sigma_rms=run.pulse.sigma_rms / math.sqrt(2.0))
    alt = spectral_report(fine_signal(run.medium, narrower), run.medium).ratio
    _report(
        3,
        "reference ratio at 10 ns and od 4",
        abs(primary - 0.45) <= 0.15,
        f"intensity-rms convention gives {primary:+.4f} (field-rms reading "
        f"would give {alt:+.4f}); gate 0.45 +- 0.15",
    )


def test_criterion_04_sign_structure(run, fine_sig, weak):
    sp_pos = spectral_report(fine_sig, run.medium).ratio
    or_pos = weak.tau_transmitted() / weak.tau_unconditioned()
    m = replace(run.medium, od=3.0)
    sig = fine_signal(m, replace(run.pulse, sigma_rms=36e-9))
    sp_neg = spectral_report(sig, m).ratio
    tr = weak_excitation_trace(sig, m)
    or_neg = tr.tau_transmitted() / tr.tau_unconditioned()
    _report(
        4,
        "delay sign structure",
        sp_pos > 0.0 and or_pos > 0.0 and sp_neg < 0.0 and or_neg < 0.0,
        f"(10 ns, od 4): spectral {sp_pos:+.3f}, collision {or_pos:+.3f} "
        f"(want > 0); (36 ns, od 3): spectral {sp_neg:+.3f}, collision "
        f"{or_neg:+.3f} (want < 0)",
    )


def test_criterion_05_oracle_matches_spectral(run):
    t_start = time.perf_counter()
    worst = 0.0
    for sigma_ns in (10.0, 18.0, 27.0, 36.0):
        for od in (2.0, 3.0, 4.0):
            m = replace(run.medium, od=od)
            sig = fine_signal(m, replace(run.pulse, sigma_rms=sigma_ns * 1e-9))
            tau_sp = transmitted_excitation_time(sig, m)
            tau_or = weak_excitation_trace(sig, m).tau_transmitted()
            tau_0 = mean_excitation_time(sig, m)
            worst = max(worst, abs(tau_or - tau_sp) / abs(tau_0))
    elapsed = time.perf_counter() - t_start
    _report(
        5,
        "collision model matches spectral estimator",
        worst < 0.05,
        f"max |tau_T(model) - tau_T(spectral)| / tau_0 = {worst:.4f} over "
        f"the 12-point grid at 64 emitters (gate 0.05), {elapsed:.1f} s",
    )


def test_criterion_06_quadrature_consistency(run, weak):
    m = replace(run.medium, od=3.0)
    sig36 = fine_signal(m, replace(run.pulse, sigma_rms=36e-9))
    tr36 = weak_excitation_trace(sig36, m)
    devs = []
    for tr in (weak, tr36):
        full = tr.tau_transmitted()
        half = float(np.trapezoid(tr.weak[::2], dx=2.0 * tr.dt))
        devs.append(abs(half / full - 1.0))
    neg = float(tr36.weak.min())
    _report(
        6,
        "weak-trace quadrature consistency",
        max(devs) < 0.01 and neg < 0.0,
        f"2x-decimated integral off by {max(devs):.2e} (gate 1e-2); "
        f"min W = {neg:.3e} at (36 ns, od 3) (want < 0)",
    )


def test_criterion_07_pipeline_closure(run, shapes, cal):
    shot = replace(run.shot, phase_noise_rms=REDUCED_NOISE)
    kap = kappa_enumeration(cal.eta, cal.lam, cal.p_bg)
    window = integration_window(shapes.phi_T1, run.window_fraction)
    target, _ = integrate_trapz(kap * shapes.phi_T1, window, shot.dt)
    pulls = []
    # pinned block: gates are ~1 standard error wide at 100 campaigns
    for seed in range(1000, 1100):
        res = accumulate(run_campaign(seed, 1000, shapes, shot, cal))
        integ = integral_with_error(res.phi_T, res.cov, window, shot.dt)
        pulls.append((integ.value - target) / integ.sigma)
    pulls = np.asarray(pulls)
    mean = float(pulls.mean())
    std = float(pulls.std(ddof=1))
    _report(
        7,
        "pipeline pull closure",
        abs(mean) <= 0.1 and abs(std - 1.0) <= 0.15,
        f"pull mean {mean:+.4f} (gate |0.1|), std {std:.4f} (gate 1 +- "
        f"0.15) over 100 campaigns x 1000 cycles at 12 mrad",
    )


def test_criterion_08_error_model(run, shapes, cal):
    shot = replace(run.shot, phase_noise_rms=REDUCED_NOISE)
    window = integration_window(shapes.phi_T1, run.window_fraction)
    res, diffs = accumulate(
        run_campaign(1000, 1000, shapes, shot, cal), keep_differences=True
    )
    prop = integral_with_error(res.phi_T, res.cov, window, shot.dt).sigma
    boot = bootstrap_sigma(diffs, window, shot.dt, n_resamples=10_000, seed=0)
    dev = abs(prop / boot - 1.0)
    _report(
        8,
        "propagated sigma matches bootstrap",
        dev < 0.10,
        f"J^T M J sigma {prop:.3e}, 1e4-resample bootstrap {boot:.3e}, "
        f"relative gap {dev:.3f} (gate 0.10)",
    )


def test_criterion_09_noise_scaling(run, shapes, cal):
    shot = replace(run.shot, phase_noise_rms=REDUCED_NOISE)
    window = integration_window(shapes.phi_T1, run.window_fraction)
    n_shots, sigmas = [], []
    for i, n_cycles in enumerate((100, 316, 1000, 3162, 10000)):
        res = accumulate(run_campaign(9000 + i, n_cycles, shapes, shot, cal))
        integ = integral_with_error(res.phi_T, res.cov, window, shot.dt)
        _, sig_ratio = ratio_estimate(integ, shapes.phi_01, shot.dt)
        n_shots.append(n_cycles * shot.shots_per_cycle)
        sigmas.append(sig_ratio)
    slope = float(np.polyfit(np.log(n_shots), np.log(sigmas), 1)[0])
    # back to the full 120 mrad floor and out to 1e10 shots; the gate is
    # one order of magnitude around the 0.28 reference uncertainty
    extrap = sigmas[-1] * 10.0 * math.sqrt(n_shots[-1] / 1e10)
    _report(
        9,
        "shot-noise scaling and full-scale forecast",
        abs(slope + 0.5) <= 0.05 and 0.028 <= extrap <= 2.8,
        f"fitted exponent {slope:+.4f} (gate -0.5 +- 0.05) over "
        f"{n_shots[0]:.1e}..{n_shots[-1]:.1e} shots; sigma_ratio forecast "
        f"at 120 mrad and 1e10 shots = {extrap:.3f} (gate 0.028..2.8)",
    )


def test_criterion_10_null_rates(run, shapes, cal):
    shot = replace(run.shot, phase_noise_rms=REDUCED_NOISE)
    window = integration_window(shapes.phi_T1, run.window_fraction)

    def pass_count(kind: str, wobble: float = 0.0) -> int:
        sh = replace(shot, wobble_amplitude=wobble) if wobble else shot
        hits = 0
        # pinned block, same caveat as criterion 7
        for seed in range(100):
            cycles = run_campaign(seed, 150, shapes, sh, cal, mode=kind)
            res = accumulate(cycles)
            integ = integral_with_error(res.phi_T, res.cov, window, sh.dt)
            ratio, sig = ratio_estimate(integ, shapes.phi_01, sh.dt)
            hits += abs(ratio) < 2.0 * sig
        return hits

    counts = {
        kind: pass_count(kind)
        for kind in ("no_atoms", "bypass_atoms", "no_signal")
    }
    wobbled = pass_count("bypass_atoms", wobble=0.09)
    _report(
        10,
        "null datasets pass, wobble variant fails",
        all(v >= 95 for v in counts.values()) and wobbled <= 5,
        f"|ratio| < 2 sigma rates per 100 seeds: {counts} (gate >= 95 "
        f"each); 0.09 rad wobble variant passes {wobbled} (gate <= 5)",
    )


def test_criterion_11_background_dilution(run, shapes):
    shot = replace(run.shot, phase_noise_rms=0.00012)
    window = integration_window(shapes.phi_T1, run.window_fraction)
    amps, kappas = [], []
    for f_bg in (0.0, 0.1):
        cal_f = calibrate_detection(
            shapes.tbar, shot.mean_photons, shot.target_click_prob, f_bg
        )
        kappas.append(kappa_enumeration(cal_f.eta, cal_f.lam, cal_f.p_bg))
        res = accumulate(run_campaign(5, 25_000, shapes, shot, cal_f))
        amps.append(integral_with_error(res.phi_T, res.cov, window, shot.dt).value)
    got = amps[1] / amps[0]
    want = kappas[1] / kappas[0]
    dev = abs(got / want - 1.0)
    _report(
        11,
        "background dilution factor",
        dev < 0.03,
        f"recovered amplitude ratio {got:.4f} vs enumeration factor "
        f"{want:.4f}, off by {dev:.4f} (gate 0.03)",
    )


def test_criterion_12_timestamp_offset(run):
    # the paper's four pulse durations; the traces are noiseless, so the
    # experimental covariance is zero
    offset = 252e-9
    shot = run.shot
    edges = np.arange(shot.n_samples + 1) * shot.dt - shot.pulse_center
    misses = []
    for sigma_ns in (10.0, 18.0, 27.0, 36.0):
        sig = fine_signal(run.medium, replace(run.pulse, sigma_rms=sigma_ns * 1e-9))
        phi0 = phi0_trace(sig, run.medium)
        binned = bin_average(phi0, sig.dt, sig.t0, edges)
        shift, _ = time_align(
            binned,
            np.zeros((shot.n_samples, shot.n_samples)),
            shot.dt,
            phi0,
            sig.dt,
            exp_t0=0.5 * shot.dt + offset,
            theory_t0=sig.t0 + shot.pulse_center,
        )
        misses.append(shift - offset)
    worst = max(map(abs, misses))
    _report(
        12,
        "timestamp offset recovery",
        worst < 0.05e-9,
        "injected 252 ns; missed by "
        + ", ".join(f"{m * 1e9:+.4f}" for m in misses)
        + " ns at 10/18/27/36 ns rms (gate 0.05 ns)",
    )
