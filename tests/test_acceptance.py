"""Acceptance gate: one test per shipped claim, run in order.

Every criterion prints a single line

    criterion NN PASS|FAIL <name>: <measured numbers>

before asserting, so a red run still reports everything it measured
(use ``pytest -rP`` or ``-s`` to see the lines on a green run too).

The statistical criteria (7 to 11) each state their false-alarm rate:
the chance that a correct pipeline fails the gate on a fresh seed block,
computed from population values, at most ``FALSE_ALARM``. No gate rests
on its seeds: criteria 7 and 10 gate the mean and sd of the pulls of
many short campaigns, each pull t-distributed with one degree of freedom
fewer than its campaign has cycles, and every rate is printed with the
criterion's line. ``SEED_BLOCK`` picks the block, set by the
environment variable ``NEGDELAY_SEED_BLOCK`` (default 0); blocks never
share a campaign, and any block must pass.
"""

import math
import os
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
from negdelay.excitation import phi0_trace, spectral_report
from negdelay.medium import conversion_factor, group_delay, transfer_function
from negdelay.montecarlo import (
    bin_average,
    calibrate_detection,
    kappa_enumeration,
    run_campaign,
)
from negdelay.oracle import weak_excitation_trace
from negdelay.pulse import gaussian_field

REDUCED_NOISE = 0.012  # rad; default 0.120 scaled down tenfold

#: seed block of the statistical criteria, from the environment variable
#: NEGDELAY_SEED_BLOCK (default 0). Criterion c of block b draws its
#: campaign seeds from [b * 10**6 + c * 10**5, + 10**5), series s of a
#: criterion from its own 10**4 of those, so neither two criteria nor two
#: blocks share a campaign. Blocks 0, 1 and 2 were fixed before any of
#: them was run.
SEED_BLOCK = int(os.environ.get("NEGDELAY_SEED_BLOCK", "0"))

#: most a statistical criterion may fail a correct pipeline
FALSE_ALARM = 1e-3

#: pull gates of criteria 7 and 10: |mean| and |sd - 1| of the pulls
PULL_MEAN_GATE = 0.1
PULL_SD_GATE = 0.15

#: criterion 7: campaigns and their cycles. A pull from m cycles has sd
#: sqrt((m - 1) / (m - 3)), 1.01 at 100 cycles; the mean gate needs about
#: 1,100 campaigns for a 1e-3 false-alarm rate
CLOSURE_CYCLES = 100
CLOSURE_CAMPAIGNS = 1200

#: criterion 10: each null kind gated as criterion 7, at a third of its
#: rate; the wobble variant needs far fewer campaigns to fail the gate
NULL_KINDS = ("no_atoms", "bypass_atoms", "no_signal")
NULL_CYCLES = 20
NULL_CAMPAIGNS = 1500
WOBBLE = 0.09  # rad
WOBBLED_CAMPAIGNS = 200


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {verdict} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _seeds(criterion: int, count: int, series: int = 0) -> range:
    start = SEED_BLOCK * 10**6 + criterion * 10**5 + series * 10**4
    return range(start, start + count)


def _tail(z: float) -> float:
    """Upper tail of the standard normal."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _pull_gate_false_alarm(n_cycles: int, n_campaigns: int) -> float:
    """Chance that a correct pipeline misses the pull gates. Each pull
    is t-distributed with nu = n_cycles - 1 degrees of freedom: sd
    sqrt(nu / (nu - 2)), excess kurtosis 6 / (nu - 4). The mean and sd of
    n_campaigns pulls are taken as normal about their population values."""
    nu = n_cycles - 1
    sd = math.sqrt(nu / (nu - 2.0))
    sd_of_mean = sd / math.sqrt(n_campaigns)
    sd_of_sd = 0.5 * sd * math.sqrt(
        2.0 / (n_campaigns - 1) + 6.0 / (nu - 4.0) / n_campaigns
    )
    return (
        2.0 * _tail(PULL_MEAN_GATE / sd_of_mean)
        + _tail((1.0 + PULL_SD_GATE - sd) / sd_of_sd)
        + _tail((sd - 1.0 + PULL_SD_GATE) / sd_of_sd)
    )


def _pulls(seeds, n_cycles, shapes, shot, cal, window, target=0.0, mode="normal"):
    """Pull (integral - target) / sigma of the windowed phi_T integral of
    one campaign per seed, and the sigmas."""
    values, sigmas = [], []
    for seed in seeds:
        cycles = run_campaign(seed, n_cycles, shapes, shot, cal, mode=mode)
        res = accumulate(cycles)
        integ = integral_with_error(res.phi_T, res.cov, window, shot.dt)
        values.append(integ.value)
        sigmas.append(integ.sigma)
    sigmas = np.asarray(sigmas)
    return (np.asarray(values) - target) / sigmas, sigmas


def _pull_gate(pulls: np.ndarray) -> tuple[bool, str]:
    mean, sd = float(pulls.mean()), float(pulls.std(ddof=1))
    ok = abs(mean) <= PULL_MEAN_GATE and abs(sd - 1.0) <= PULL_SD_GATE
    return ok, f"pull mean {mean:+.4f}, sd {sd:.4f}"


def test_criterion_01_conservation_sweep(run):
    t_start = time.perf_counter()
    # the 4 x 5 grid, then a deep cloud and a long pulse
    points = [
        (sigma_ns, od)
        for sigma_ns in (10.0, 18.0, 27.0, 36.0)
        for od in (0.5, 1.0, 2.0, 3.0, 4.0)
    ] + [(10.0, 20.0), (300.0, 4.0)]
    worst = 0.0
    for sigma_ns, od in points:
        m = replace(run.medium, od=od)
        sig = gaussian_field(replace(run.pulse, sigma_rms=sigma_ns * 1e-9), m.gamma)
        n_e = phi0_trace(sig, m) / conversion_factor(m)
        budget = (
            m.gamma * np.sum(n_e) * sig.dt
            + spectral_report(sig, m).transmission
        )
        worst = max(worst, abs(budget - 1.0))
    elapsed = time.perf_counter() - t_start
    _report(
        1,
        "photon bookkeeping closes",
        worst < 1e-10 and elapsed < 30.0,
        f"max |gamma integral(N_e) + T - 1| = {worst:.2e} over {len(points)} "
        f"(sigma, od) points in {elapsed:.1f} s (gates 1e-10, 30 s)",
    )


def test_criterion_02_analytic_limits(run):
    gamma = run.medium.gamma
    worst_nb = 0.0
    for od in (1.0, 4.0):
        m = replace(run.medium, od=od)
        sig = gaussian_field(replace(run.pulse, sigma_rms=700e-9), m.gamma)
        got = spectral_report(sig, m).tau_0
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


def _spectral_ratio(sig, medium) -> float:
    """Spectral tau_T / tau_0 at one operating point."""
    rep = spectral_report(sig, medium)
    return rep.tau_T / rep.tau_0


def test_criterion_03_reference_operating_point(run, fine_sig):
    primary = _spectral_ratio(fine_sig, run.medium)
    # same nominal 10 ns read as a field rms instead of an intensity rms
    narrower = replace(run.pulse, sigma_rms=run.pulse.sigma_rms / math.sqrt(2.0))
    alt = _spectral_ratio(gaussian_field(narrower, run.medium.gamma), run.medium)
    _report(
        3,
        "reference ratio at 10 ns and od 4",
        abs(primary - 0.45) <= 0.15,
        f"intensity-rms convention gives {primary:+.4f} (field-rms reading "
        f"would give {alt:+.4f}); gate 0.45 +- 0.15",
    )


def test_criterion_04_sign_structure(run, fine_sig, weak):
    sp_pos = _spectral_ratio(fine_sig, run.medium)
    or_pos = weak.tau_transmitted() / np.trapezoid(weak.population, dx=weak.dt)
    m = replace(run.medium, od=3.0)
    sig = gaussian_field(replace(run.pulse, sigma_rms=36e-9), m.gamma)
    sp_neg = _spectral_ratio(sig, m)
    tr = weak_excitation_trace(sig, m, run.n_atoms)
    or_neg = tr.tau_transmitted() / np.trapezoid(tr.population, dx=tr.dt)
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
            pulse = replace(run.pulse, sigma_rms=sigma_ns * 1e-9)
            sig = gaussian_field(pulse, m.gamma)
            rep = spectral_report(sig, m)
            tau_or = weak_excitation_trace(sig, m, run.n_atoms).tau_transmitted()
            worst = max(worst, abs(tau_or - rep.tau_T) / abs(rep.tau_0))
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
    sig36 = gaussian_field(replace(run.pulse, sigma_rms=36e-9), m.gamma)
    tr36 = weak_excitation_trace(sig36, m, run.n_atoms)
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
    seeds = _seeds(7, CLOSURE_CAMPAIGNS)
    pulls, _ = _pulls(seeds, CLOSURE_CYCLES, shapes, shot, cal, window, target)
    ok, detail = _pull_gate(pulls)
    alarm = _pull_gate_false_alarm(CLOSURE_CYCLES, CLOSURE_CAMPAIGNS)
    _report(
        7,
        "pipeline pull closure",
        ok and alarm <= FALSE_ALARM,
        f"{detail} (gates |0.1|, 1 +- 0.15) over {CLOSURE_CAMPAIGNS} "
        f"campaigns x {CLOSURE_CYCLES} cycles at 12 mrad; false-alarm rate "
        f"{alarm:.1e} (cap {FALSE_ALARM:g})",
    )


def test_criterion_08_error_model(run, shapes, cal):
    shot = replace(run.shot, phase_noise_rms=REDUCED_NOISE)
    window = integration_window(shapes.phi_T1, run.window_fraction)
    (seed,) = _seeds(8, 1)
    n_cycles, n_resamples = 1000, 10_000
    res, diffs = accumulate(
        run_campaign(seed, n_cycles, shapes, shot, cal), keep_differences=True
    )
    prop = integral_with_error(res.phi_T, res.cov, window, shot.dt).sigma
    boot = bootstrap_sigma(diffs, window, shot.dt, n_resamples, seed=seed)
    dev = abs(prop / boot - 1.0)
    # given the cycles, only the resampling is random: the bootstrap sd
    # of near-normal means has relative sd 1 / sqrt(2 (R - 1)) about the
    # ddof=0 scatter, sqrt((m - 1) / m) of the propagated sigma
    bias = math.sqrt(n_cycles / (n_cycles - 1.0)) - 1.0
    spread = 1.0 / math.sqrt(2.0 * (n_resamples - 1))
    alarm = _tail((0.10 - bias) / spread) + _tail((0.10 + bias) / spread)
    _report(
        8,
        "propagated sigma matches bootstrap",
        dev < 0.10 and alarm <= FALSE_ALARM,
        f"J^T M J sigma {prop:.3e}, 1e4-resample bootstrap {boot:.3e}, "
        f"relative gap {dev:.3f} (gate 0.10); false-alarm rate {alarm:.1e}",
    )


def test_criterion_09_noise_scaling(run, shapes, cal):
    shot = replace(run.shot, phase_noise_rms=REDUCED_NOISE)
    window = integration_window(shapes.phi_T1, run.window_fraction)
    cycle_counts = (100, 316, 1000, 3162, 10000)
    n_shots, sigmas = [], []
    for seed, n_cycles in zip(_seeds(9, len(cycle_counts)), cycle_counts):
        res = accumulate(run_campaign(seed, n_cycles, shapes, shot, cal))
        integ = integral_with_error(res.phi_T, res.cov, window, shot.dt)
        _, sig_ratio = ratio_estimate(integ, shapes.phi_01, shot.dt)
        n_shots.append(n_cycles * shot.shots_per_cycle)
        sigmas.append(sig_ratio)
    slope = float(np.polyfit(np.log(n_shots), np.log(sigmas), 1)[0])
    # back to the full 120 mrad floor and out to 1e10 shots; the gate is
    # one order of magnitude around the 0.28 reference uncertainty
    extrap = sigmas[-1] * 10.0 * math.sqrt(n_shots[-1] / 1e10)
    # the log of a sigma estimated from m near-normal cycles has sd
    # 1 / sqrt(2 (m - 1)); the fitted slope weighs those by its leverage
    log_n = np.log(n_shots)
    lever = (log_n - log_n.mean()) / np.sum((log_n - log_n.mean()) ** 2)
    slope_sd = math.sqrt(
        sum(w**2 / (2.0 * (m - 1)) for w, m in zip(lever, cycle_counts))
    )
    log_sd = 1.0 / math.sqrt(2.0 * (cycle_counts[-1] - 1))
    alarm = (
        2.0 * _tail(0.05 / slope_sd)
        + _tail(math.log(2.8 / extrap) / log_sd)
        + _tail(math.log(extrap / 0.028) / log_sd)
    )
    _report(
        9,
        "shot-noise scaling and full-scale forecast",
        abs(slope + 0.5) <= 0.05
        and 0.028 <= extrap <= 2.8
        and alarm <= FALSE_ALARM,
        f"fitted exponent {slope:+.4f} (gate -0.5 +- 0.05) over "
        f"{n_shots[0]:.1e}..{n_shots[-1]:.1e} shots; sigma_ratio forecast "
        f"at 120 mrad and 1e10 shots = {extrap:.3f} (gate 0.028..2.8); "
        f"false-alarm rate {alarm:.1e}",
    )


def test_criterion_10_null_rates(run, shapes, cal):
    shot = replace(run.shot, phase_noise_rms=REDUCED_NOISE)
    window = integration_window(shapes.phi_T1, run.window_fraction)
    details, passed = [], []
    for series, kind in enumerate(NULL_KINDS):
        seeds = _seeds(10, NULL_CAMPAIGNS, series)
        pulls, _ = _pulls(seeds, NULL_CYCLES, shapes, shot, cal, window, mode=kind)
        ok, detail = _pull_gate(pulls)
        passed.append(ok)
        details.append(f"{kind} {detail}")
    alarm = len(NULL_KINDS) * _pull_gate_false_alarm(NULL_CYCLES, NULL_CAMPAIGNS)

    # the wobble variant must fail the same gate. Its ripple moves with
    # the photon number, and at full transmission the clicked shots hold
    # kappa more photons than the silent ones, so the expected integral
    # is kappa / mu times the ripple's
    wobbled = replace(shot, wobble_amplitude=WOBBLE)
    seeds = _seeds(10, WOBBLED_CAMPAIGNS, len(NULL_KINDS))
    pulls, sigmas = _pulls(
        seeds, NULL_CYCLES, shapes, wobbled, cal, window, mode="bypass_atoms"
    )
    caught = not _pull_gate(pulls)[0]
    kap = kappa_enumeration(cal.eta, wobbled.mean_photons, cal.p_bg)
    ripple = WOBBLE * np.sin(
        2.0 * np.pi * wobbled.wobble_frequency * wobbled.sample_times()
        + wobbled.wobble_phase
    )
    expected, _ = integrate_trapz(
        kap / wobbled.mean_photons * ripple, window, wobbled.dt
    )
    shift = expected / float(np.mean(sigmas))
    # the chance that the wobbled mean pull lands inside the mean gate,
    # margin standard errors away
    margin = (
        (abs(shift) - PULL_MEAN_GATE)
        * math.sqrt(WOBBLED_CAMPAIGNS)
        / float(pulls.std(ddof=1))
    )
    miss = _tail(margin)
    _report(
        10,
        "null datasets pass, wobble variant fails",
        all(passed) and caught and alarm + miss <= FALSE_ALARM,
        f"{'; '.join(details)} over {NULL_CAMPAIGNS} campaigns x "
        f"{NULL_CYCLES} cycles each (gates |0.1|, 1 +- 0.15); "
        f"{WOBBLE} rad wobble variant: expected pull shift {shift:+.2f}, "
        f"mean pull {pulls.mean():+.2f} over {WOBBLED_CAMPAIGNS} campaigns "
        f"(must fail), {margin:.0f} standard errors past the mean gate, "
        f"power 1 - {miss:.1e}; false-alarm rate "
        f"{alarm + miss:.1e} (cap {FALSE_ALARM:g})",
    )


def test_criterion_11_background_dilution(run, shapes):
    shot = replace(run.shot, phase_noise_rms=0.00012)
    window = integration_window(shapes.phi_T1, run.window_fraction)
    (seed,) = _seeds(11, 1)
    n_cycles = 25_000
    amps, per_cycle, kappas = [], [], []
    for f_bg in (0.0, 0.1):
        cal_f = calibrate_detection(
            shapes.tbar, shot.mean_photons, shot.target_click_prob, f_bg
        )
        kappas.append(kappa_enumeration(cal_f.eta, cal_f.lam, cal_f.p_bg))
        res, diffs = accumulate(
            run_campaign(seed, n_cycles, shapes, shot, cal_f),
            keep_differences=True,
        )
        value, jac = integrate_trapz(res.phi_T, window, shot.dt)
        amps.append(value)
        per_cycle.append(diffs @ jac / value)
    got = amps[1] / amps[0]
    want = kappas[1] / kappas[0]
    dev = abs(got / want - 1.0)
    # both campaigns draw from one seed, cycle by cycle, so their
    # amplitudes move together: the ratio's relative sd is that of the
    # paired per-cycle relative amplitudes, over sqrt(cycles)
    rel_sd = float(np.std(per_cycle[1] - per_cycle[0], ddof=1))
    alarm = 2.0 * _tail(0.03 * math.sqrt(n_cycles) / rel_sd)
    _report(
        11,
        "background dilution factor",
        dev < 0.03 and alarm <= FALSE_ALARM,
        f"recovered amplitude ratio {got:.4f} vs enumeration factor "
        f"{want:.4f}, off by {dev:.4f} (gate 0.03) over 2 x {n_cycles} "
        f"cycles; false-alarm rate {alarm:.1e}",
    )


def test_criterion_12_timestamp_offset(run):
    # the paper's four pulse durations; the traces are noiseless, so the
    # experimental covariance is zero
    offset = 252e-9
    shot = run.shot
    edges = np.arange(shot.n_samples + 1) * shot.dt - shot.pulse_center
    misses = []
    for sigma_ns in (10.0, 18.0, 27.0, 36.0):
        pulse = replace(run.pulse, sigma_rms=sigma_ns * 1e-9)
        sig = gaussian_field(pulse, run.medium.gamma)
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
