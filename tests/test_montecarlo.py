"""Shot-level simulation: conditioning factor, detection calibration,
draw-order reproducibility and the statistical closure of the generator."""

import hashlib
import itertools
import math
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from negdelay import montecarlo
from negdelay.analysis import (
    accumulate,
    class_sums,
    integral_with_error,
    integrate_trapz,
    integration_window,
    ratio_estimate,
)
from negdelay.config import default_config
from negdelay.errors import ConfigError
from negdelay.montecarlo import (
    DetectionCalibration,
    PerPhotonShapes,
    bin_average,
    calibrate_detection,
    derive_shapes,
    kappa_enumeration,
    run_campaign,
    simulate_cycle,
)


# ---------------------------------------------------------------- kappa

def _kappa_closed_form(eta, lam, p_bg):
    """Reference for kappa_enumeration: lam eta / P(click)."""
    p_click = 1.0 - (1.0 - p_bg) * math.exp(-lam * eta)
    if p_click == 0.0:
        return 1.0  # eta -> 0 limit with no background
    return lam * eta / p_click


# lam * eta stays below ~3 so that P(no click) keeps several digits;
# past that the 1 - p cancellation in the sum dominates and the
# comparison would only measure rounding, not the identity
@pytest.mark.parametrize(
    "eta, lam",
    [(0.01, 0.5), (0.01, 40.0), (0.1, 5.0), (0.1, 20.0), (0.5, 0.5), (0.5, 5.0)],
)
@pytest.mark.parametrize("p_bg", [0.0, 0.02, 0.1])
def test_kappa_routes_agree(eta, lam, p_bg):
    closed = _kappa_closed_form(eta, lam, p_bg)
    summed = kappa_enumeration(eta, lam, p_bg)
    assert summed == pytest.approx(closed, rel=1e-12)


def test_kappa_at_default_operating_point(cal):
    summed = kappa_enumeration(cal.eta, cal.lam, cal.p_bg)
    assert summed == pytest.approx(1.0147042199834502, rel=1e-13)
    closed = _kappa_closed_form(cal.eta, cal.lam, cal.p_bg)
    assert closed == pytest.approx(1.0147042199834517, rel=1e-13)


def test_kappa_without_background(run, shapes, cal):
    """With no backgrounds the factor closes to x/(1 - e^-x) at the
    click target, i.e. 5 ln(1.25) for a 20% target."""
    cal0 = calibrate_detection(
        shapes.tbar, run.shot.mean_photons, run.shot.target_click_prob, 0.0
    )
    k0 = kappa_enumeration(cal0.eta, cal0.lam, cal0.p_bg)
    assert k0 == pytest.approx(1.1157177565710938, rel=1e-13)
    assert k0 == pytest.approx(5.0 * math.log(1.25), rel=1e-10)
    k = kappa_enumeration(cal.eta, cal.lam, cal.p_bg)
    assert k / k0 == pytest.approx(0.9094631809947294, rel=1e-12)


def test_kappa_limits():
    assert kappa_enumeration(1e-9, 20.0, 0.0) == pytest.approx(1.0, abs=1e-7)
    # eta -> 0 with no background: defined as the limit value
    assert kappa_enumeration(0.0, 20.0, 0.0) == 1.0


def test_kappa_enumeration_guards():
    # mass beyond n_max on the rising side of the pmf
    with pytest.raises(ConfigError, match="tail"):
        kappa_enumeration(0.01, 300.0, 0.0)
    # exp(-lam) underflows; must not silently return the limit value
    with pytest.raises(ConfigError, match="tail"):
        kappa_enumeration(0.01, 900.0, 0.0)
    with pytest.raises(ConfigError, match=">= 0"):
        kappa_enumeration(0.1, -1.0, 0.0)


# ---------------------------------------------- detection calibration

def test_calibration_solves_click_budget():
    cal = calibrate_detection(0.2, 100.0, 0.2, 0.0)
    assert cal.eta == pytest.approx(math.log(1.25) / 20.0, rel=1e-12)
    assert cal.p_bg == 0.0
    cal = calibrate_detection(0.2, 100.0, 0.2, 0.1)
    assert cal.p_bg == pytest.approx(0.02, rel=1e-15)
    assert cal.eta == pytest.approx(math.log(0.98 / 0.8) / 20.0, rel=1e-12)
    # either way the budget closes
    for c in (cal,):
        p = 1.0 - (1.0 - c.p_bg) * math.exp(-c.lam * c.eta)
        assert p == pytest.approx(0.2, rel=1e-12)


def test_calibration_zero_target():
    cal = calibrate_detection(0.5, 100.0, 0.0, 0.1)
    assert cal.eta == 0.0 and cal.p_bg == 0.0


@pytest.mark.parametrize(
    "args, msg",
    [
        ((0.0, 100.0, 0.2, 0.1), "transmission"),
        ((1.1, 100.0, 0.2, 0.1), "transmission"),
        ((0.5, 100.0, 0.2, 1.0), "background click fraction"),
        ((1.0, 0.1, 0.9, 0.0), "needs eta"),
        ((1.0, 0.0, 0.2, 0.0), "unreachable"),
    ],
)
def test_calibration_guards(args, msg):
    with pytest.raises(ConfigError, match=msg):
        calibrate_detection(*args)


# ------------------------------------------------- statistical closure

def test_click_rate_hits_target(run, shapes, cal):
    total = clicked = 0
    for cyc in run_campaign(11, 667, shapes, run.shot, cal):
        clicked += int(cyc.clicked.sum())
        total += cyc.clicked.size
    assert abs(clicked / total - run.shot.target_click_prob) < 0.002


def test_background_share_of_clicks(run, shapes, cal):
    clicked = bg = 0
    for cyc in run_campaign(3, 200, shapes, run.shot, cal):
        clicked += int(cyc.clicked.sum())
        bg += int(cyc.background_clicked.sum())
    assert abs(bg / clicked - run.shot.background_click_fraction) < 0.01


def test_unconditioned_mean_trace(run, shapes, cal):
    """Averaged over all shots the trace is mu * phi_01 regardless of
    post-selection."""
    config = replace(run.shot, phase_noise_rms=0.001)
    total = np.zeros(config.n_samples)
    shots = 0
    for cyc in run_campaign(5, 150, shapes, config, cal, traces=True):
        total += cyc.traces.sum(axis=0)
        shots += cyc.traces.shape[0]
    dev = total / shots - config.mean_photons * shapes.phi_01
    assert np.abs(dev).max() < 1.5e-5


@pytest.mark.parametrize("kind", ["no_atoms", "bypass_atoms"])
def test_null_clicks_at_full_transmission(run, shapes, cal, kind):
    clicked = total = 0
    for cyc in run_campaign(17, 100, shapes, run.shot, cal, mode=kind):
        clicked += int(cyc.clicked.sum())
        total += cyc.clicked.size
    expected = 1.0 - (1.0 - cal.p_bg) * math.exp(
        -run.shot.mean_photons * cal.eta
    )
    assert abs(clicked / total - expected) < 0.005


def test_no_signal_clicks_are_background_only(run, shapes, cal):
    clicked = total = transmitted = 0
    for cyc in run_campaign(19, 100, shapes, run.shot, cal, mode="no_signal"):
        clicked += int(cyc.clicked.sum())
        total += cyc.clicked.size
        transmitted += int(cyc.n_transmitted.sum())
    assert transmitted == 0
    assert abs(clicked / total - cal.p_bg) < 0.002


def test_no_signal_requires_backgrounds(run, shapes):
    cal0 = calibrate_detection(shapes.tbar, 100.0, 0.2, 0.0)
    with pytest.raises(ConfigError, match="background"):
        list(run_campaign(0, 1, shapes, run.shot, cal0, mode="no_signal"))


def test_unknown_kind_and_mode(run, shapes, cal):
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError, match="unknown mode"):
        simulate_cycle(rng, shapes, run.shot, cal, mode="weird")


# --------------------------------------------------- reproducibility

def test_draw_order_contract(run, shapes, cal):
    """Frozen digest over the integer outcomes of one cycle, the same
    whether the cycle keeps its traces or only its class sums, and frozen
    leading values of its class sums and of its traces. Any change to the
    draw order or distribution parameters will move them."""
    config = replace(run.shot, shots_per_cycle=64)
    for traces in (False, True):
        rng = np.random.default_rng([7, 0])
        cyc = simulate_cycle(rng, shapes, config, cal, traces=traces)
        h = hashlib.sha256()
        for arr in (
            cyc.clicked,
            cyc.n_transmitted,
            cyc.n_scattered,
            cyc.background_clicked,
        ):
            h.update(np.ascontiguousarray(arr).tobytes())
        assert h.hexdigest()[:16] == "4f35d5cc6372f3fb", traces
        if not traces:
            np.testing.assert_allclose(
                cyc.sums[:, 0], [-0.4687328027876195, -0.05024715009127998],
                rtol=1e-10,
            )
    np.testing.assert_allclose(
        cyc.traces[0, :3],
        [-0.10126397636374257, 0.009421802673478377, -0.20324102891811824],
        rtol=1e-10,
    )


def _assert_same_cycles(got, want, traces):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if traces:
            assert np.array_equal(a.traces, b.traces)
        else:
            assert np.array_equal(a.sums, b.sums)
            assert a.counts == b.counts
        assert np.array_equal(a.clicked, b.clicked)
        assert np.array_equal(a.n_transmitted, b.n_transmitted)
        assert np.array_equal(a.n_scattered, b.n_scattered)
        assert np.array_equal(a.background_clicked, b.background_clicked)


def test_thread_fanout_is_invisible(run, shapes, cal, monkeypatch):
    """A pooled per-shot campaign (three usable CPUs), a serial one (one
    CPU) and a class-sum campaign each equal direct per-cycle calls of
    simulate_cycle on default_rng([seed, c]), over enough cycles to
    slide the in-flight window several times, with the wobble and the
    low-pass off and on."""
    plain = replace(run.shot, shots_per_cycle=40)
    injected = replace(
        plain, wobble_amplitude=1e-4, wobble_phase=0.3, lowpass_enabled=True
    )
    for mode, config in itertools.product(
        ("normal", "bypass_atoms"), (plain, injected)
    ):
        for traces in (False, True):
            direct = [
                simulate_cycle(
                    np.random.default_rng([2, c]),
                    shapes,
                    config,
                    cal,
                    mode=mode,
                    traces=traces,
                )
                for c in range(21)
            ]
            for cpus in (1, 3) if traces else (3,):
                monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
                campaign = list(
                    run_campaign(
                        2, 21, shapes, config, cal, mode=mode, traces=traces
                    )
                )
                _assert_same_cycles(campaign, direct, traces)


def _injected(shot):
    """The default shot config, with a wobble ripple, and low-passed."""
    return {
        "default": shot,
        "wobble": replace(shot, wobble_amplitude=1e-4, wobble_phase=0.3),
        "lowpass": replace(shot, lowpass_enabled=True),
    }


def _cycle_peak(rng, shapes, config, cal, traces):
    """The cycle and the peak bytes allocated while it was drawn, after
    one warm-up cycle."""
    warm = np.random.default_rng([7, 0])
    simulate_cycle(warm, shapes, config, cal, traces=traces)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        cyc = simulate_cycle(rng, shapes, config, cal, traces=traces)
        return cyc, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cycle_holds_two_cycle_sized_arrays(run, shapes, cal):
    """A cycle drawn with its traces holds at most two cycle-sized arrays
    at once: the noise matrix, which becomes the traces, and the product
    that adds every photon term and the conditioning shift at once, while
    the low-pass filters in place. numpy's buffers, the per-shot vectors
    and their coefficient columns add under half a cycle's traces."""
    for name, config in _injected(run.shot).items():
        rng = np.random.default_rng([7, 1])
        cyc, peak = _cycle_peak(rng, shapes, config, cal, traces=True)
        assert cyc.traces.shape == (config.shots_per_cycle, config.n_samples)
        assert peak <= 2.5 * cyc.traces.nbytes, (name, peak, cyc.traces.nbytes)


def test_reduced_cycle_holds_only_the_noise_matrix(run, shapes, cal):
    """A cycle reduced to its class sums draws its noise matrix as those
    sums, 2 x n_samples, and holds no cycle-sized array: the per-shot
    vectors, their coefficient columns and the class rows add under half
    a cycle's traces."""
    trace_bytes = 8 * run.shot.shots_per_cycle * run.shot.n_samples
    for name, config in _injected(run.shot).items():
        rng = np.random.default_rng([7, 1])
        cyc, peak = _cycle_peak(rng, shapes, config, cal, traces=False)
        assert cyc.traces is None
        assert cyc.sums.shape == (2, config.n_samples)
        assert peak <= 0.5 * trace_bytes, (name, peak, trace_bytes)


def _term_by_term_traces(rng, shapes, config, cal):
    """The cycle's traces drawn in the sampler's order and formed term by
    term (conditioned noise, transmitted, scattered, ripple) from
    separate temporaries, with a separate low-pass output."""
    mu, shots = config.mean_photons, config.shots_per_cycle
    n_t = rng.poisson(mu * shapes.tbar, shots)
    n_s = rng.poisson(mu * (1.0 - shapes.tbar), shots)
    n_det = rng.binomial(n_t, cal.eta)
    clicked = (n_det > 0) | (rng.random(shots) < cal.p_bg)
    n_ph = n_t + n_s
    sums = rng.standard_normal((2, config.n_samples))
    noise = rng.standard_normal((config.shots_per_cycle, config.n_samples))
    for row, members in enumerate((clicked, ~clicked)):
        n = np.count_nonzero(members)
        shots = noise[members]
        noise[members] = shots - shots.mean(axis=0) + sums[row] / math.sqrt(n)
    traces = config.phase_noise_rms * noise
    traces += np.multiply.outer(n_t, shapes.phi_T1)
    traces += np.multiply.outer(n_s, shapes.phi_S1)
    if config.wobble_amplitude != 0.0:
        ripple = config.wobble_amplitude * np.sin(
            2.0 * np.pi * config.wobble_frequency * config.sample_times()
            + config.wobble_phase
        )
        traces += (n_ph / config.mean_photons)[:, None] * ripple[None, :]
    if config.lowpass_enabled:
        a = math.exp(-2.0 * math.pi * config.lowpass_cutoff * config.dt)
        out = np.empty_like(traces)
        acc = np.zeros(traces.shape[0])
        for j in range(traces.shape[1]):
            acc = a * acc + (1.0 - a) * traces[:, j]
            out[:, j] = acc
        traces = out
    return traces


def test_phase_rows_match_term_by_term_reference(run, shapes, cal):
    """One product for every linear term and an in-place low-pass give
    the term-by-term traces, with and without the wobble and the
    low-pass. The summation order differs, so they agree to rounding:
    1e-13 of the per-shot phase scale, a few hundred float64 ulps."""
    configs = _injected(replace(run.shot, shots_per_cycle=200))
    both = replace(configs["wobble"], lowpass_enabled=True)
    for name, config in {**configs, "both": both}.items():
        cyc = simulate_cycle(
            np.random.default_rng([3, 1]), shapes, config, cal, traces=True
        )
        rng = np.random.default_rng([3, 1])
        expected = _term_by_term_traces(rng, shapes, config, cal)
        scale = float(np.max(np.abs(expected)))
        gap = float(np.max(np.abs(cyc.traces - expected)))
        assert gap <= 1e-13 * scale, (name, gap / scale)


_FATES = ("clicked", "n_transmitted", "n_scattered", "background_clicked")


@pytest.mark.parametrize("mode", montecarlo.MODES)
def test_class_sums_match_summed_traces(run, shapes, cal, mode):
    """Two code paths from one seed: the cycle reduced where it is drawn,
    and the same cycle drawn with its traces, then reduced by
    ``class_sums``. Fates, click flags and class sizes are identical;
    the class means differ only by rounding, within 1e-12 of the
    per-shot phase scale, with the wobble, the low-pass and both."""
    configs = _injected(run.shot)
    both = replace(configs["wobble"], lowpass_enabled=True)
    for name, config in {**configs, "both": both}.items():
        reduced, full = (
            simulate_cycle(
                np.random.default_rng([5, 2]),
                shapes,
                config,
                cal,
                mode=mode,
                traces=traces,
            )
            for traces in (False, True)
        )
        for fate in _FATES:
            assert np.array_equal(getattr(reduced, fate), getattr(full, fate))
        sums, counts = class_sums(full.traces, full.clicked)
        assert reduced.counts == counts, name
        scale = float(np.max(np.abs(full.traces)))
        gap = np.abs(reduced.sums - sums) / np.array(counts)[:, None]
        assert np.max(gap) <= 1e-12 * scale, (name, np.max(gap) / scale)


def test_empty_class_leaves_traces_finite(run, shapes, cal):
    """With no click target every shot is silent: the empty click class
    gets a zero noise sum and no conditioning shift, and the silent
    traces still sum to the silent class sum."""
    cal0 = calibrate_detection(shapes.tbar, run.shot.mean_photons, 0.0, 0.0)
    reduced, full = (
        simulate_cycle(
            np.random.default_rng([6, 0]), shapes, run.shot, cal0, traces=traces
        )
        for traces in (False, True)
    )
    assert not full.clicked.any() and reduced.counts[0] == 0
    assert np.all(np.isfinite(full.traces))
    assert not reduced.sums[0].any()
    sums, _ = class_sums(full.traces, full.clicked)
    scale = float(np.max(np.abs(full.traces)))
    assert np.max(np.abs(sums - reduced.sums)) <= 1e-12 * scale * full.clicked.size


#: two-sided normal bound of the distribution tests below: each statistic
#: is standard normal for a correct sampler, so each misses it with
#: probability 6.8e-6
_Z_BOUND = 4.5


def _shot_level_sums(rng, config, cal):
    """A ``no_atoms`` cycle's class sums as the shot-level sampler drew
    them: the photon fates, then a shots x samples noise matrix reduced
    by ``class_sums``. Every phase term but the noise is zero there."""
    n_ph = rng.poisson(config.mean_photons, config.shots_per_cycle)
    n_det = rng.binomial(rng.binomial(n_ph, 1.0), cal.eta)
    clicked = (n_det > 0) | (rng.random(config.shots_per_cycle) < cal.p_bg)
    noise = rng.standard_normal((config.shots_per_cycle, config.n_samples))
    sums, counts = class_sums(noise, clicked)
    return config.phase_noise_rms * sums, counts


def test_class_sum_noise_matches_shot_level_draw(run, shapes, cal):
    """The class sums drawn directly have the law of the shot-level
    draw they replace. Scaled by sigma sqrt(n_class), both are unit
    normals; their means and log-variances agree within _Z_BOUND standard
    errors (false-alarm rate 1.4e-5 for the pair)."""
    config = replace(run.shot, shots_per_cycle=300)
    direct, shot_level = [], []
    for c in range(300):
        cyc = simulate_cycle(
            np.random.default_rng([2026, c]), shapes, config, cal, mode="no_atoms"
        )
        sums, counts = _shot_level_sums(np.random.default_rng([2027, c]), config, cal)
        for out, s, n in ((direct, cyc.sums, cyc.counts), (shot_level, sums, counts)):
            out.append(s / (config.phase_noise_rms * np.sqrt(n)[:, None]))
    a, b = np.ravel(direct), np.ravel(shot_level)
    z_mean = (a.mean() - b.mean()) / math.sqrt(1.0 / a.size + 1.0 / b.size)
    z_var = math.log(a.var(ddof=1) / b.var(ddof=1)) / math.sqrt(
        2.0 / (a.size - 1) + 2.0 / (b.size - 1)
    )
    assert abs(z_mean) < _Z_BOUND and abs(z_var) < _Z_BOUND, (z_mean, z_var)


def test_conditioned_shot_rows_are_iid_unit_normals(run, shapes, cal):
    """Per-shot noise conditioned on the drawn class sums is i.i.d.
    N(0, 1). In a ``no_atoms`` cycle at unit sigma the traces are that
    noise; four statistics, each standard normal for i.i.d. unit normals,
    stay within _Z_BOUND (false-alarm rate 2.7e-5 for the four): the
    mean, the variance, and the covariance of two shots of one class and
    of two shots of different classes. For a class of n shots with sum S
    and sum of squares Q, S^2 - Q sums the n (n - 1) ordered products of
    two of its shots, variance 2 n (n - 1); the cross-class products sum
    to S_0 S_1, variance n_0 n_1."""
    config = replace(run.shot, shots_per_cycle=300, phase_noise_rms=1.0)
    z, within, across = [], [], []
    for c in range(100):
        cyc = simulate_cycle(
            np.random.default_rng([2028, c]),
            shapes,
            config,
            cal,
            mode="no_atoms",
            traces=True,
        )
        sums, counts = class_sums(cyc.traces, cyc.clicked)
        squares, _ = class_sums(cyc.traces**2, cyc.clicked)
        n = np.array(counts, dtype=np.float64)[:, None]
        z.append(cyc.traces.ravel())
        within.append((sums**2 - squares) / np.sqrt(2.0 * n * (n - 1.0)))
        across.append(sums[0] * sums[1] / math.sqrt(counts[0] * counts[1]))
    z = np.concatenate(z)
    within, across = np.ravel(within), np.ravel(across)
    stats = {
        "mean": z.mean() * math.sqrt(z.size),
        "variance": (np.mean(z**2) - 1.0) * math.sqrt(z.size / 2.0),
        "within-class covariance": within.mean() * math.sqrt(within.size),
        "cross-class covariance": across.mean() * math.sqrt(across.size),
    }
    for name, stat in stats.items():
        assert abs(stat) < _Z_BOUND, (name, stat)


def test_photon_fates_follow_the_thinned_law(run, shapes, cal):
    """Per shot, n_T ~ Poisson(mu T) and n_S ~ Poisson(mu (1 - T)) are
    independent (Poisson thinning), a shot clicks with the calibrated
    target probability, and clicking raises the mean n_T by kappa. Over
    400 default cycles on seeds no other test uses, seven statistics,
    each standard normal for a correct sampler, stay within _Z_BOUND
    (false-alarm rate 4.8e-5 for the seven): the mean and the variance
    of n_T and of n_S (a Poisson(m) sample variance of N shots has
    variance (m + 2 m^2) / N), their covariance (variance m_T m_S / N),
    the click rate, and E[n_T | click] - E[n_T | silent] against
    ``kappa_enumeration``, with the class variances it is drawn with."""
    cycles = [
        simulate_cycle(np.random.default_rng([2029, c]), shapes, run.shot, cal)
        for c in range(400)
    ]
    n_t = np.concatenate([cyc.n_transmitted for cyc in cycles]).astype(float)
    n_s = np.concatenate([cyc.n_scattered for cyc in cycles]).astype(float)
    clicked = np.concatenate([cyc.clicked for cyc in cycles])
    size = n_t.size
    mu, tbar = run.shot.mean_photons, shapes.tbar
    stats = {}
    for name, n, m in (("n_T", n_t, mu * tbar), ("n_S", n_s, mu * (1.0 - tbar))):
        stats[f"mean {name}"] = (n.mean() - m) / math.sqrt(m / size)
        stats[f"variance {name}"] = (n.var(ddof=1) - m) / math.sqrt(
            (m + 2.0 * m * m) / size
        )
    stats["covariance"] = np.cov(n_t, n_s)[0, 1] / math.sqrt(
        mu * tbar * mu * (1.0 - tbar) / size
    )
    p = run.shot.target_click_prob
    stats["click rate"] = (clicked.mean() - p) / math.sqrt(p * (1.0 - p) / size)
    hit, miss = n_t[clicked], n_t[~clicked]
    kappa = kappa_enumeration(cal.eta, cal.lam, cal.p_bg)
    stats["kappa"] = (hit.mean() - miss.mean() - kappa) / math.sqrt(
        hit.var(ddof=1) / hit.size + miss.var(ddof=1) / miss.size
    )
    for name, stat in stats.items():
        assert abs(stat) < _Z_BOUND, (name, stat)


def test_skipped_empty_classes_leave_campaigns_unbiased(run, shapes):
    """At 20 shots per cycle and a 0.05 click probability a cycle has no
    click with probability 0.95^20 = 0.36, and the accumulator skips it.
    Given K clicks, E[d | K] = kappa phi_T1 for every 0 < K < 20, so the
    kept cycles estimate the windowed kappa phi_T1 integral without bias,
    and their propagated sigma^2 has the campaigns' integral variance as
    its mean. Over 400 campaigns of 40 cycles at 12 mrad, two statistics
    stay within _Z_BOUND (false-alarm rate at most 1.4e-5 for the pair):
    the mean integral's distance from its target in standard errors, and
    the gap between the integral variance and the mean sigma^2 in
    standard errors. Both are standard normal over many campaigns; the
    second leaves out the positive covariance of its two terms, which
    only lowers its rate."""
    shot = replace(
        run.shot, shots_per_cycle=20, target_click_prob=0.05, phase_noise_rms=0.012
    )
    cal = calibrate_detection(
        shapes.tbar,
        shot.mean_photons,
        shot.target_click_prob,
        shot.background_click_fraction,
    )
    window = integration_window(shapes.phi_T1, run.window_fraction)
    kappa = kappa_enumeration(cal.eta, cal.lam, cal.p_bg)
    target, _ = integrate_trapz(kappa * shapes.phi_T1, window, shot.dt)
    values, variances, skipped = [], [], 0
    for seed in range(400):
        res = accumulate(run_campaign(2_029_000 + seed, 40, shapes, shot, cal))
        integ = integral_with_error(res.phi_T, res.cov, window, shot.dt)
        values.append(integ.value)
        variances.append(integ.sigma**2)
        skipped += res.n_skipped
    assert skipped > 0.3 * 400 * 40
    values, variances = np.asarray(values), np.asarray(variances)
    n, s2 = values.size, values.var(ddof=1)
    z_mean = (values.mean() - target) / math.sqrt(s2 / n)
    m4 = np.mean((values - values.mean()) ** 4)
    se_s2 = math.sqrt((m4 - s2**2 * (n - 3) / (n - 1)) / n)
    z_var = (s2 - variances.mean()) / math.hypot(
        se_s2, variances.std(ddof=1) / math.sqrt(n)
    )
    assert abs(z_mean) < _Z_BOUND and abs(z_var) < _Z_BOUND, (z_mean, z_var)



# ------------------------------------------------- exact law of a cycle

def _exact_cycle_law(n, mu, tbar, eta, p_bg, a, b, noise2):
    """Mean and variance of one cycle's windowed integral X = J^T d,
    d = S_click / K - S_silent / (n - K), over n shots given 0 < K < n;
    a = J^T phi_T1, b = J^T phi_S1 and noise2 = sigma^2 |J|^2.

    By Poisson thinning a shot's scattered count n_S ~ Poisson(mu (1 - T)),
    its detected count n_det ~ Poisson(nu), nu = lam eta with lam = mu T,
    and its undetected count n_T - n_det ~ Poisson(lam (1 - eta)) are
    independent, and so is its background flag ~ Bernoulli(p_bg). It
    clicks with P = 1 - (1 - p_bg) exp(-nu). Given K the clicked shots are
    i.i.d. from the click-conditional law and the silent shots from the
    silent one, so E[X | K] = kappa a with kappa = nu / P for every such
    K, and

        Var[X | K] = (noise2 + mu (1 - T) b^2)(1/K + 1/(n - K))
                     + (v_c / K + v_s / (n - K)) a^2

    with v_s = Var(n_T | silent) = lam (1 - eta) and v_c = Var(n_T | click)
    = v_s + (nu + nu^2) / P - (nu / P)^2. As the mean does not depend on
    K, the variance of X is Var[X | K] averaged over K ~ Binomial(n, P)
    given 0 < K < n."""
    lam = mu * tbar
    nu = lam * eta
    p = 1.0 - (1.0 - p_bg) * math.exp(-nu)
    v_s = lam * (1.0 - eta)
    v_c = v_s + (nu + nu * nu) / p - (nu / p) ** 2
    k = np.arange(1, n)
    var_k = (noise2 + mu * (1.0 - tbar) * b * b) * (1.0 / k + 1.0 / (n - k))
    var_k += (v_c / k + v_s / (n - k)) * a * a
    pmf = binom.pmf(k, n, p)
    return nu / p * a, float(pmf @ var_k / pmf.sum())


def _assert_cycle_law(run, shapes, config, cal, kind, law, seed, cycles):
    """Draw ``cycles`` cycles of ``kind`` and hold the windowed integral
    of each one with two non-empty classes to the exact law, given as
    (mu, T, eta, p_bg, phi_T1, phi_S1), over the trapezoid weights J of
    the default window. The mean's standard error comes from the sample
    variance; the variance's from the sample fourth moment, because X
    mixes over K and is not normal."""
    mu, tbar, eta, p_bg, phi_t1, phi_s1 = law
    lo, hi = integration_window(shapes.phi_T1, run.window_fraction)
    jac = np.zeros(config.n_samples)
    jac[lo : hi + 1] = config.dt
    jac[[lo, hi]] = 0.5 * config.dt
    n, values = config.shots_per_cycle, []
    for c in range(cycles):
        cyc = simulate_cycle(
            np.random.default_rng([seed, c]), shapes, config, cal, mode=kind
        )
        k = cyc.counts[0]
        if 0 < k < n:
            values.append(jac @ (cyc.sums[0] / k - cyc.sums[1] / (n - k)))
    noise2 = config.phase_noise_rms**2 * (jac @ jac)
    mean, var = _exact_cycle_law(
        n, mu, tbar, eta, p_bg, jac @ phi_t1, jac @ phi_s1, noise2
    )
    values = np.asarray(values)
    m, s2 = values.size, values.var(ddof=1)
    z_mean = (values.mean() - mean) / math.sqrt(s2 / m)
    m4 = np.mean((values - values.mean()) ** 4)
    z_var = (s2 - var) / math.sqrt((m4 - s2**2 * (m - 3) / (m - 1)) / m)
    assert abs(z_mean) < _Z_BOUND and abs(z_var) < _Z_BOUND, (z_mean, z_var)


@pytest.mark.parametrize("noise_mrad", [12.0, 120.0])
@pytest.mark.parametrize("kind", montecarlo.MODES)
def test_windowed_integral_follows_the_exact_cycle_law(
    run, shapes, cal, kind, noise_mrad
):
    """Each kind at its default photon budget, 300 shots per cycle and
    2,000 cycles. A normal shot meets the cloud with the derived shapes; a
    null kind's light meets no cloud (T = 1) and carries no phase, and
    no_signal sends no light. Over these eight cases and the fate case
    below, eighteen statistics, each standard normal for a correct
    sampler, stay within _Z_BOUND (false-alarm rate 1.2e-4). At these
    noise levels sigma^2 |J|^2 outweighs (v_c - v_s) a^2 over a million
    times, so the click-class variance v_c is checked by the next test."""
    config = replace(
        run.shot, shots_per_cycle=300, phase_noise_rms=noise_mrad * 1e-3
    )
    mu, zero = run.shot.mean_photons, np.zeros(run.shot.n_samples)
    law = {
        "normal": (mu, shapes.tbar, cal.eta, cal.p_bg, shapes.phi_T1, shapes.phi_S1),
        "no_atoms": (mu, 1.0, cal.eta, cal.p_bg, zero, zero),
        "bypass_atoms": (mu, 1.0, cal.eta, cal.p_bg, zero, zero),
        "no_signal": (0.0, 1.0, 0.0, cal.p_bg, zero, zero),
    }[kind]
    seed = 2030 + 2 * montecarlo.MODES.index(kind) + (noise_mrad > 12.0)
    _assert_cycle_law(run, shapes, config, cal, kind, law, seed, 2000)


def test_windowed_integral_resolves_the_click_class_fates(run, shapes):
    """Noise-free normal cycles of 300 shots with 2 photons each, eta 0.75
    and p_bg 0.1, and scattered photons without phase (phi_01 = T phi_T1,
    so phi_S1 = 0): X then follows the transmitted counts alone, and
    Var(n_T | click) - Var(n_T | silent) = 0.49 makes 55% of its
    variance. 1,000 cycles hold it to the exact law (two of the eighteen
    statistics above)."""
    config = replace(
        run.shot, shots_per_cycle=300, mean_photons=2.0, phase_noise_rms=0.0
    )
    tbar = shapes.tbar
    transmitted = PerPhotonShapes(shapes.phi_T1, tbar * shapes.phi_T1, tbar)
    assert not transmitted.phi_S1.any()
    cal = DetectionCalibration(eta=0.75, p_bg=0.1, lam=2.0 * tbar)
    law = (2.0, tbar, 0.75, 0.1, shapes.phi_T1, transmitted.phi_S1)
    _assert_cycle_law(run, transmitted, config, cal, "normal", law, 2038, 1000)

def test_threaded_campaign_is_lazy(run, shapes, cal, monkeypatch):
    """Taking one cycle of a long per-shot campaign on two usable CPUs
    draws only the in-flight window, on worker threads, and closing the
    generator returns without drawing the rest."""
    calls = []
    real = montecarlo.simulate_cycle

    def counted(*args, **kwargs):
        calls.append(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "simulate_cycle", counted)
    threads = 2
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: threads)
    config = replace(run.shot, shots_per_cycle=20)
    campaign = run_campaign(4, 1000, shapes, config, cal, traces=True)
    first = real(np.random.default_rng([4, 0]), shapes, config, cal, traces=True)
    assert np.array_equal(next(campaign).traces, first.traces)
    assert len(calls) <= 2 * threads + threads
    start = time.perf_counter()
    campaign.close()
    assert time.perf_counter() - start < 5.0
    assert len(calls) <= 2 * threads + threads
    assert threading.get_ident() not in calls


def test_class_sum_campaign_is_drawn_serially(run, shapes, cal, monkeypatch):
    """Class-sum cycles are drawn in the consumer's thread, one at a
    time, however many CPUs are usable."""
    threads = []
    real = montecarlo.simulate_cycle

    def recorded(*args, **kwargs):
        threads.append(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "simulate_cycle", recorded)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 4)
    config = replace(run.shot, shots_per_cycle=20)
    campaign = run_campaign(4, 1000, shapes, config, cal)
    first = real(np.random.default_rng([4, 0]), shapes, config, cal)
    assert np.array_equal(next(campaign).sums, first.sums)
    assert threads == [threading.get_ident()]
    campaign.close()


def test_worker_error_surfaces(run, shapes, cal, monkeypatch):
    """An error raised in a pool worker reaches the consumer."""
    real, calls = montecarlo.simulate_cycle, itertools.count()

    def fail_from_third(*args, **kwargs):
        if next(calls) >= 2:
            raise ConfigError("cycle failed in a worker")
        return real(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "simulate_cycle", fail_from_third)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    config = replace(run.shot, shots_per_cycle=8)
    with pytest.raises(ConfigError, match="in a worker"):
        list(run_campaign(0, 12, shapes, config, cal, traces=True))


def test_seed_reproducibility(run, shapes, cal):
    config = replace(run.shot, shots_per_cycle=8)
    a, b, c = (
        next(run_campaign(seed, 1, shapes, config, cal, traces=True))
        for seed in (13, 13, 14)
    )
    assert np.array_equal(a.traces, b.traces)
    assert not np.array_equal(a.traces, c.traces)


# ------------------------------------------------ injected distortions

@pytest.mark.parametrize("mode", ["no_atoms", "bypass_atoms", "no_signal"])
def test_wobble_ripple_is_exact(run, shapes, cal, mode):
    """Every null kind gives a photon zero phase: without noise, a trace
    is exactly its wobble ripple (zero in no_signal, which has no
    photons)."""
    config = replace(
        run.shot,
        phase_noise_rms=0.0,
        wobble_amplitude=0.09,
        wobble_phase=0.7,
        shots_per_cycle=32,
    )
    cyc = simulate_cycle(
        np.random.default_rng(99),
        shapes,
        config,
        cal,
        mode=mode,
        traces=True,
    )
    n_ph = cyc.n_transmitted + cyc.n_scattered
    ripple = config.wobble_amplitude * np.sin(
        2.0 * np.pi * config.wobble_frequency * config.sample_times()
        + config.wobble_phase
    )
    expected = (n_ph / config.mean_photons)[:, None] * ripple[None, :]
    assert np.array_equal(cyc.traces, expected)


def test_wobble_needs_photons(run):
    """The ripple is scaled by n_ph / mu, so a wobble without photons is
    refused where the shot is configured, not once per cycle."""
    with pytest.raises(ConfigError, match="wobble injection needs mean_photons > 0"):
        replace(run.shot, mean_photons=0.0, wobble_amplitude=0.01)


def test_lowpass_matches_reference_recurrence(run, shapes, cal):
    config = replace(run.shot, shots_per_cycle=16)
    filtered = simulate_cycle(
        np.random.default_rng(8),
        shapes,
        replace(config, lowpass_enabled=True),
        cal,
        traces=True,
    )
    raw = simulate_cycle(np.random.default_rng(8), shapes, config, cal, traces=True)
    a = math.exp(-2.0 * math.pi * config.lowpass_cutoff * config.dt)
    acc = np.zeros(raw.traces.shape[0])
    out = np.empty_like(raw.traces)
    for j in range(raw.traces.shape[1]):
        acc = a * acc + (1.0 - a) * raw.traces[:, j]
        out[:, j] = acc
    assert np.array_equal(filtered.traces, out)


# ------------------------------------------------------- bin_average

def test_bin_average_constant_and_conservation():
    dt, t0 = 2e-9, -10e-9
    vals = np.full(64, 7.3)
    edges = np.array([-6e-9, 0.0, 14e-9, 50e-9])
    np.testing.assert_allclose(
        bin_average(vals, dt, t0, edges), 7.3, rtol=1e-12
    )
    rng = np.random.default_rng(1)
    vals = rng.standard_normal(64)
    full = np.array([t0, t0 + 63 * dt])
    got = bin_average(vals, dt, t0, full)[0] * (full[1] - full[0])
    assert got == pytest.approx(np.trapezoid(vals, dx=dt), rel=1e-12)


def test_bin_average_outside_grid_is_zero():
    vals = np.ones(16)
    out = bin_average(vals, 1e-9, 0.0, np.array([20e-9, 30e-9, 40e-9]))
    np.testing.assert_array_equal(out, 0.0)


def test_bin_average_edge_validation():
    with pytest.raises(ConfigError, match="strictly increasing"):
        bin_average(np.ones(8), 1e-9, 0.0, np.array([0.0, 2e-9, 2e-9]))


# edges snapped to the fine grid: between samples the antiderivative is
# interpolated linearly, so exactness for linear traces holds only there
@settings(max_examples=25, deadline=None)
@given(
    slope=st.floats(-3.0, 3.0),
    offset=st.floats(-2.0, 2.0),
    lo=st.integers(5, 45),
    width=st.integers(5, 50),
)
def test_bin_average_is_exact_for_linear_traces(slope, offset, lo, width):
    dt, n = 1e-2, 101
    t = dt * np.arange(n)
    vals = offset + slope * t
    edges = dt * np.array([lo, lo + width], dtype=np.float64)
    got = bin_average(vals, dt, 0.0, edges)[0]
    mid = dt * (lo + (lo + width)) / 2.0
    assert got == pytest.approx(offset + slope * mid, rel=1e-9, abs=1e-12)


# ------------------------------------------------------------- shapes

def test_shape_decomposition_identity(shapes):
    recon = shapes.tbar * shapes.phi_T1 + (1.0 - shapes.tbar) * shapes.phi_S1
    ref = np.abs(shapes.phi_01).max()
    assert np.abs(recon - shapes.phi_01).max() <= 1e-9 * ref
    assert 0.0 < shapes.tbar < 1.0


def test_transparent_medium_shapes(run):
    m0 = replace(run.medium, od=0.0)
    sh = derive_shapes(m0, run.pulse, run.shot, run.n_atoms)
    assert sh.tbar == pytest.approx(1.0, abs=1e-12)
    assert not np.any(sh.phi_S1)


def test_ratio_estimate_is_scale_free(run, shapes, cal):
    """Tripling the phase-conversion strength rescales every trace but
    cancels exactly in the windowed ratio."""
    strong = replace(
        run.medium, sigma0_over_area=3.0 * run.medium.sigma0_over_area
    )
    shapes_b = derive_shapes(strong, run.pulse, run.shot, run.n_atoms)
    config = replace(run.shot, phase_noise_rms=0.0, shots_per_cycle=300)
    window = integration_window(shapes.phi_T1, run.window_fraction)

    def ratio(sh):
        res = accumulate(run_campaign(21, 10, sh, config, cal))
        integral = integral_with_error(res.phi_T, res.cov, window, config.dt)
        return ratio_estimate(integral, sh.phi_01, config.dt)

    ra, sa = ratio(shapes)
    rb, sb = ratio(shapes_b)
    assert rb == pytest.approx(ra, rel=1e-12)
    assert sb == pytest.approx(sa, rel=1e-12)


# -------------------------------------------------------- validation

@pytest.mark.parametrize(
    "kwargs, msg",
    [
        (dict(n_samples=0), "n_samples"),
        (dict(dt=0.0), "dt > 0"),
        (dict(mean_photons=-1.0), "mean_photons"),
        (dict(target_click_prob=1.0), "target_click_prob"),
        (dict(background_click_fraction=0.25), "background_click_fraction"),
        (dict(phase_noise_rms=-0.1), "phase_noise_rms"),
        (dict(lowpass_cutoff=0.0), "positive"),
        (dict(wobble_frequency=0.0), "positive"),
        (dict(shots_per_cycle=0), "shots_per_cycle"),
        # far past the cycle-array bound; refused before any allocation
        (dict(n_samples=100_000), "n_samples 100000"),
        (dict(shots_per_cycle=10**9), "shots_per_cycle 1000000000"),
    ],
)
def test_shot_config_validation(run, kwargs, msg):
    with pytest.raises(ConfigError, match=msg):
        replace(run.shot, **kwargs)


def test_shot_config_sample_times(run):
    cfg = run.shot
    t = cfg.sample_times()
    assert t[0] == pytest.approx(8e-9, rel=1e-15)
    assert len(t) == cfg.n_samples
    assert t[-1] < cfg.n_samples * cfg.dt


def test_campaign_guard(run, shapes, cal):
    with pytest.raises(ConfigError, match="n_cycles"):
        list(run_campaign(0, -1, shapes, run.shot, cal))

