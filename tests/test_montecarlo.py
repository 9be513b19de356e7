"""Shot-level simulation: conditioning factor, detection calibration,
draw-order reproducibility and the statistical closure of the generator."""

import hashlib
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negdelay import montecarlo
from negdelay.analysis import (
    accumulate,
    integral_with_error,
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
    fine_signal,
    kappa_enumeration,
    run_campaign,
    simulate_cycle,
)
from negdelay.oracle import max_step
from negdelay.pulse import PulseSpec


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
    for cyc in run_campaign(3, 200, shapes, run.shot, cal, truth=True):
        clicked += int(cyc.clicked.sum())
        bg += int(cyc.background_clicked.sum())
    assert abs(bg / clicked - run.shot.background_click_fraction) < 0.01


def test_unconditioned_mean_trace(run, shapes, cal):
    """Averaged over all shots the trace is mu * phi_01 regardless of
    post-selection."""
    config = replace(run.shot, phase_noise_rms=0.001)
    total = np.zeros(config.n_samples)
    shots = 0
    for cyc in run_campaign(5, 150, shapes, config, cal):
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
    for cyc in run_campaign(
        19, 100, shapes, run.shot, cal, mode="no_signal", truth=True
    ):
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
    """Frozen digest over the integer outcomes of one cycle. Any change
    to the draw order or distribution parameters will move it."""
    rng = np.random.default_rng([7, 0])
    cyc = simulate_cycle(
        rng, shapes, replace(run.shot, shots_per_cycle=64), cal, truth=True
    )
    h = hashlib.sha256()
    for arr in (
        cyc.clicked,
        cyc.n_transmitted,
        cyc.n_scattered,
        cyc.background_clicked,
    ):
        h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest()[:16] == "d738e8a58bf3d563"
    np.testing.assert_allclose(
        cyc.traces[0, :3],
        [-0.14545662170583473, -0.2202539147029107, 0.22334433442940746],
        rtol=1e-10,
    )


def test_thread_fanout_is_invisible(run, shapes, cal):
    """Serial, default and three-thread campaigns agree bit for bit over
    enough cycles to slide the in-flight window several times."""
    config = replace(run.shot, shots_per_cycle=40)
    for mode in ("normal", "bypass_atoms"):
        serial, *threaded = (
            list(
                run_campaign(
                    2, 21, shapes, config, cal, mode=mode, jobs=jobs, truth=True
                )
            )
            for jobs in (1, None, 3)
        )
        assert [c.cycle for c in serial] == list(range(21))
        for campaign in threaded:
            assert [c.cycle for c in campaign] == list(range(21))
            for a, b in zip(serial, campaign):
                assert np.array_equal(a.traces, b.traces)
                assert np.array_equal(a.clicked, b.clicked)
                assert np.array_equal(a.n_transmitted, b.n_transmitted)
                assert np.array_equal(a.n_scattered, b.n_scattered)
                assert np.array_equal(
                    a.background_clicked, b.background_clicked
                )


def test_threaded_campaign_is_lazy(run, shapes, cal, monkeypatch):
    """Taking one cycle of a long campaign draws only the in-flight
    window, and closing the generator returns without drawing the rest."""
    calls = []
    real = montecarlo.simulate_cycle

    def counted(*args, **kwargs):
        calls.append(kwargs["cycle"])
        return real(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "simulate_cycle", counted)
    config = replace(run.shot, shots_per_cycle=20)
    jobs = 2
    campaign = run_campaign(4, 1000, shapes, config, cal, jobs=jobs)
    assert next(campaign).cycle == 0
    assert len(calls) <= 2 * jobs + jobs
    start = time.perf_counter()
    campaign.close()
    assert time.perf_counter() - start < 5.0
    assert len(calls) <= 2 * jobs + jobs


def test_worker_error_surfaces(run, shapes):
    config = replace(run.shot, mean_photons=0.0, wobble_amplitude=0.01)
    cal = calibrate_detection(0.5, 100.0, 0.0, 0.0)
    with pytest.raises(ConfigError, match="wobble"):
        list(run_campaign(0, 12, shapes, config, cal, jobs=2))


def test_seed_reproducibility(run, shapes, cal):
    config = replace(run.shot, shots_per_cycle=8)
    a = next(run_campaign(13, 1, shapes, config, cal))
    b = next(run_campaign(13, 1, shapes, config, cal))
    c = next(run_campaign(14, 1, shapes, config, cal))
    assert np.array_equal(a.traces, b.traces)
    assert not np.array_equal(a.traces, c.traces)


# ------------------------------------------------ injected distortions

def test_wobble_ripple_is_exact(run, shapes, cal):
    config = replace(
        run.shot,
        phase_noise_rms=0.0,
        wobble_amplitude=0.09,
        wobble_phase=0.7,
        shots_per_cycle=32,
    )
    cyc = simulate_cycle(
        np.random.default_rng(99), shapes, config, cal,
        mode="bypass_atoms", truth=True,
    )
    n_ph = cyc.n_transmitted + cyc.n_scattered
    ripple = config.wobble_amplitude * np.sin(
        2.0 * np.pi * config.wobble_frequency * config.sample_times()
        + config.wobble_phase
    )
    expected = (n_ph / config.mean_photons)[:, None] * ripple[None, :]
    assert np.array_equal(cyc.traces, expected)


def test_wobble_needs_photons(run, shapes):
    config = replace(run.shot, mean_photons=0.0, wobble_amplitude=0.01)
    cal = calibrate_detection(0.5, 100.0, 0.0, 0.0)
    with pytest.raises(ConfigError, match="wobble"):
        simulate_cycle(np.random.default_rng(0), shapes, config, cal)


def test_lowpass_matches_reference_recurrence(run, shapes, cal):
    config = replace(run.shot, shots_per_cycle=16)
    filtered = simulate_cycle(
        np.random.default_rng(8),
        shapes,
        replace(config, lowpass_enabled=True),
        cal,
    )
    raw = simulate_cycle(np.random.default_rng(8), shapes, config, cal)
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
    assert not shapes.all_transmitted
    assert 0.0 < shapes.tbar < 1.0


def test_shape_decomposition_guard():
    n = 4
    with pytest.raises(ConfigError, match="decomposition"):
        PerPhotonShapes(
            phi_T1=np.ones(n),
            phi_S1=np.zeros(n),
            phi_01=np.ones(n),
            tbar=0.5,
        )


def test_transparent_medium_shapes(run):
    m0 = replace(run.medium, od=0.0)
    sh = derive_shapes(m0, run.pulse, run.shot)
    assert sh.all_transmitted
    assert sh.tbar == pytest.approx(1.0, abs=1e-12)
    assert not np.any(sh.phi_S1)
    z = sh.zeroed()
    assert z.all_transmitted
    assert not np.any(z.phi_T1) and not np.any(z.phi_01)


def test_ratio_estimate_is_scale_free(run, shapes, cal):
    """Tripling the phase-conversion strength rescales every trace but
    cancels exactly in the windowed ratio."""
    strong = replace(
        run.medium, sigma0_over_area=3.0 * run.medium.sigma0_over_area
    )
    shapes_b = derive_shapes(strong, run.pulse, run.shot)
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


def test_fine_signal_grid_choices(run):
    for sigma, n in [(10e-9, 4096), (150e-9, 8192), (300e-9, 16384), (700e-9, 32768)]:
        sig = fine_signal(run.medium, PulseSpec(sigma_rms=sigma))
        assert sig.n == n
        assert sig.dt <= max_step(run.medium, sigma)
