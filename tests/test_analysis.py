"""Post-selection statistics: accumulator algebra, windowed integrals,
error propagation, fits, alignment and the bootstrap."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from negdelay.analysis import (
    Accumulator,
    GaussianFit,
    IntegralResult,
    PostSelectedResult,
    accumulate,
    bootstrap_sigma,
    fit_gaussian,
    integral_with_error,
    integrate_trapz,
    integration_window,
    propagate_error,
    ratio_estimate,
    time_align,
)
from negdelay.errors import AnalysisError, PostSelectionError


class _Cycle:
    def __init__(self, traces, clicked):
        self.traces = np.asarray(traces, dtype=np.float64)
        self.clicked = np.asarray(clicked, dtype=bool)


def _paired_cycles(diffs):
    """One clicked shot carrying the difference, one silent zero shot."""
    return [
        _Cycle(np.stack([d, np.zeros_like(d)]), [True, False]) for d in diffs
    ]


# ------------------------------------------------------- accumulator

def test_identical_cycles_have_zero_covariance():
    d = np.array([0.5, -0.25, 1.0, 0.75])
    res = accumulate(_paired_cycles([d, d, d]))
    assert np.all(res.cov == 0.0)
    np.testing.assert_array_equal(res.phi_T, d)
    assert res.n_cycles == 3 and res.n_click == 3 and res.n_noclick == 3


def test_covariance_matches_numpy_for_iid_cycles():
    rng = np.random.default_rng(4)
    d = rng.standard_normal((12, 5))
    res = accumulate(_paired_cycles(list(d)))
    expected = np.cov(d, rowvar=False, ddof=1) / 12
    np.testing.assert_allclose(res.cov, expected, rtol=1e-10, atol=1e-18)
    np.testing.assert_allclose(res.phi_C, d.mean(axis=0), rtol=1e-12)
    np.testing.assert_array_equal(res.phi_NC, 0.0)


def test_cycle_order_does_not_matter():
    rng = np.random.default_rng(5)
    d = rng.standard_normal((9, 4))
    a = accumulate(_paired_cycles(list(d)))
    b = accumulate(_paired_cycles(list(d[::-1])))
    np.testing.assert_allclose(b.cov, a.cov, rtol=1e-12, atol=1e-20)
    np.testing.assert_allclose(b.phi_T, a.phi_T, rtol=1e-12)


def test_merge_equals_single_pass():
    rng = np.random.default_rng(6)
    d = rng.standard_normal((10, 3))
    cycles = _paired_cycles(list(d))
    single = accumulate(cycles)
    left = Accumulator(3)
    right = Accumulator(3)
    for c in cycles[:6]:
        left.add_cycle(c.traces, c.clicked)
    for c in cycles[6:]:
        right.add_cycle(c.traces, c.clicked)
    left.merge(right)
    merged = left.result()
    np.testing.assert_allclose(merged.cov, single.cov, rtol=1e-12, atol=1e-20)
    np.testing.assert_allclose(merged.phi_T, single.phi_T, rtol=1e-12)
    assert merged.n_cycles == single.n_cycles == 10


def test_merge_width_mismatch():
    with pytest.raises(AnalysisError, match="widths"):
        Accumulator(3).merge(Accumulator(4))


def test_empty_class_is_rejected():
    acc = Accumulator(2)
    with pytest.raises(PostSelectionError, match="no-click class is empty"):
        acc.add_cycle(np.ones((3, 2)), np.array([True, True, True]))
    with pytest.raises(PostSelectionError, match="click class is empty"):
        acc.add_cycle(np.ones((3, 2)), np.array([False, False, False]))


def test_result_needs_two_cycles():
    acc = Accumulator(2)
    acc.add_cycle(np.ones((2, 2)), np.array([True, False]))
    with pytest.raises(PostSelectionError, match="two cycles"):
        acc.result()


def test_accumulate_rejects_empty_input():
    with pytest.raises(PostSelectionError, match="no cycles"):
        accumulate([])


def test_kept_differences_are_per_cycle_rows():
    rng = np.random.default_rng(7)
    d = rng.standard_normal((5, 4))
    res, diffs = accumulate(_paired_cycles(list(d)), keep_differences=True)
    assert diffs.shape == (5, 4)
    np.testing.assert_allclose(diffs, d, rtol=1e-15)
    np.testing.assert_allclose(res.phi_T, d.mean(axis=0), rtol=1e-12)


def test_result_validators():
    ok = np.zeros((2, 2))
    with pytest.raises(AnalysisError, match="difference"):
        PostSelectedResult(
            phi_C=np.array([1.0, 0.0]),
            phi_NC=np.zeros(2),
            phi_T=np.array([0.5, 0.0]),
            cov=ok,
        )
    with pytest.raises(AnalysisError, match="symmetric"):
        PostSelectedResult(
            phi_C=np.zeros(2),
            phi_NC=np.zeros(2),
            phi_T=np.zeros(2),
            cov=np.array([[1.0, 0.1], [0.2, 1.0]]),
        )
    with pytest.raises(AnalysisError, match="negative diagonal"):
        PostSelectedResult(
            phi_C=np.zeros(2),
            phi_NC=np.zeros(2),
            phi_T=np.zeros(2),
            cov=np.array([[-1.0, 0.0], [0.0, 1.0]]),
        )


# ------------------------------------------------------------ window

def test_window_worked_examples():
    assert integration_window(np.array([0, 1, 3, 10, 4, 2, 0.5]), 0.3) == (2, 4)
    # interior dips below threshold stay inside the window
    assert integration_window(np.array([5, 0.2, -6, 0.1, 4]), 0.5) == (0, 4)
    assert integration_window(np.array([0.0, 1.0, 0.0, 2.0, 0.0]), 0.0) == (1, 3)


def test_window_guards():
    with pytest.raises(AnalysisError, match="flat"):
        integration_window(np.zeros(5), 0.3)
    with pytest.raises(AnalysisError, match="fraction"):
        integration_window(np.ones(5), 1.0)
    with pytest.raises(AnalysisError, match="fraction"):
        integration_window(np.ones(5), -0.1)


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.integers(-50, 100), min_size=3, max_size=30
    ).filter(lambda v: any(v)),
    scale=st.sampled_from([1e-6, 0.037, 0.5, 3.0, 1e5]),
)
def test_window_is_scale_invariant(data, scale):
    trace = np.array(data, dtype=np.float64)
    peak = np.abs(trace).max()
    # stay away from exact threshold ties, where rescaling may round
    # either way
    assume(np.all(np.abs(np.abs(trace) - 0.3 * peak) > 1e-9 * peak))
    assert integration_window(scale * trace, 0.3) == integration_window(
        trace, 0.3
    )


# --------------------------------------------------------- integrals

def test_trapz_matches_numpy():
    rng = np.random.default_rng(8)
    trace = rng.standard_normal(20)
    dt = 16e-9
    value, jac = integrate_trapz(trace, (3, 15), dt)
    assert value == pytest.approx(
        np.trapezoid(trace[3:16], dx=dt), rel=1e-14
    )
    assert jac @ trace == value
    assert jac.shape == trace.shape
    assert np.all(jac[:3] == 0.0) and np.all(jac[16:] == 0.0)


def test_trapz_degenerate_window():
    value, jac = integrate_trapz(np.ones(6), (4, 4), 1e-9)
    assert value == 0.0
    assert np.all(jac == 0.0)


@pytest.mark.parametrize("window", [(-1, 3), (0, 25), (7, 3)])
def test_trapz_window_bounds(window):
    with pytest.raises(AnalysisError, match="window"):
        integrate_trapz(np.ones(20), window, 1e-9)


def test_propagate_error_diagonal_and_rank_one():
    jac = np.array([0.5, 1.0, 2.0])
    var = np.array([4.0, 1.0, 0.25])
    got = propagate_error(jac, np.diag(var))
    assert got == pytest.approx(np.sqrt(jac**2 @ var), rel=1e-14)
    v = np.array([1.0, -2.0, 3.0])
    got = propagate_error(jac, np.outer(v, v))
    assert got == pytest.approx(abs(jac @ v), rel=1e-12)


def test_propagate_error_guards():
    with pytest.raises(AnalysisError, match="shape"):
        propagate_error(np.ones(3), np.eye(2))
    with pytest.raises(AnalysisError, match="negative variance"):
        propagate_error(np.array([1.0]), np.array([[-1.0]]))


def test_propagate_error_clamps_rounding_noise():
    # perfectly anticorrelated up to one float step: the quadratic form
    # lands at -2e-15, inside the rounding band, and must clamp to zero
    c = 1.0 + 1e-15
    cov = np.array([[1.0, -c], [-c, 1.0]])
    assert propagate_error(np.array([1.0, 1.0]), cov) == 0.0


def test_integral_with_error_consistency():
    rng = np.random.default_rng(9)
    trace = rng.standard_normal(10)
    cov = np.diag(np.full(10, 0.04))
    dt = 2e-9
    res = integral_with_error(trace, cov, (2, 7), dt)
    value, jac = integrate_trapz(trace, (2, 7), dt)
    assert res.value == value
    assert res.sigma == propagate_error(jac[2:8], cov[2:8, 2:8])


def test_integral_result_validators():
    with pytest.raises(AnalysisError, match="sigma"):
        IntegralResult(value=0.0, sigma=-1.0)


def test_ratio_estimate_worked_example():
    integral = IntegralResult(value=2e-12, sigma=1e-13)
    phi0 = np.full(5, 2.0)  # trapezoid over 4 steps of 0.5 -> 4.0
    ratio, err = ratio_estimate(integral, phi0, 0.5)
    assert ratio == pytest.approx(5e-13, rel=1e-15)
    assert err == pytest.approx(2.5e-14, rel=1e-15)


def test_ratio_estimate_zero_denominator():
    integral = IntegralResult(value=1.0, sigma=0.0)
    with pytest.raises(AnalysisError, match="integrates to zero"):
        ratio_estimate(integral, np.array([-1.0, 1.0]), 1.0)


# -------------------------------------------------------------- fits

def test_gaussian_fit_exact_recovery():
    dt = 16e-9
    t = dt * np.arange(36)
    amp, center, width = -3.7, 110e-9, 17e-9
    y = amp * np.exp(-((t - center) ** 2) / (2.0 * width**2))
    fit = fit_gaussian(y, dt)
    assert fit.amplitude == pytest.approx(amp, rel=1e-6)
    assert fit.center == pytest.approx(center, rel=1e-6)
    assert fit.width == pytest.approx(width, rel=1e-6)
    assert fit.rms_residual < 1e-9 * abs(amp)
    assert fit.n_iterations >= 1


def test_gaussian_fit_with_noise():
    dt = 16e-9
    t = dt * np.arange(36)
    amp, center, width = 2.0, 260e-9, 40e-9
    rng = np.random.default_rng(3)
    y = amp * np.exp(-((t - center) ** 2) / (2.0 * width**2))
    y = y + 0.05 * amp * rng.standard_normal(t.size)
    fit = fit_gaussian(y, dt)
    assert abs(fit.center - center) < dt
    assert abs(fit.amplitude - amp) < 0.15 * amp
    assert fit.center_err > 0.0


def test_gaussian_fit_guards():
    with pytest.raises(AnalysisError, match="flat trace"):
        fit_gaussian(np.full(10, 0.3), 1e-9)
    with pytest.raises(AnalysisError, match="at least 4"):
        fit_gaussian(np.array([0.0, 1.0, 0.0]), 1e-9)


def test_time_align_recovers_injected_shift():
    exp_dt, th_dt = 16e-9, 2e-9
    te = exp_dt * np.arange(36)
    tt = th_dt * np.arange(200)
    exp = 0.8 * np.exp(-((te - 502e-9) ** 2) / (2.0 * (40e-9) ** 2))
    theory = -0.5 * np.exp(-((tt - 150e-9) ** 2) / (2.0 * (30e-9) ** 2))
    shift, err = time_align(exp, exp_dt, theory, th_dt, exp_t0=-100e-9)
    assert shift == pytest.approx(252e-9, rel=1e-6)
    assert err >= 0.0


# ----------------------------------------------------------- bootstrap

def test_bootstrap_validation():
    with pytest.raises(AnalysisError, match="matrix"):
        bootstrap_sigma(np.ones(5), (0, 2), 1e-9)
    with pytest.raises(AnalysisError, match="matrix"):
        bootstrap_sigma(np.ones((1, 5)), (0, 2), 1e-9)


def test_bootstrap_tracks_analytic_sigma():
    rng = np.random.default_rng(11)
    d = rng.standard_normal((40, 6))
    window, dt = (1, 4), 2.0
    _, jac = integrate_trapz(d[0], window, dt)
    per_cycle = d[:, 1:5] @ jac[1:5]
    analytic = per_cycle.std(ddof=1) / np.sqrt(d.shape[0])
    boot = bootstrap_sigma(d, window, dt, n_resamples=20000, seed=1)
    assert abs(boot - analytic) / analytic < 0.1


@pytest.mark.parametrize("n_resamples", [1000, 2500])
def test_bootstrap_blocks_match_one_gather(n_resamples):
    """The blocked gather gives the bytes of the one-matrix reference,
    also when the block does not divide the resample count."""
    d = np.random.default_rng(5).standard_normal((400, 8))
    window, dt, seed = (2, 6), 1.5, 9
    _, jac = integrate_trapz(d[0], window, dt)
    per_cycle = d[:, 2:7] @ jac[2:7]
    idx = np.random.default_rng(seed).integers(
        0, d.shape[0], size=(n_resamples, d.shape[0])
    )
    reference = float(per_cycle[idx].mean(axis=1).std(ddof=1))
    got = bootstrap_sigma(d, window, dt, n_resamples=n_resamples, seed=seed)
    assert got.hex() == reference.hex()
