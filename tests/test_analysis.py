"""Post-selection statistics: accumulator algebra, windowed integrals,
error propagation, timestamp alignment and the bootstrap."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from negdelay import analysis
from negdelay.analysis import (
    Accumulator,
    IntegralResult,
    PostSelectedResult,
    accumulate,
    bootstrap_sigma,
    class_sums,
    integral_with_error,
    integrate_trapz,
    integration_window,
    ratio_estimate,
    time_align,
)
from negdelay.errors import AnalysisError


class _Cycle:
    """Per-shot traces reduced to what ``accumulate`` reads."""

    def __init__(self, traces, clicked):
        self.sums, self.counts = class_sums(traces, clicked)


def _paired_cycles(diffs):
    """One clicked shot carrying the difference, one silent zero shot."""
    return [
        _Cycle(np.stack([d, np.zeros_like(d)]), [True, False]) for d in diffs
    ]


# -------------------------------------------------------- class sums

def _masked_sums(x, clicked):
    """Reference for ``class_sums``: each class's rows summed by a mask."""
    x, clicked = np.asarray(x), np.asarray(clicked, dtype=bool)
    return np.stack([x[clicked].sum(axis=0), x[~clicked].sum(axis=0)])


def test_class_sums_of_float_traces_match_masked_sums():
    """Within rounding: the two reductions add in different orders."""
    rng = np.random.default_rng(12)
    traces = rng.standard_normal((1501, 36))
    clicked = rng.random(1501) < 0.2
    sums, counts = class_sums(traces, clicked)
    n_click = int(np.count_nonzero(clicked))
    assert counts == (n_click, 1501 - n_click)
    assert sums.shape == (2, 36)
    bound = 1e-14 * np.abs(traces).sum(axis=0)
    assert np.all(np.abs(sums - _masked_sums(traces, clicked)) <= bound)


def test_class_sums_of_integer_fates_are_exact():
    """Photon numbers sum exactly in float64, whatever the order."""
    rng = np.random.default_rng(13)
    fates = rng.poisson(40.0, (1500, 3))
    clicked = rng.random(1500) < 0.1
    sums, _ = class_sums(fates, clicked)
    assert sums.dtype == np.float64
    assert np.array_equal(sums, _masked_sums(fates, clicked))


def test_class_sums_of_a_vector():
    values = np.array([0.5, -1.25, 2.0, 4.0, -0.75])
    clicked = np.array([True, False, False, True, False])
    sums, counts = class_sums(values, clicked)
    assert counts == (2, 3)
    assert np.array_equal(sums, _masked_sums(values, clicked))
    assert np.array_equal(sums, [4.5, 0.0])


@pytest.mark.parametrize("flag", [True, False])
def test_class_sums_with_an_empty_class(flag):
    traces = np.random.default_rng(14).standard_normal((7, 4))
    clicked = np.full(7, flag)
    sums, counts = class_sums(traces, clicked)
    assert counts == ((7, 0) if flag else (0, 7))
    full, empty = (sums[0], sums[1]) if flag else (sums[1], sums[0])
    assert np.array_equal(empty, np.zeros(4))
    np.testing.assert_allclose(full, traces.sum(axis=0), rtol=0, atol=1e-14 * 7)


# ------------------------------------------------------- accumulator

def test_identical_cycles_have_zero_covariance():
    d = np.array([0.5, -0.25, 1.0, 0.75])
    res = accumulate(_paired_cycles([d, d, d]))
    assert np.all(res.cov == 0.0)
    np.testing.assert_array_equal(res.phi_T, d)
    assert res.n_click == 3 and res.n_noclick == 3


def test_covariance_matches_numpy_for_iid_cycles():
    rng = np.random.default_rng(4)
    d = rng.standard_normal((12, 5))
    res = accumulate(_paired_cycles(list(d)))
    expected = np.cov(d, rowvar=False, ddof=1) / 12
    np.testing.assert_allclose(res.cov, expected, rtol=1e-10, atol=1e-18)


def test_cycle_order_does_not_matter():
    rng = np.random.default_rng(5)
    d = rng.standard_normal((9, 4))
    a = accumulate(_paired_cycles(list(d)))
    b = accumulate(_paired_cycles(list(d[::-1])))
    np.testing.assert_allclose(b.cov, a.cov, rtol=1e-12, atol=1e-20)
    np.testing.assert_allclose(b.phi_T, a.phi_T, rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(n_cycles=st.integers(2, 60), seed=st.integers(0, 2**32 - 1))
def test_covariance_holds_at_a_large_mean(n_cycles, seed):
    """Cycles whose mean is 1e6 times their scatter, fed to one
    accumulator: the covariance matches a two-pass math.fsum reference.
    The one-pass sum(d d^T) - n m m^T loses about eps * 1e12 of it here."""
    d = 1e6 + np.random.default_rng(seed).standard_normal((n_cycles, 3))
    acc = Accumulator(3)
    for row in d:
        acc.add_cycle(np.stack([row, np.zeros(3)]), (1, 1))
    res = acc.result()
    mean = [math.fsum(col) / n_cycles for col in d.T]
    dev = d - np.array(mean)  # exact: each entry is within 2x of its mean
    ref = np.array(
        [
            [math.fsum(dev[:, i] * dev[:, j]) for j in range(3)]
            for i in range(3)
        ]
    ) / (n_cycles * (n_cycles - 1))
    np.testing.assert_allclose(res.phi_T, mean, rtol=1e-14)
    assert np.all(res.cov == res.cov.T)
    assert np.max(np.abs(res.cov - ref)) <= 1e-8 * np.max(np.diag(ref))


def test_empty_class_is_rejected():
    """A cycle with an empty class enters neither the mean nor the
    covariance: it is skipped and counted, and the kept cycles give the
    result they give alone."""
    rng = np.random.default_rng(5)
    flags = [True, False, True, False]
    kept = [_Cycle(rng.standard_normal((4, 3)), flags) for _ in range(3)]
    empty = [_Cycle(np.ones((3, 3)), [flag] * 3) for flag in (True, False)]
    acc = Accumulator(3)
    for cyc in empty:
        acc.add_cycle(cyc.sums, cyc.counts)
    assert (acc.n_cycles, acc.n_skipped) == (0, 2)
    with pytest.raises(AnalysisError, match="0 kept, 2 skipped"):
        acc.result()
    res = accumulate([empty[0], *kept[:2], empty[1], kept[2]])
    ref = accumulate(kept)
    assert np.array_equal(res.phi_T, ref.phi_T)
    assert np.array_equal(res.cov, ref.cov)
    assert (res.n_click, res.n_noclick) == (ref.n_click, ref.n_noclick) == (6, 6)
    assert (res.n_skipped, ref.n_skipped) == (2, 0)


def test_result_needs_two_cycles():
    acc = Accumulator(2)
    acc.add_cycle(*class_sums(np.ones((2, 2)), np.array([True, False])))
    with pytest.raises(AnalysisError, match="two cycles"):
        acc.result()


def test_accumulate_rejects_empty_input():
    with pytest.raises(AnalysisError, match="no cycles"):
        accumulate([])


def test_kept_differences_are_per_cycle_rows():
    rng = np.random.default_rng(7)
    d = rng.standard_normal((5, 4))
    res, diffs = accumulate(_paired_cycles(list(d)), keep_differences=True)
    assert diffs.shape == (5, 4)
    np.testing.assert_allclose(diffs, d, rtol=1e-15)
    np.testing.assert_allclose(res.phi_T, d.mean(axis=0), rtol=1e-12)


def test_result_validators():
    with pytest.raises(AnalysisError, match="symmetric"):
        PostSelectedResult(
            phi_T=np.zeros(2),
            cov=np.array([[1.0, 0.1], [0.2, 1.0]]),
        )
    with pytest.raises(AnalysisError, match="negative diagonal"):
        PostSelectedResult(
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


def test_integral_error_diagonal_and_rank_one():
    # window (1, 3) of five samples at dt 2: trapezoid weights J = (1, 2, 1)
    jac = np.array([1.0, 2.0, 1.0])
    var = np.array([9.0, 4.0, 1.0, 0.25, 16.0])
    res = integral_with_error(np.zeros(5), np.diag(var), (1, 3), 2.0)
    assert res.sigma == pytest.approx(np.sqrt(jac**2 @ var[1:4]), rel=1e-14)
    v = np.array([5.0, 1.0, -2.0, 3.0, 7.0])
    res = integral_with_error(np.zeros(5), np.outer(v, v), (1, 3), 2.0)
    assert res.sigma == pytest.approx(abs(jac @ v[1:4]), rel=1e-12)


def test_integral_error_guards():
    # a covariance smaller than the window
    with pytest.raises(AnalysisError, match="shape"):
        integral_with_error(np.ones(3), np.eye(2), (0, 2), 1.0)
    with pytest.raises(AnalysisError, match="negative variance"):
        integral_with_error(np.ones(2), -np.eye(2), (0, 1), 1.0)


def test_integral_error_clamps_rounding_noise():
    # perfectly anticorrelated up to one float step: the quadratic form
    # lands just below zero, inside the rounding band, and must clamp
    c = 1.0 + 1e-15
    cov = np.array([[1.0, -c], [-c, 1.0]])
    jac = np.array([0.5, 0.5])
    assert jac @ cov @ jac < 0.0
    assert integral_with_error(np.ones(2), cov, (0, 1), 1.0).sigma == 0.0


def test_integral_with_error_consistency():
    rng = np.random.default_rng(9)
    trace = rng.standard_normal(10)
    cov = rng.standard_normal((10, 10))
    cov = cov @ cov.T
    dt = 2e-9
    res = integral_with_error(trace, cov, (2, 7), dt)
    jac = np.array([0.5, 1.0, 1.0, 1.0, 1.0, 0.5]) * dt
    assert res.value == pytest.approx(jac @ trace[2:8], rel=1e-14)
    assert res.sigma == pytest.approx(
        np.sqrt(jac @ cov[2:8, 2:8] @ jac), rel=1e-14
    )


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


# ----------------------------------------------------------- alignment

def test_time_align_recovers_injected_shift():
    exp_dt, th_dt = 16e-9, 2e-9
    te = exp_dt * np.arange(36)
    tt = th_dt * np.arange(200)
    # the whole pulse lies inside both records, as a centroid needs
    exp = 0.8 * np.exp(-((te - 350e-9) ** 2) / (2.0 * (40e-9) ** 2))
    theory = -0.5 * np.exp(-((tt - 150e-9) ** 2) / (2.0 * (30e-9) ** 2))
    shift, err = time_align(
        exp, np.zeros((36, 36)), exp_dt, theory, th_dt, exp_t0=-100e-9
    )
    assert shift == pytest.approx(100e-9, rel=1e-6)
    assert err == 0.0


def test_time_align_sigma_matches_scatter():
    # SNR 10: unit peak under white noise of sd 0.1 per sample
    dt = 16e-9
    t = dt * np.arange(36)
    clean = np.exp(-((t - 280e-9) ** 2) / (2.0 * (40e-9) ** 2))
    cov = 0.01 * np.eye(36)
    rng = np.random.default_rng(5)
    out = np.array(
        [
            time_align(clean + 0.1 * rng.standard_normal(36), cov, dt, clean, dt)
            for _ in range(4000)
        ]
    )
    assert abs(np.median(out[:, 0])) < 1e-9
    assert np.median(out[:, 1]) == pytest.approx(np.std(out[:, 0]), rel=0.05)


def test_time_align_rejects_zero_area_trace():
    dt = 1e-9
    bump = np.array([0.0, 1.0, 2.0, 1.0, 0.0])
    with pytest.raises(AnalysisError, match="integrates to zero"):
        time_align(np.array([-1.0, 0.0, 1.0]), np.eye(3), dt, bump, dt)
    with pytest.raises(AnalysisError, match="integrates to zero"):
        time_align(bump, np.eye(5), dt, np.zeros(5), dt)


def test_time_align_rejects_misshapen_cov():
    dt = 1e-9
    bump = np.array([0.0, 1.0, 2.0, 1.0, 0.0])
    for cov in (np.eye(4), np.eye(6), np.ones(5)):
        with pytest.raises(AnalysisError, match="shape"):
            time_align(bump, cov, dt, bump, dt)


# ----------------------------------------------------------- bootstrap

def test_bootstrap_validation():
    with pytest.raises(AnalysisError, match="matrix"):
        bootstrap_sigma(np.ones(5), (0, 2), 1e-9)
    with pytest.raises(AnalysisError, match="matrix"):
        bootstrap_sigma(np.ones((1, 5)), (0, 2), 1e-9)
    # one resample has no spread (ddof=1 would return nan)
    for n_resamples in (0, 1, -3):
        with pytest.raises(AnalysisError, match="two resamples"):
            bootstrap_sigma(np.ones((4, 5)), (0, 2), 1e-9, n_resamples=n_resamples)


def test_bootstrap_tracks_analytic_sigma():
    rng = np.random.default_rng(11)
    d = rng.standard_normal((40, 6))
    window, dt = (1, 4), 2.0
    _, jac = integrate_trapz(d[0], window, dt)
    per_cycle = d[:, 1:5] @ jac[1:5]
    analytic = per_cycle.std(ddof=1) / np.sqrt(d.shape[0])
    boot = bootstrap_sigma(d, window, dt, n_resamples=20000, seed=1)
    assert abs(boot - analytic) / analytic < 0.1


@pytest.mark.parametrize(
    "n_cycles, n_resamples",
    [
        pytest.param(400, 1000, id="1000"),
        pytest.param(400, 2500, id="2500"),
        # 163 rows of 401 cycles: an odd block size, and a last block of 22
        pytest.param(401, 1000, id="odd-rows-times-cycles"),
        # past 65,536 cycles the budget holds less than a row: one per block
        pytest.param(70_001, 5, id="one-row-per-block"),
    ],
)
def test_bootstrap_blocks_match_one_gather(n_cycles, n_resamples):
    """The budgeted gather gives the bytes of the one-matrix reference,
    also when the block does not divide the resample count."""
    d = np.random.default_rng(5).standard_normal((n_cycles, 8))
    window, dt, seed = (2, 6), 1.5, 9
    _, jac = integrate_trapz(d[0], window, dt)
    per_cycle = d[:, 2:7] @ jac[2:7]
    idx = np.random.default_rng(seed).integers(
        0, d.shape[0], size=(n_resamples, d.shape[0])
    )
    reference = float(per_cycle[idx].mean(axis=1).std(ddof=1))
    got = bootstrap_sigma(d, window, dt, n_resamples=n_resamples, seed=seed)
    assert got.hex() == reference.hex()


def _bootstrap_transient(n_cycles: int, n_resamples: int) -> int:
    """Peak bytes bootstrap_sigma allocates beyond its input."""
    d = np.random.default_rng(4).standard_normal((n_cycles, 36))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        bootstrap_sigma(d, (3, 30), 1e-9, n_resamples=n_resamples, seed=2)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_bootstrap_memory_is_a_fixed_budget():
    """The gathered matrices stay within the byte budget at any cycle
    count: only the per-cycle and per-resample vectors grow. A gather of
    fixed row count would grow 20-fold from 1,000 to 20,000 cycles."""
    n_resamples = 200
    small, large = (_bootstrap_transient(n, n_resamples) for n in (1000, 20_000))
    for n, peak in ((1000, small), (20_000, large)):
        vectors = 8 * (n + n_resamples)
        assert peak <= analysis._GATHER_BYTES + vectors + (64 << 10), (n, peak)
    assert large <= 1.25 * small, (small, large)
