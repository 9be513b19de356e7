from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negdelay import pulse as pulse_module
from negdelay.errors import ConfigError
from negdelay.excitation import spectral_report
from negdelay.pulse import (
    STEP_LIFETIME_FRACTION,
    STEP_SIGMA_FRACTION,
    PulseSpec,
    SampledSignal,
    gaussian_field,
)


def test_unit_normalization(run):
    sig = gaussian_field(run.pulse, run.medium.gamma)
    assert np.sum(np.abs(sig.samples) ** 2) * sig.dt == pytest.approx(1.0, rel=1e-12)


def test_intensity_rms_duration(run):
    sig = gaussian_field(run.pulse, run.medium.gamma)
    t = sig.axis()
    w = np.abs(sig.samples) ** 2
    mean = np.sum(t * w) / np.sum(w)
    rms = np.sqrt(np.sum((t - mean) ** 2 * w) / np.sum(w))
    assert rms == pytest.approx(run.pulse.sigma_rms, rel=1e-3)


def test_spectral_rms_matches_convention(run):
    # intensity-rms sigma in time pairs with 1/(2 sigma) in frequency
    sig = gaussian_field(run.pulse, run.medium.gamma)
    d = 2.0 * np.pi * np.fft.fftfreq(sig.n, d=sig.dt)
    w = np.abs(np.fft.ifft(sig.samples)) ** 2
    mean = np.sum(d * w) / np.sum(w)
    rms = np.sqrt(np.sum((d - mean) ** 2 * w) / np.sum(w))
    assert rms == pytest.approx(1.0 / (2.0 * run.pulse.sigma_rms), rel=5e-3)


@pytest.mark.parametrize(
    "sigma, n, accepted",
    [
        (10e-9, 2, False),  # one of two samples is the largest
        (300e-9, 2, False),
        (10e-9, 4, False),  # the pulse falls between samples
        (27e-9, 4, True),
        (50e-9, 4, True),
        (300e-9, 4, False),  # last sample within 6 sigma of the peak
        (10e-9, 8, True),
        (10e-9, 4096, True),
    ],
)
def test_fixed_span_grid_acceptance(sigma, n, accepted):
    """The fixed [-9 sigma, 9 sigma + 15/gamma) grid accepts exactly the
    (sigma, n) that the former span preconditions plus the edge guard
    accepted, at gamma = 1/26 ns."""
    pulse, gamma = PulseSpec(sigma_rms=sigma), 1.0 / 26e-9
    if accepted:
        sig = gaussian_field(pulse, gamma, n=n)
        assert sig.t0 == -9.0 * sigma
        assert sig.n * sig.dt == pytest.approx(18.0 * sigma + 15.0 / gamma)
    else:
        with pytest.raises(ConfigError, match=f"{n}-sample grid is too coarse"):
            gaussian_field(pulse, gamma, n=n)


def test_fine_grid_choices(run):
    for sigma, n in [(10e-9, 4096), (150e-9, 8192), (300e-9, 16384), (700e-9, 32768)]:
        sig = gaussian_field(PulseSpec(sigma_rms=sigma), run.medium.gamma)
        assert sig.n == n
        assert sig.dt <= STEP_SIGMA_FRACTION * sigma
        assert sig.dt <= STEP_LIFETIME_FRACTION / run.medium.gamma


def test_fine_grid_step_regimes(run):
    """With no n the step is the least power-of-two refinement under the
    tighter ceiling: the pulse duration for a short pulse, the lifetime
    for a long one."""
    ceilings = {
        2e-9: STEP_SIGMA_FRACTION * 2e-9,
        700e-9: STEP_LIFETIME_FRACTION / run.medium.gamma,
    }
    for sigma, ceiling in ceilings.items():
        sig = gaussian_field(PulseSpec(sigma_rms=sigma), run.medium.gamma)
        assert sig.n > 4096
        assert ceiling / 2.0 < sig.dt <= ceiling


def test_fine_grid_ceiling(run, monkeypatch):
    """The ceiling is checked before any sample is allocated: a grid just
    within it is built, one just past it and the unbounded ones at extreme
    linewidths are refused."""
    assert pulse_module.MAX_GRID_POINTS >= 8 * 32768
    # 700 ns needs 32768 samples: refused under a 16384 ceiling
    long_pulse = PulseSpec(sigma_rms=700e-9)
    monkeypatch.setattr(pulse_module, "MAX_GRID_POINTS", 32768)
    assert gaussian_field(long_pulse, run.medium.gamma).n == 32768
    monkeypatch.setattr(pulse_module, "MAX_GRID_POINTS", 16384)
    with pytest.raises(ConfigError, match="linewidth .* grid samples"):
        gaussian_field(long_pulse, run.medium.gamma)
    monkeypatch.undo()
    for gamma in (1e-5, 1e300):
        with pytest.raises(ConfigError, match="linewidth .* grid samples"):
            gaussian_field(run.pulse, gamma)


@pytest.mark.parametrize("n", [0, 1])
def test_sample_count_of_at_least_two_required(n):
    with pytest.raises(ConfigError, match="sample count must be >= 2"):
        SampledSignal(dt=1e-9, t0=0.0, samples=np.zeros(n, np.complex128))


def test_sample_step_must_be_positive():
    with pytest.raises(ConfigError, match="sample step"):
        SampledSignal(dt=0.0, t0=0.0, samples=np.zeros(4, np.complex128))


def test_pulse_spec_validation():
    with pytest.raises(ConfigError, match="sigma_rms"):
        PulseSpec(sigma_rms=0.0)
    with pytest.raises(ConfigError, match="sigma_rms"):
        PulseSpec(sigma_rms=float("nan"))


@pytest.mark.parametrize("od,gate", [(1.0, 2e-3), (2.0, 4e-3)])
def test_narrowband_transmission_is_beer_lambert(run, od, gate):
    m = replace(run.medium, od=od)
    sig = gaussian_field(PulseSpec(sigma_rms=700e-9), m.gamma, n=32768)
    tbar = spectral_report(sig, m).transmission
    assert abs(tbar - np.exp(-od)) / np.exp(-od) < gate


def test_transmission_grid_doubling_converged(run):
    coarse = gaussian_field(run.pulse, run.medium.gamma, n=4096)
    fine = gaussian_field(run.pulse, run.medium.gamma, n=8192)
    t_coarse = spectral_report(coarse, run.medium).transmission
    t_fine = spectral_report(fine, run.medium).transmission
    assert abs(t_fine - t_coarse) < 1e-8


def test_time_shift_covariance(run):
    """Delaying the input leaves the mean transmission unchanged."""
    sig = gaussian_field(run.pulse, run.medium.gamma)
    k = 64
    shifted = SampledSignal(dt=sig.dt, t0=sig.t0, samples=np.roll(sig.samples, k))
    assert spectral_report(shifted, run.medium).transmission == pytest.approx(
        spectral_report(sig, run.medium).transmission, rel=1e-12
    )


def test_zero_depth_propagation_is_identity(run):
    m = replace(run.medium, od=0.0)
    sig = gaussian_field(run.pulse, m.gamma)
    assert spectral_report(sig, m).transmission == pytest.approx(1.0, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    sigma=st.floats(5e-9, 5e-8),
    od=st.floats(0.0, 6.0),
    det=st.floats(-4e7, 4e7),
)
def test_transmission_stays_in_unit_interval(run, sigma, od, det):
    m = replace(run.medium, od=od)
    sig = gaussian_field(
        PulseSpec(sigma_rms=sigma, center_detuning=det), m.gamma
    )
    tbar = spectral_report(sig, m).transmission
    assert 0.0 < tbar <= 1.0
