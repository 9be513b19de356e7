"""Slab-model observables: conservation bookkeeping, parity of the
real-arithmetic slab amplitudes with a complex-FFT reference, the spectral
excitation-time estimators and the probe-phase conversion."""

from dataclasses import replace

import numpy as np
import pytest

from negdelay.errors import ConfigError
from negdelay.excitation import (
    ExcitationTrace,
    excited_population,
    phi0_trace,
    spectral_report,
)
from negdelay.medium import conversion_factor, group_delay, transfer_function
from negdelay.montecarlo import fine_signal
from negdelay.pulse import PulseSpec, gaussian_field


def _frequencies(sig):
    """Angular frequencies of the pulse grid's DFT bins, in FFT order."""
    return 2.0 * np.pi * np.fft.fftfreq(sig.n, d=sig.dt)


def test_conservation_at_default_point(run, fine_sig):
    tbar = spectral_report(fine_sig, run.medium).transmission
    integral = excited_population(fine_sig, run.medium).integral()
    assert run.medium.gamma * integral + tbar == pytest.approx(1.0, abs=1e-4)


def test_conservation_for_detuned_pulse(run):
    m = replace(run.medium, od=3.0)
    pulse = PulseSpec(sigma_rms=18e-9, center_detuning=m.gamma / 2.0)
    sig = fine_signal(m, pulse)
    tbar = spectral_report(sig, m).transmission
    integral = excited_population(sig, m).integral()
    assert m.gamma * integral + tbar == pytest.approx(1.0, abs=1e-4)


def _complex_slab_population(sig, medium):
    """Reference slab model on full-length complex transforms of the
    complex field, as the ``negdelay.excitation`` docstring writes it."""
    n = sig.n
    delta = _frequencies(sig)
    kernel = (np.sqrt(medium.gamma) / 2.0) / (medium.gamma / 2.0 - 1j * delta)
    base = np.fft.ifft(sig.samples) * kernel
    w = medium.od / medium.n_slabs
    values = np.zeros(n)
    for k in range(medium.n_slabs):
        ck = np.fft.fft(
            base * transfer_function(delta, w * (k + 0.5), medium.gamma)
        )
        values += w * (ck.real**2 + ck.imag**2)
    return values


_PARITY_CASES = [
    (36.0, 4.0, 0.0, None),
    (10.0, 8.0, 0.0, None),
    (150.0, 0.5, 0.0, None),
    # a complex field: its real and imaginary parts excite the slabs apart
    (18.0, 3.0, 0.5, None),
    # an odd grid
    (36.0, 4.0, 0.0, 4095),
]


@pytest.mark.parametrize(
    "sigma_ns, od, detuning, n",
    _PARITY_CASES,
    ids=[
        "-".join(map(str, case[:3])) + (f"-n{case[3]}" if case[3] else "")
        for case in _PARITY_CASES
    ],
)
def test_real_transforms_match_complex_reference(run, sigma_ns, od, detuning, n):
    m = replace(run.medium, od=od)
    pulse = PulseSpec(
        sigma_rms=sigma_ns * 1e-9, center_detuning=detuning * m.gamma
    )
    # the default grid is fine_signal's; an explicit n overrides it
    sig = fine_signal(m, pulse) if n is None else gaussian_field(pulse, m.gamma, n=n)
    got = excited_population(sig, m).values
    ref = _complex_slab_population(sig, m)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(ref)


def test_excitation_trace_bounds():
    ExcitationTrace(dt=1e-9, values=np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ConfigError, match="lie in"):
        ExcitationTrace(dt=1e-9, values=np.array([-1e-3, 0.5]))
    with pytest.raises(ConfigError, match="lie in"):
        ExcitationTrace(dt=1e-9, values=np.array([0.5, 1.1]))


def test_frozen_default_observables(run, fine_sig):
    rep = spectral_report(fine_sig, run.medium)
    assert rep.tau_0 == pytest.approx(1.571573849993308e-08, rel=1e-12)
    assert rep.tau_T == pytest.approx(6.2704946467791876e-09, rel=1e-12)
    assert rep.ratio == pytest.approx(0.3989945904741218, rel=1e-12)
    assert rep.transmission == pytest.approx(0.3955485192333433, rel=1e-12)


def test_spectral_report_transforms_once(run, fine_sig, monkeypatch):
    calls = []
    ifft = np.fft.ifft

    def counted(*args, **kwargs):
        calls.append(1)
        return ifft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", counted)
    spectral_report(fine_sig, run.medium)
    assert len(calls) == 1


def test_zero_depth_report(run):
    m = replace(run.medium, od=0.0)
    sig = fine_signal(m, run.pulse)
    rep = spectral_report(sig, m)
    assert rep.tau_0 == 0.0
    assert rep.tau_T == 0.0
    assert np.isnan(rep.ratio)


def test_sign_structure(run):
    narrow = spectral_report(fine_signal(run.medium, run.pulse), run.medium)
    assert narrow.ratio > 0.0
    m = replace(run.medium, od=3.0)
    broad = spectral_report(fine_signal(m, PulseSpec(sigma_rms=36e-9)), m)
    assert broad.ratio < 0.0


def test_transmitted_time_monotone_in_depth(run):
    """Narrowband tau_T tracks -od/Gamma: deeper clouds, more negative."""
    pulse = PulseSpec(sigma_rms=300e-9)
    taus = []
    for od in (1.0, 2.0, 3.0):
        m = replace(run.medium, od=od)
        taus.append(spectral_report(fine_signal(m, pulse), m).tau_T)
    assert taus[0] > taus[1] > taus[2]
    assert taus[2] < 0.0


def test_ratio_crosses_zero_with_duration(run):
    m = replace(run.medium, od=3.0)
    ratios = [
        spectral_report(fine_signal(m, PulseSpec(sigma_rms=s * 1e-9)), m).ratio
        for s in (10.0, 18.0, 27.0, 36.0)
    ]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[0] > 0.0
    assert ratios[-1] < 0.0


def test_vanishing_depth_limit_weights_by_input_spectrum(run):
    m = replace(run.medium, od=1e-9)
    sig = fine_signal(m, run.pulse)
    tau = spectral_report(sig, m).tau_T
    delta = _frequencies(sig)
    w = np.abs(np.fft.ifft(sig.samples)) ** 2
    expected = float(
        np.sum(w * group_delay(delta, m.od, m.gamma)) / np.sum(w)
    )
    assert tau == pytest.approx(expected, rel=1e-6)


def _slab_doubling_change(sig, medium):
    """Relative change of integral(N_e dt) from n_slabs to 2 * n_slabs."""
    a = excited_population(sig, medium).integral()
    doubled = replace(medium, n_slabs=2 * medium.n_slabs)
    b = excited_population(sig, doubled).integral()
    return abs(b - a) / abs(b)


def test_slab_convergence_at_default_count(run, fine_sig):
    assert _slab_doubling_change(fine_sig, run.medium) < 1e-3


def test_slab_convergence_rejects_coarse_clouds(run, fine_sig):
    m = replace(run.medium, n_slabs=2)
    assert _slab_doubling_change(fine_sig, m) > 1e-3


def test_phi0_is_scaled_population(run, fine_sig):
    ne = excited_population(fine_sig, run.medium).values
    np.testing.assert_allclose(
        phi0_trace(fine_sig, run.medium),
        conversion_factor(run.medium) * ne,
        rtol=1e-14,
    )


def test_default_scale_anchors_27ns_peak(run):
    """The shipped sigma0/A puts the unconditioned phase peak of the
    27 ns / od 4 operating point at exactly 15 urad."""
    sig = fine_signal(run.medium, PulseSpec(sigma_rms=27e-9))
    peak = np.abs(phi0_trace(sig, run.medium)).max()
    assert peak == pytest.approx(15e-6, rel=1e-12)

