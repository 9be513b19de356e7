"""Excited-population observables: conservation bookkeeping, the
Gauss-Legendre depth rule against numpy's and against a midpoint-slab
sum, parity of the real-arithmetic layer amplitudes with a complex-FFT
reference, the spectral excitation-time estimators and the probe-phase
conversion."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from fields import complex_field
from negdelay import excitation
from negdelay.errors import ConfigError
from negdelay.excitation import _gauss_legendre, phi0_trace, spectral_report
from negdelay.medium import conversion_factor, group_delay, transfer_function
from negdelay.pulse import PulseSpec, SampledSignal, gaussian_field


def _frequencies(sig):
    """Angular frequencies of the pulse grid's DFT bins, in FFT order."""
    return 2.0 * np.pi * np.fft.fftfreq(sig.n, d=sig.dt)


def _population(sig, medium):
    """N_e(t) per incident photon, read off phi_0 = C N_e."""
    return phi0_trace(sig, medium) / conversion_factor(medium)


def test_conservation_at_default_point(run, fine_sig):
    tbar = spectral_report(fine_sig, run.medium).transmission
    integral = np.sum(_population(fine_sig, run.medium)) * fine_sig.dt
    assert run.medium.gamma * integral + tbar == pytest.approx(1.0, abs=1e-4)


def test_conservation_for_detuned_pulse(run):
    m = replace(run.medium, od=3.0)
    pulse = PulseSpec(sigma_rms=18e-9, center_detuning=m.gamma / 2.0)
    sig = gaussian_field(pulse, m.gamma)
    tbar = spectral_report(sig, m).transmission
    integral = np.sum(_population(sig, m)) * sig.dt
    assert m.gamma * integral + tbar == pytest.approx(1.0, abs=1e-4)


def _complex_population(sig, medium, depths, weights):
    """Reference depth sum on full-length complex transforms of the
    complex field, sum_k w_k |c(z_k, t)|^2 as the ``negdelay.excitation``
    docstring writes it, at the given depths z_k and weights w_k."""
    delta = _frequencies(sig)
    kernel = (np.sqrt(medium.gamma) / 2.0) / (medium.gamma / 2.0 - 1j * delta)
    base = np.fft.ifft(complex_field(sig)) * kernel
    values = np.zeros(sig.n)
    for z, w in zip(depths, weights):
        ck = np.fft.fft(base * transfer_function(delta, z, medium.gamma))
        values += w * (ck.real**2 + ck.imag**2)
    return values


def _midpoint_population(sig, medium, slabs):
    """The depth integral as a sum over ``slabs`` equal midpoint slabs."""
    w = medium.od / slabs
    depths = w * (np.arange(slabs) + 0.5)
    return _complex_population(sig, medium, depths, np.full(slabs, w))


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
    # n = None picks the fine grid; an explicit n overrides it
    sig = gaussian_field(pulse, m.gamma, n=n)
    got = _population(sig, m)
    # numpy's rule, an independent source of the same nodes
    x, w = leggauss(excitation._DEPTH_RULE[0].size)
    ref = _complex_population(sig, m, m.od / 2.0 * (x + 1.0), m.od / 2.0 * w)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(ref)


def test_population_guard(run, fine_sig):
    """A field of ten times the amplitude carries a hundred photons, more
    than one excitation: N_e leaves [0, 1]."""
    loud = SampledSignal(fine_sig.dt, fine_sig.t0, 10.0 * fine_sig.parts)
    with pytest.raises(ConfigError, match="lie in"):
        phi0_trace(loud, run.medium)


def test_frozen_default_observables(run, fine_sig):
    rep = spectral_report(fine_sig, run.medium)
    assert rep.tau_0 == pytest.approx(1.571573849993308e-08, rel=1e-12)
    assert rep.tau_T == pytest.approx(6.2704946467791876e-09, rel=1e-12)
    assert rep.tau_T / rep.tau_0 == pytest.approx(0.3989945904741218, rel=1e-12)
    assert rep.transmission == pytest.approx(0.3955485192333433, rel=1e-12)


def test_spectral_report_transforms_once(run, fine_sig, monkeypatch):
    calls = []
    rfft = np.fft.rfft

    def counted(*args, **kwargs):
        calls.append(1)
        return rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    spectral_report(fine_sig, run.medium)
    assert len(calls) == 1


def _complex_report(sig, medium):
    """Reference (T, tau_0, tau_T) from the full spectrum of the complex
    field on ifft's convention, delta = +2 pi fftfreq: the formula the
    spectral route used before it summed the half spectrum of each part."""
    delta = _frequencies(sig)
    spectrum = np.fft.ifft(complex_field(sig))
    t = transfer_function(delta, medium.od, medium.gamma)
    w = np.abs(spectrum) ** 2
    tbar = float(np.sum(w * np.abs(t) ** 2) / np.sum(w))
    w_out = np.abs(spectrum * t) ** 2
    tg = group_delay(delta, medium.od, medium.gamma)
    return tbar, (1.0 - tbar) / medium.gamma, float(np.sum(w_out * tg) / np.sum(w_out))


_REPORT_CASES = [
    # sigma ns, od, carrier detuning / gamma, grid length (None: fine grid)
    (10.0, 4.0, 0.0, None),
    (2.0, 4.0, 0.0, None),
    (300.0, 4.0, 0.0, None),
    (10.0, 0.0, 0.0, None),
    (10.0, 16.0, 0.0, None),
    (2.0, 16.0, 0.25, None),
    (18.0, 2.0, 0.25, None),
    (36.0, 4.0, 0.5, None),
    (150.0, 0.5, 0.1, None),
    (10.0, 4.0, 0.0, 4095),
    (10.0, 4.0, 0.25, 4097),
    (10.0, 8.0, 0.0, 6561),
    (27.0, 4.0, 0.25, 8192),
    # a grid coarse enough that its Nyquist bin holds 1% of the power
    (2.0, 4.0, 0.0, 64),
]


@pytest.mark.parametrize(
    "sigma_ns, od, detuning, n",
    _REPORT_CASES,
    ids=[
        "-".join(map(str, case[:3])) + (f"-n{case[3]}" if case[3] else "")
        for case in _REPORT_CASES
    ],
)
def test_half_spectrum_report_matches_complex_reference(
    run, sigma_ns, od, detuning, n
):
    """Each part's spectrum is Hermitian and |t|^2 and tau_g are even, so
    the half spectrum of the parts sums to the full complex spectrum;
    detuned carriers check that the parts' cross term cancels, odd
    lengths that no Nyquist bin is counted and a coarse even grid that
    its Nyquist bin is counted once."""
    m = replace(run.medium, od=od)
    pulse = PulseSpec(sigma_rms=sigma_ns * 1e-9, center_detuning=detuning * m.gamma)
    sig = gaussian_field(pulse, m.gamma, n=n)
    rep = spectral_report(sig, m)
    tbar, tau_0, tau_t = _complex_report(sig, m)
    assert abs(rep.transmission - tbar) <= 1e-14
    assert abs(rep.tau_0 - tau_0) <= 1e-14 / m.gamma
    assert abs(rep.tau_T - tau_t) <= 1e-13 * tau_0


def test_zero_depth_report(run):
    m = replace(run.medium, od=0.0)
    sig = gaussian_field(run.pulse, m.gamma)
    rep = spectral_report(sig, m)
    assert rep.tau_0 == 0.0
    assert rep.tau_T == 0.0


def test_sign_structure(run):
    narrow = spectral_report(gaussian_field(run.pulse, run.medium.gamma), run.medium)
    assert narrow.tau_T / narrow.tau_0 > 0.0
    m = replace(run.medium, od=3.0)
    broad = spectral_report(gaussian_field(PulseSpec(sigma_rms=36e-9), m.gamma), m)
    assert broad.tau_T / broad.tau_0 < 0.0


def test_transmitted_time_monotone_in_depth(run):
    """Narrowband tau_T tracks -od/Gamma: deeper clouds, more negative."""
    pulse = PulseSpec(sigma_rms=300e-9)
    taus = []
    for od in (1.0, 2.0, 3.0):
        m = replace(run.medium, od=od)
        taus.append(spectral_report(gaussian_field(pulse, m.gamma), m).tau_T)
    assert taus[0] > taus[1] > taus[2]
    assert taus[2] < 0.0


def test_ratio_crosses_zero_with_duration(run):
    m = replace(run.medium, od=3.0)
    reports = [
        spectral_report(gaussian_field(PulseSpec(sigma_rms=s * 1e-9), m.gamma), m)
        for s in (10.0, 18.0, 27.0, 36.0)
    ]
    ratios = [rep.tau_T / rep.tau_0 for rep in reports]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[0] > 0.0
    assert ratios[-1] < 0.0


def test_vanishing_depth_limit_weights_by_input_spectrum(run):
    m = replace(run.medium, od=1e-9)
    sig = gaussian_field(run.pulse, m.gamma)
    tau = spectral_report(sig, m).tau_T
    delta = _frequencies(sig)
    w = np.abs(np.fft.ifft(complex_field(sig))) ** 2
    expected = float(
        np.sum(w * group_delay(delta, m.od, m.gamma)) / np.sum(w)
    )
    assert tau == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("n", [4, 16, 64])
def test_gauss_legendre_matches_numpy(n):
    x, w = _gauss_legendre(n)
    ref_x, ref_w = leggauss(n)
    assert np.max(np.abs(x - ref_x)) <= 1e-14
    assert np.max(np.abs(w - ref_w)) <= 1e-14


def _node_count_change(run, od, coarse, fine, monkeypatch):
    """Largest change of N_e from ``coarse`` to ``fine`` depth nodes at
    the default pulse, relative to the N_e peak."""
    m = replace(run.medium, od=od)
    sig = gaussian_field(run.pulse, m.gamma)
    monkeypatch.setattr(excitation, "_DEPTH_RULE", _gauss_legendre(coarse))
    a = _population(sig, m)
    monkeypatch.setattr(excitation, "_DEPTH_RULE", _gauss_legendre(fine))
    b = _population(sig, m)
    return np.max(np.abs(a - b)) / np.max(b)


@pytest.mark.parametrize("od", [4.0, 8.0, 32.0])
def test_depth_nodes_converge(run, od, monkeypatch):
    """The shipped rule has converged: eight more nodes move nothing."""
    nodes = excitation._DEPTH_RULE[0].size
    assert _node_count_change(run, od, nodes, nodes + 8, monkeypatch) <= 1e-12


def test_coarse_depth_rule_is_flagged(run, monkeypatch):
    assert _node_count_change(run, 8.0, 4, 16, monkeypatch) > 1e-6


def test_phi0_is_scaled_population(run, fine_sig):
    """phi_0 / C against an independent depth sum: midpoint slabs, whose
    error is even in the slab width, Richardson-extrapolated from 256 and
    512 slabs."""
    coarse = _midpoint_population(fine_sig, run.medium, 256)
    fine = _midpoint_population(fine_sig, run.medium, 512)
    ref = (4.0 * fine - coarse) / 3.0
    got = _population(fine_sig, run.medium)
    assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(ref)


def test_default_scale_anchors_27ns_peak(run):
    """The shipped sigma0/A puts the unconditioned phase peak of the
    27 ns / od 4 operating point at exactly 15 urad."""
    sig = gaussian_field(PulseSpec(sigma_rms=27e-9), run.medium.gamma)
    peak = np.abs(phi0_trace(sig, run.medium)).max()
    assert peak == pytest.approx(15e-6, rel=1e-12)

