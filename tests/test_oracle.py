"""Discrete-emitter chain: calibration exactness, agreement with the
spectral route, conservation, grid invariances, the FFT frame length,
parity of the FFT cascade with a bin-by-bin step loop, and parity of its
real-arithmetic transforms with a complex-FFT reference cascade."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negdelay.errors import ConfigError, ConvergenceError
from negdelay.excitation import phi0_trace, spectral_report
from negdelay.medium import conversion_factor
from negdelay.oracle import (
    MAX_OD_PER_ATOM,
    PAD_LIFETIMES,
    _frame_length,
    build_model,
    weak_excitation_trace,
)
from negdelay.pulse import (
    STEP_LIFETIME_FRACTION,
    PulseSpec,
    SampledSignal,
    gaussian_field,
)

GAMMA = 1.0 / 26e-9


def _resonant_amplitude(theta, gamma_side, dt):
    """Steady-state resonant amplitude ratio of one calibrated emitter."""
    d = np.exp(-gamma_side * dt / 2.0)
    return float((np.cos(theta) - d) / (1.0 - d * np.cos(theta)))


@pytest.mark.parametrize("od1", [1e-4, 0.01, 0.0625, 0.2, 0.25])
@pytest.mark.parametrize("dt", [5.2e-10, 1.3916015625e-10, 5e-11])
def test_calibration_hits_beer_lambert_amplitude(run, od1, dt):
    m = replace(run.medium, od=od1, gamma=GAMMA)
    theta, gamma_side = build_model(m, dt, 1)
    got = _resonant_amplitude(theta, gamma_side, dt)
    assert abs(got - np.exp(-od1 / 2.0)) < 1e-12
    assert theta > 0.0
    assert gamma_side >= 0.0


@pytest.mark.parametrize("od1", [0.0, 1e-4, 0.01, 0.0625, 0.2, MAX_OD_PER_ATOM])
@pytest.mark.parametrize("dt", [5e-11, 1.3916015625e-10, "max"])
def test_calibration_is_exact_in_40_digits(run, od1, dt):
    """The calibrated angle and side rate, taken as exact numbers, give a
    resonant amplitude ratio within 1e-15 of exp(-od_1 / 2), evaluated in
    40-digit arithmetic, from the bracket [0, sqrt(gamma dt)]."""
    m = replace(run.medium, od=od1)
    if dt == "max":
        dt = STEP_LIFETIME_FRACTION / m.gamma
    theta, gamma_side = build_model(m, dt, 1)
    assert 0.0 <= theta <= math.sqrt(m.gamma * dt)
    assert gamma_side >= 0.0
    if od1 == 0.0:
        assert theta == 0.0 and gamma_side == m.gamma
    with mpmath.workdps(40):
        d = mpmath.exp(-mpmath.mpf(gamma_side) * mpmath.mpf(dt) / 2)
        c = mpmath.cos(mpmath.mpf(theta))
        miss = (c - d) / (1 - d * c) - mpmath.exp(-mpmath.mpf(od1) / 2)
        assert abs(miss) <= 1e-15


def test_build_model_rejects_strong_per_emitter_coupling(run, fine_sig):
    with pytest.raises(ConvergenceError, match="increase n_atoms"):
        build_model(run.medium, fine_sig.dt, n_atoms=8)
    assert run.medium.od / 8 > MAX_OD_PER_ATOM


def test_build_model_validation(run, fine_sig):
    with pytest.raises(ConvergenceError, match="at least one emitter"):
        build_model(run.medium, fine_sig.dt, n_atoms=0)
    with pytest.raises(ConfigError, match="time step must be positive"):
        build_model(run.medium, 0.0, run.n_atoms)
    with pytest.raises(ConfigError, match="time step .* exceeds"):
        build_model(run.medium, 1e-9, run.n_atoms)


def test_single_emitter_long_pulse_transmission(run):
    """One emitter driven far below linewidth must reproduce exp(-od)."""
    m = replace(run.medium, od=0.0625)
    sig = gaussian_field(PulseSpec(sigma_rms=2e-6), m.gamma, n=131072)
    tr = weak_excitation_trace(sig, m, n_atoms=1)
    assert abs(tr.transmission - np.exp(-0.0625)) < 1e-4


def test_narrowband_time_approaches_group_delay(run):
    m = replace(run.medium, od=2.0)
    sig = gaussian_field(PulseSpec(sigma_rms=300e-9), m.gamma)
    tau = weak_excitation_trace(sig, m, run.n_atoms).tau_transmitted()
    assert abs(tau + 52e-9) < 0.05 * 52e-9
    assert tau == pytest.approx(-5.121833787409131e-08, rel=1e-9)


def test_matches_spectral_route_at_default_point(run, fine_sig, weak):
    rep = spectral_report(fine_sig, run.medium)
    assert abs(weak.tau_transmitted() - rep.tau_T) < 0.01 * rep.tau_0
    assert abs(weak.transmission - rep.transmission) < 0.01


def test_chain_conserves_probability(run, fine_sig, weak):
    _, gamma_side = build_model(run.medium, fine_sig.dt, run.n_atoms)
    total = weak.transmission + gamma_side * weak.tau_unconditioned()
    assert abs(total - 1.0) < 2e-6


def test_trace_endpoint_structure(fine_sig, weak):
    assert weak.population[0] == 0.0
    assert weak.population[-1] <= 1e-6
    assert weak.weak[-1] == 0.0
    assert len(weak.weak) == fine_sig.n + 1
    assert len(weak.population) == fine_sig.n + 1
    assert weak.axis()[0] == fine_sig.t0 - 0.5 * fine_sig.dt


@pytest.mark.parametrize(
    "sigma_ns, od, floor", [(10, 4.0, 7.1e-5), (36, 3.0, 2.7e-5), (150, 4.0, 1.4e-5)]
)
def test_extrapolated_chain_meets_the_slab_population_on_its_axis(
    run, sigma_ns, od, floor
):
    """The chain's N_e, Richardson-extrapolated in emitter count as
    2 N_e(128) - N_e(64), read at the times ``axis()`` gives and
    interpolated onto the pulse grid, matches the population of the
    depth quadrature, phi_0 / C, which shares no code with it. A half-step
    offset of the axis leaves a gap of 3.4e-3, 2.0e-3 and 7.5e-4 of the
    peak at these points; read at the right times the gaps are the
    ``floor`` values, and the gate is 2.5e-4 of the peak."""
    m = replace(run.medium, od=od)
    sig = gaussian_field(replace(run.pulse, sigma_rms=sigma_ns * 1e-9), m.gamma)
    coarse, fine = (weak_excitation_trace(sig, m, n) for n in (64, 128))
    extrapolated = 2.0 * fine.population - coarse.population
    got = np.interp(sig.axis(), coarse.axis(), extrapolated)
    want = phi0_trace(sig, m) / conversion_factor(m)
    gap = np.abs(got - want).max() / want.max()
    assert gap < 2.5e-4
    assert gap < 1.5 * floor


def test_truncated_ringdown_is_rejected(run, fine_sig):
    shifted = SampledSignal(
        dt=fine_sig.dt,
        t0=fine_sig.t0,
        samples=np.roll(fine_sig.samples, 3000),
    )
    with pytest.raises(ConfigError, match="residual excitation"):
        weak_excitation_trace(shifted, run.medium, run.n_atoms)


def test_two_tone_mixture_averages_frequency_diagonally(run):
    """Non-overlapping spectral components contribute independently,
    weighted by their transmitted power."""
    m = replace(run.medium, od=3.0)
    pa = PulseSpec(sigma_rms=150e-9)
    pb = PulseSpec(sigma_rms=150e-9, center_detuning=m.gamma)
    sa = gaussian_field(pa, m.gamma, n=8192)
    sb = gaussian_field(pb, m.gamma, n=8192)
    tra = weak_excitation_trace(sa, m, run.n_atoms)
    trb = weak_excitation_trace(sb, m, run.n_atoms)
    mix = SampledSignal(dt=sa.dt, t0=sa.t0, samples=sa.samples + sb.samples)
    trm = weak_excitation_trace(mix, m, run.n_atoms)
    expected = (
        tra.transmission * tra.tau_transmitted()
        + trb.transmission * trb.tau_transmitted()
    ) / (tra.transmission + trb.transmission)
    assert abs(trm.tau_transmitted() - expected) / abs(expected) < 0.03


def test_emitter_count_convergence(run, fine_sig, weak):
    finer = weak_excitation_trace(fine_sig, run.medium, n_atoms=128)
    a, b = weak.tau_transmitted(), finer.tau_transmitted()
    assert abs(b - a) / abs(b) < 0.02


def test_time_step_convergence(run):
    coarse = gaussian_field(run.pulse, run.medium.gamma, n=4096)
    fine = gaussian_field(run.pulse, run.medium.gamma, n=8192)
    a = weak_excitation_trace(coarse, run.medium, run.n_atoms).tau_transmitted()
    b = weak_excitation_trace(fine, run.medium, run.n_atoms).tau_transmitted()
    assert abs(b - a) / abs(b) < 0.01


def test_conditional_trace_goes_negative(run):
    m = replace(run.medium, od=3.0)
    sig = gaussian_field(PulseSpec(sigma_rms=36e-9), m.gamma)
    tr = weak_excitation_trace(sig, m, run.n_atoms)
    assert tr.weak.min() < 0.0
    assert tr.population.min() >= 0.0


def test_decimated_trace_keeps_the_integral(weak):
    coarse = np.trapezoid(weak.weak[::4], dx=4.0 * weak.dt)
    full = weak.tau_transmitted()
    assert abs(coarse - full) / abs(full) < 0.01


def _is_5_smooth(k):
    for p in (2, 3, 5):
        while k % p == 0:
            k //= p
    return k == 1


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 1 << 18),
    gamma=st.floats(1e5, 1e10),
    gamma_dt=st.floats(1e-4, STEP_LIFETIME_FRACTION),
)
def test_frame_length_is_smallest_fast_length(n, gamma, gamma_dt):
    """The frame is 5-smooth, holds the grid and PAD_LIFETIMES of
    ringdown, and never exceeds the next power of two, which keeps the
    2**21-point frame bound stated at pulse.MAX_GRID_POINTS."""
    dt = gamma_dt / gamma
    need = n + math.ceil(PAD_LIFETIMES / (gamma * dt))
    size = _frame_length(n, gamma, dt)
    assert _is_5_smooth(size)
    assert size >= need
    assert size <= 1 << (need - 1).bit_length()
    # smallest: no 5-smooth length lies between the need and the frame
    assert not any(_is_5_smooth(k) for k in range(need, size))


def test_frame_length_at_the_theory_pulses(run):
    sizes = []
    for sigma_ns in (5.0, 10.0, 36.0, 150.0):
        pulse = PulseSpec(sigma_rms=sigma_ns * 1e-9)
        sig = gaussian_field(pulse, run.medium.gamma)
        sizes.append(_frame_length(sig.n, run.medium.gamma, sig.dt))
    assert sizes == [15000, 13122, 9216, 11520]


def _step_loop_trace(sig, medium, n_atoms=64):
    """Reference collision model, stepped bin by bin as the
    ``negdelay.oracle`` docstring writes it: a forward sweep that stores
    every emitter state, then the adjoint sweep against the stored states.

    Returns (W, N_e, T) on the same grid as weak_excitation_trace."""
    theta, gamma_side = build_model(medium, sig.dt, n_atoms=n_atoms)
    c, s = np.cos(theta), np.sin(theta)
    hd = np.exp(-gamma_side * sig.dt / 4.0)
    bins = (sig.samples * np.sqrt(sig.dt)).tolist()
    n = len(bins)

    psi = np.zeros((n + 1, n_atoms), np.complex128)
    out = []
    atoms = [0j] * n_atoms
    for j in range(n):
        b = bins[j]
        for k in range(n_atoms):
            a = atoms[k] * hd
            b, atoms[k] = c * b - 1j * s * a, (-1j * s * b + c * a) * hd
        out.append(b)
        psi[j + 1] = atoms
    population = np.sum(psi.real**2 + psi.imag**2, axis=1)
    norm_out = sum(abs(b) ** 2 for b in out)
    transmission = norm_out / sum(abs(b) ** 2 for b in bins)

    weak = np.zeros(n + 1)
    chi = [0j] * n_atoms
    for j in range(n - 1, -1, -1):
        b = out[j]
        for k in range(n_atoms - 1, -1, -1):
            x = chi[k] * hd
            b, chi[k] = c * b + 1j * s * x, (1j * s * b + c * x) * hd
        weak[j] = np.vdot(chi, psi[j]).real / norm_out
    return weak, population, transmission


@pytest.mark.parametrize(
    "sigma_ns, od, detuning",
    [
        (10.0, 4.0, 0.0),
        (36.0, 3.0, 0.0),
        (10.0, 8.0, 0.0),
        (5.0, 4.0, 0.0),
        # a complex field: both of its parts run through the cascade
        (36.0, 3.0, 0.3),
    ],
    ids=["10.0-4.0", "36.0-3.0", "10.0-8.0", "5.0-4.0", "36.0-3.0-detuned"],
)
def test_fft_cascade_matches_step_loop(run, sigma_ns, od, detuning):
    m = replace(run.medium, od=od)
    pulse = PulseSpec(
        sigma_rms=sigma_ns * 1e-9, center_detuning=detuning * m.gamma
    )
    sig = gaussian_field(pulse, m.gamma)
    tr = weak_excitation_trace(sig, m, run.n_atoms)
    weak, population, transmission = _step_loop_trace(sig, m)
    rtol = 1e-12
    # traces cross zero, so compare them against their own peak
    assert np.max(np.abs(tr.weak - weak)) <= rtol * np.max(np.abs(weak))
    assert np.max(np.abs(tr.population - population)) <= rtol * np.max(
        population
    )
    assert tr.transmission == pytest.approx(transmission, rel=rtol)
    tau = np.trapezoid(weak, dx=sig.dt)
    assert tr.tau_transmitted() == pytest.approx(tau, rel=rtol)


def _single_row_trace(sig, medium, n_atoms=64):
    """Reference FFT cascade in complex arithmetic: full-length complex
    transforms of the complex filters q z^-1 / (1 - p z^-1) H(z)^k and
    conj(q) / (1 - p z^-1) H(z)^(N-1-k), one single-row inverse FFT per
    emitter and direction, with no use of their real coefficients.

    Returns (W, N_e, T) on the same grid as weak_excitation_trace."""
    theta, gamma_side = build_model(medium, sig.dt, n_atoms=n_atoms)
    c = np.cos(theta)
    s = np.sin(theta) * np.exp(-gamma_side * sig.dt / 4.0)
    p = c * np.exp(-gamma_side * sig.dt / 2.0)
    q = -1j * s

    n = sig.n
    size = _frame_length(n, medium.gamma, sig.dt)
    h = np.arange(size) * (-2j * np.pi / size)
    np.exp(h, out=h)
    fb = 1.0 / (1.0 - p * h)
    h *= fb
    fb *= np.conj(q)
    buf = np.fft.fft(sig.samples, size)
    buf *= np.sqrt(sig.dt)
    fa = q * h * buf
    h *= q * q
    h += c

    for _ in range(n_atoms):
        buf *= h
    np.fft.ifft(buf, out=buf)
    dnorm = float(np.vdot(buf[:n], buf[:n]).real)
    transmission = dnorm / (sig.dt * float(np.vdot(sig.samples, sig.samples).real))
    buf[:n] = buf[n - 1 :: -1]
    buf[n:] = 0.0
    fb *= np.fft.fft(buf, out=buf)
    for _ in range(n_atoms - 1):
        fb *= h

    ne = np.zeros(n + 1)
    weak = np.zeros(n + 1)
    state = np.empty(n, np.complex128)
    hinv = 1.0 / h
    for _ in range(n_atoms):
        np.fft.ifft(fa, out=buf)
        np.conjugate(buf[1 : n + 1], out=state)
        ne[1:] += state.real**2 + state.imag**2
        np.fft.ifft(fb, out=buf)
        weak[1:n] += (buf[n - 2 :: -1] * state[:-1]).real
        fa *= h
        fb *= hinv
    weak /= dnorm
    return weak, ne, transmission


_PARITY_CASES = [
    (36.0, 0.25, 1, 4096, 0.0),
    (36.0, 1.75, 7, 4096, 0.0),
    (36.0, 4.0, 64, 4096, 0.0),
    (10.0, 4.0, 64, 4096, 0.0),
    (150.0, 4.0, 64, 8192, 0.0),
    (300.0, 4.0, 64, 16384, 0.0),
    (36.0, 0.0, 64, 4096, 0.0),
    # a complex field, run as its real and imaginary parts
    (150.0, 4.0, 64, 8192, 0.5),
    # an odd frame (3^8 = 6561 points)
    (95.0, 4.0, 64, 4096, 0.0),
    # an odd grid
    (36.0, 4.0, 64, 4095, 0.0),
]


@pytest.mark.parametrize(
    "sigma_ns, od, n_atoms, grid, detuning",
    _PARITY_CASES,
    ids=[
        "-".join(map(str, case[:4])) + ("-detuned" if case[4] else "")
        for case in _PARITY_CASES
    ],
)
def test_real_transforms_match_complex_reference(
    run, sigma_ns, od, n_atoms, grid, detuning
):
    m = replace(run.medium, od=od)
    pulse = PulseSpec(
        sigma_rms=sigma_ns * 1e-9, center_detuning=detuning * m.gamma
    )
    sig = gaussian_field(pulse, m.gamma, n=grid)
    if sigma_ns == 95.0:
        assert _frame_length(sig.n, m.gamma, sig.dt) == 6561
    tr = weak_excitation_trace(sig, m, n_atoms=n_atoms)
    weak, population, transmission = _single_row_trace(sig, m, n_atoms)
    # traces cross zero, so compare them against their own peak
    bound = 1e-12
    assert np.max(np.abs(tr.weak - weak)) <= bound * np.max(np.abs(weak))
    assert np.max(np.abs(tr.population - population)) <= bound * np.max(
        population
    )
    assert tr.transmission == pytest.approx(transmission, rel=bound)
