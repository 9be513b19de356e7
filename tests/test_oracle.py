"""Discrete-emitter chain: calibration exactness, agreement with the
spectral route, conservation, grid invariances, and parity of the FFT
cascade with a bin-by-bin step loop."""

from dataclasses import replace

import numpy as np
import pytest

from negdelay.errors import ConvergenceError, GridError
from negdelay.excitation import spectral_report
from negdelay.montecarlo import fine_signal
from negdelay.oracle import (
    MAX_OD_PER_ATOM,
    STEP_LIFETIME_FRACTION,
    STEP_SIGMA_FRACTION,
    build_model,
    calibrate_rotation,
    max_step,
    weak_excitation_trace,
)
from negdelay.pulse import (
    PulseSpec,
    SampledSignal,
    gaussian_field,
    transmission_probability,
)

GAMMA = 1.0 / 26e-9


def _resonant_amplitude(theta, gamma_side, dt):
    """Steady-state resonant amplitude ratio of one calibrated emitter."""
    d = np.exp(-gamma_side * dt / 2.0)
    return float((np.cos(theta) - d) / (1.0 - d * np.cos(theta)))


@pytest.mark.parametrize("od1", [1e-4, 0.01, 0.0625, 0.2, 0.25])
@pytest.mark.parametrize("dt", [5.2e-10, 1.3916015625e-10, 5e-11])
def test_calibration_hits_beer_lambert_amplitude(od1, dt):
    theta, gamma_side = calibrate_rotation(od1, GAMMA, dt)
    got = _resonant_amplitude(theta, gamma_side, dt)
    assert abs(got - np.exp(-od1 / 2.0)) < 1e-12
    assert theta > 0.0
    assert gamma_side >= 0.0


def test_build_model_rejects_strong_per_emitter_coupling(run, fine_sig):
    with pytest.raises(ConvergenceError, match="increase n_atoms"):
        build_model(run.medium, fine_sig.dt, n_atoms=8)
    assert run.medium.od / 8 > MAX_OD_PER_ATOM


def test_build_model_validation(run, fine_sig):
    with pytest.raises(ConvergenceError, match="at least one emitter"):
        build_model(run.medium, fine_sig.dt, n_atoms=0)
    with pytest.raises(GridError, match="positive"):
        build_model(run.medium, 0.0)
    with pytest.raises(GridError, match="exceeds"):
        build_model(run.medium, 1e-9)


def test_max_step_regimes(run):
    # short pulse: the pulse duration limits the step
    assert max_step(run.medium, 10e-9) == pytest.approx(
        STEP_SIGMA_FRACTION * 10e-9, rel=1e-15
    )
    # long pulse: the lifetime limits it
    assert max_step(run.medium, 700e-9) == pytest.approx(
        STEP_LIFETIME_FRACTION / run.medium.gamma, rel=1e-15
    )


def test_single_emitter_long_pulse_transmission(run):
    """One emitter driven far below linewidth must reproduce exp(-od)."""
    m = replace(run.medium, od=0.0625)
    sig = gaussian_field(PulseSpec(sigma_rms=2e-6), m.gamma, n=131072)
    tr = weak_excitation_trace(sig, m, n_atoms=1)
    assert abs(tr.transmission - np.exp(-0.0625)) < 1e-4


def test_narrowband_time_approaches_group_delay(run):
    m = replace(run.medium, od=2.0)
    sig = fine_signal(m, PulseSpec(sigma_rms=300e-9))
    tau = weak_excitation_trace(sig, m).tau_transmitted()
    assert abs(tau + 52e-9) < 0.05 * 52e-9
    assert tau == pytest.approx(-5.121833787409131e-08, rel=1e-9)


def test_matches_spectral_route_at_default_point(run, fine_sig, weak):
    rep = spectral_report(fine_sig, run.medium)
    assert abs(weak.tau_transmitted() - rep.tau_T) < 0.01 * rep.tau_0
    tbar = transmission_probability(fine_sig, run.medium)
    assert abs(weak.transmission - tbar) < 0.01


def test_chain_conserves_probability(run, fine_sig, weak):
    model = build_model(run.medium, fine_sig.dt)
    total = weak.transmission + model.gamma_side * weak.tau_unconditioned()
    assert abs(total - 1.0) < 2e-6


def test_trace_endpoint_structure(fine_sig, weak):
    assert weak.population[0] == 0.0
    assert weak.population[-1] <= 1e-6
    assert weak.weak[-1] == 0.0
    assert len(weak.weak) == fine_sig.n + 1
    assert len(weak.population) == fine_sig.n + 1
    assert weak.axis()[0] == fine_sig.t0


def test_truncated_ringdown_is_rejected(run, fine_sig):
    shifted = SampledSignal(
        dt=fine_sig.dt,
        t0=fine_sig.t0,
        samples=np.roll(fine_sig.samples, 3000),
    )
    with pytest.raises(GridError, match="residual excitation"):
        weak_excitation_trace(shifted, run.medium)


def test_two_tone_mixture_averages_frequency_diagonally(run):
    """Non-overlapping spectral components contribute independently,
    weighted by their transmitted power."""
    m = replace(run.medium, od=3.0)
    pa = PulseSpec(sigma_rms=150e-9)
    pb = PulseSpec(sigma_rms=150e-9, center_detuning=m.gamma)
    sa = gaussian_field(pa, m.gamma, n=8192)
    sb = gaussian_field(pb, m.gamma, n=8192)
    tra = weak_excitation_trace(sa, m)
    trb = weak_excitation_trace(sb, m)
    mix = SampledSignal(dt=sa.dt, t0=sa.t0, samples=sa.samples + sb.samples)
    trm = weak_excitation_trace(mix, m)
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
    a = weak_excitation_trace(coarse, run.medium).tau_transmitted()
    b = weak_excitation_trace(fine, run.medium).tau_transmitted()
    assert abs(b - a) / abs(b) < 0.01


def test_conditional_trace_goes_negative(run):
    m = replace(run.medium, od=3.0)
    sig = fine_signal(m, PulseSpec(sigma_rms=36e-9))
    tr = weak_excitation_trace(sig, m)
    assert tr.weak.min() < 0.0
    assert tr.population.min() >= 0.0


def test_decimated_trace_keeps_the_integral(weak):
    coarse = np.trapezoid(weak.weak[::4], dx=4.0 * weak.dt)
    full = weak.tau_transmitted()
    assert abs(coarse - full) / abs(full) < 0.01


def _step_loop_trace(sig, medium, n_atoms=64):
    """Reference collision model, stepped bin by bin as the
    ``negdelay.oracle`` docstring writes it: a forward sweep that stores
    every emitter state, then the adjoint sweep against the stored states.

    Returns (W, N_e, T) on the same grid as weak_excitation_trace."""
    model = build_model(medium, sig.dt, n_atoms=n_atoms)
    c, s = np.cos(model.theta), np.sin(model.theta)
    hd = np.exp(-model.gamma_side * model.dt / 4.0)
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
    "sigma_ns, od", [(10.0, 4.0), (36.0, 3.0), (10.0, 8.0)]
)
def test_fft_cascade_matches_step_loop(run, sigma_ns, od):
    m = replace(run.medium, od=od)
    sig = fine_signal(m, PulseSpec(sigma_rms=sigma_ns * 1e-9))
    tr = weak_excitation_trace(sig, m)
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
