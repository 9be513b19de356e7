"""Time-domain collision model for post-selected excitation traces.

Independent route to the transmitted-photon excitation time. The cloud is
a chain of discrete emitters coupled to a single forward-propagating mode
sampled in time bins of width dt. Everything lives in the one-excitation
sector, so the state is a complex amplitude per bin plus one per emitter.

One time step applies, in order,

    half side-decay   e_k *= exp(-gamma_s dt / 4)
    beam splitters    (b, e_k) -> (cos(th) b - i sin(th) e_k,
                                   -i sin(th) b + cos(th) e_k),  k = 0..N-1
    half side-decay   e_k *= exp(-gamma_s dt / 4)

where b is the current bin. The rotation is unitary and the decay is a
diagonal contraction, so the state norm never grows: the missing norm is
the side-scattered probability.

Calibration is exact, not leading-order. A single emitter driven on
resonance settles to the discrete steady-state amplitude ratio

    t(0) = (cos(th) - d) / (1 - d cos(th)),    d = exp(-gamma_s dt / 2)

and th is chosen so t(0) equals the target slab attenuation
exp(-od_1 / 2) with od_1 = od / N per emitter. The forward coupling rate
implied by th is gamma_f = th^2 / dt and the side rate gamma_s =
gamma - gamma_f, which feeds back into d; the two-line fixed point
converges in a handful of iterations.

Each emitter is a first-order linear filter on the bin stream. With
hd = exp(-gamma_s dt / 4), p = cos(th) hd^2 and q = -i sin(th) hd, one step
maps (e_k, b) -> (p e_k + q b, cos(th) b + q e_k), so every emitter passes
its input on through H(z) = cos(th) + q^2 z^-1 / (1 - p z^-1), and emitter
k's state is the chain input filtered by q z^-1 / (1 - p z^-1) H(z)^k: the
cascaded-systems picture of Gardiner (PRL 70, 2269, 1993) and Carmichael
(PRL 70, 2273, 1993).

The conditional (transmitted-photon) excitation trace is a two-sided
product: evolve the initial state forward to psi(t), evolve the
transmission-projected final state backward through the adjoint map to
chi(t), and form

    W(t) = Re< chi(t) | P_exc | psi(t) > / ||P_f psi(t_f)||^2

with P_exc the emitter-excitation projector. W(t) integrates to the
transmitted excitation time and, unlike the unconditioned population, can
go negative. The adjoint map runs the chain backwards on the time-reversed
output with conj(q) for q; q^2 is real, so emitter k's adjoint state is
that input filtered by conj(q) / (1 - p z^-1) H(z)^(N-1-k). Both sweeps
are products of spectra, one inverse FFT per emitter and direction, on a
frame padded by PAD_LIFETIMES lifetimes: the reversed output ends with the
pulse, and its ringdown must decay before it wraps around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, GridError
from .medium import MediumSpec
from .pulse import SampledSignal

__all__ = [
    "CollisionModel",
    "WeakTrace",
    "MAX_OD_PER_ATOM",
    "calibrate_rotation",
    "build_model",
    "max_step",
    "weak_excitation_trace",
]

#: hard ceiling on the time step relative to the linewidth
STEP_LIFETIME_FRACTION = 0.02
#: ceiling relative to the pulse duration
STEP_SIGMA_FRACTION = 0.05
#: weak-extinction bound per emitter; beyond it the chain no longer
#: approximates a Lorentzian slab even though the calibration converges
MAX_OD_PER_ATOM = 0.25
#: zero padding of the FFT frame past the pulse grid, in natural lifetimes
PAD_LIFETIMES = 48


@dataclass(frozen=True)
class CollisionModel:
    """Calibrated discrete-emitter chain for one medium and step size."""

    n_atoms: int
    dt: float
    theta: float
    gamma_side: float


@dataclass(frozen=True)
class WeakTrace:
    """Forward/backward sweep output on the simulation grid.

    ``weak`` is the conditional excitation trace W(t); ``population`` is
    the unconditioned one. Both have n_steps + 1 points: sample i is the
    state between steps i-1 and i.
    """

    dt: float
    t0: float
    weak: np.ndarray = field(repr=False)
    population: np.ndarray = field(repr=False)
    transmission: float = 0.0

    def axis(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.weak))

    def tau_transmitted(self) -> float:
        """integral(W dt), seconds."""
        return float(np.trapezoid(self.weak, dx=self.dt))

    def tau_unconditioned(self) -> float:
        """integral(N_e dt), seconds."""
        return float(np.trapezoid(self.population, dx=self.dt))


def calibrate_rotation(
    od_per_atom: float, gamma: float, dt: float
) -> tuple[float, float]:
    """Rotation angle and side rate hitting the exact resonant attenuation.

    Solves the fixed point theta <-> gamma_side described in the module
    docstring. Raises if the per-emitter depth demands more forward
    coupling than the total linewidth allows (use more emitters).
    """
    if od_per_atom < 0.0:
        raise ConvergenceError("per-emitter depth must be non-negative")
    tau = np.exp(-od_per_atom / 2.0)
    theta = float(np.sqrt(gamma * dt * (1.0 - tau) / 2.0))
    theta_prev = np.nan
    for _ in range(200):
        gamma_f = theta**2 / dt
        gamma_s = gamma - gamma_f
        if gamma_s < 0.0:
            raise ConvergenceError(
                f"per-emitter depth {od_per_atom:.3g} exceeds the linewidth "
                "budget; increase n_atoms"
            )
        d = np.exp(-gamma_s * dt / 2.0)
        theta_new = float(np.arccos((tau + d) / (1.0 + tau * d)))
        if abs(theta_new - theta) < 1e-15:
            return theta_new, gamma - theta_new**2 / dt
        if theta_new == theta_prev:
            # arccos slope ~1/theta turns one ulp of the argument into a
            # period-2 orbit wider than the tolerance; settle on its midpoint
            theta = 0.5 * (theta + theta_new)
            return theta, gamma - theta**2 / dt
        theta_prev = theta
        theta = theta_new
    raise ConvergenceError("rotation-angle fixed point did not converge")


def build_model(
    medium: MediumSpec, dt: float, n_atoms: int = 64
) -> CollisionModel:
    if n_atoms < 1:
        raise ConvergenceError("need at least one emitter")
    if dt <= 0.0:
        raise GridError("time step must be positive")
    if dt > STEP_LIFETIME_FRACTION / medium.gamma:
        raise GridError(
            f"time step {dt:.3e} s exceeds "
            f"{STEP_LIFETIME_FRACTION:g} / gamma = "
            f"{STEP_LIFETIME_FRACTION / medium.gamma:.3e} s"
        )
    od_per_atom = medium.od / n_atoms
    if od_per_atom > MAX_OD_PER_ATOM:
        raise ConvergenceError(
            f"per-emitter depth {od_per_atom:.3g} exceeds the "
            f"weak-extinction bound {MAX_OD_PER_ATOM}; increase n_atoms"
        )
    theta, gamma_side = calibrate_rotation(od_per_atom, medium.gamma, dt)
    return CollisionModel(
        n_atoms=n_atoms, dt=dt, theta=theta, gamma_side=gamma_side
    )


def max_step(medium: MediumSpec, sigma_rms: float) -> float:
    """Largest admissible step for a pulse of the given duration."""
    return min(
        STEP_LIFETIME_FRACTION / medium.gamma,
        STEP_SIGMA_FRACTION * sigma_rms,
    )


def _frame_length(n_steps: int, gamma: float, dt: float) -> int:
    """Power-of-two FFT length: the grid plus PAD_LIFETIMES of ringdown."""
    need = n_steps + math.ceil(PAD_LIFETIMES / (gamma * dt))
    return 1 << (need - 1).bit_length()


def weak_excitation_trace(
    sig: SampledSignal, medium: MediumSpec, n_atoms: int = 64
) -> WeakTrace:
    """Conditional and unconditioned excitation traces for one pulse.

    The signal must already carry the far-tail padding produced by the
    pulse builders: residual emitter population at the last sample above
    1e-6 is rejected as an under-resolved ringdown.
    """
    model = build_model(medium, sig.dt, n_atoms=n_atoms)
    c = np.cos(model.theta)
    s = np.sin(model.theta) * np.exp(-model.gamma_side * model.dt / 4.0)
    p = c * np.exp(-model.gamma_side * model.dt / 2.0)
    q = -1j * s

    n = sig.n
    size = _frame_length(n, medium.gamma, sig.dt)
    # four spectra on the DFT grid, z^-1 = exp(-2 pi i m / size)
    h = np.arange(size) * (-2j * np.pi / size)
    np.exp(h, out=h)
    fb = 1.0 / (1.0 - p * h)
    h *= fb
    fb *= np.conj(q)  # adjoint state filter, before the H^(N-1-k) factor
    buf = np.fft.fft(sig.samples, size)
    buf *= np.sqrt(sig.dt)  # chain input: one bin holds E(t_j) sqrt(dt)
    fa = q * h * buf  # emitter 0's state
    h *= q * q
    h += c  # H(z)

    # transmitted bins: the input through all n_atoms filters
    for _ in range(n_atoms):
        buf *= h
    np.fft.ifft(buf, out=buf)
    norm_in = sig.dt * float(np.vdot(sig.samples, sig.samples).real)
    dnorm = float(np.vdot(buf[:n], buf[:n]).real)
    transmission = dnorm / norm_in
    # the adjoint runs on the time-reversed transmitted bins
    buf[:n] = buf[n - 1 :: -1]
    buf[n:] = 0.0
    fb *= np.fft.fft(buf, out=buf)
    for _ in range(n_atoms - 1):
        fb *= h

    # per emitter: its state after each step, held conjugated, then its
    # adjoint state; the state before step j pairs with index n - 1 - j
    # of the reversed frame
    ne = np.zeros(n + 1)
    weak = np.zeros(n + 1)
    state = np.empty(n, np.complex128)
    for _ in range(n_atoms):
        np.fft.ifft(fa, out=buf)
        np.conjugate(buf[1 : n + 1], out=state)
        ne[1:] += state.real**2 + state.imag**2
        np.fft.ifft(fb, out=buf)
        weak[1:n] += (buf[n - 2 :: -1] * state[:-1]).real
        fa *= h
        fb /= h

    if ne[-1] > 1e-6:
        raise GridError(
            f"residual excitation {ne[-1]:.2e} at the grid edge; "
            "extend the tail"
        )
    if dnorm <= 0.0:
        raise ConvergenceError("post-selection norm vanished")
    weak /= dnorm
    return WeakTrace(
        dt=sig.dt,
        t0=sig.t0,
        weak=weak,
        population=ne,
        transmission=transmission,
    )
