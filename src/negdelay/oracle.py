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

where the rotation takes the forward coupling rate gamma_f = th^2 / dt out
of the linewidth, leaving the side rate gamma_s = gamma - gamma_f. th is
chosen so t(0) equals the target slab attenuation exp(-od_1 / 2) with
od_1 = od / N per emitter. On the bracket [0, sqrt(gamma dt)] t(0) falls
monotonically from 1 to -1, since a falling cos(th) and a rising d both
lower it, so th is found by bisection, halved until the midpoint equals
an endpoint. The comparison is made in a form with no cancellation,

    1 - t(0) = (1 + d)(1 - cos(th)) / ((1 - d) + d (1 - cos(th)))

with 1 - d = -expm1(-gamma_s dt / 2) and 1 - cos(th) = 2 sin^2(th / 2),
against 1 - exp(-od_1 / 2) = -expm1(-od_1 / 2). Near th = 0 the ratio
itself lies within od_1 / 2 of 1, and comparing it directly, or inverting
it through arccos, loses digits there.

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
are products of spectra on a frame padded by PAD_LIFETIMES lifetimes: the
reversed output ends with the pulse, and its ringdown must decay before it
wraps around. The frame is the smallest 2^a 3^b 5^c length past that
padding, not the next power of two: numpy's pocketfft transforms such
lengths at about the same cost per point, so a 13,065-point need takes a
13,122-point frame, not 16,384.

Every coefficient is real but q = -i s, s = sin(th) hd: c = cos(th), p
and q^2 = -s^2 are real, so H(z) is a real filter, the state filter is
-i times the real filter s z^-1 / (1 - p z^-1) and the adjoint filter +i
times s / (1 - p z^-1). A real filter never mixes the real and imaginary
parts of its input, so the chain runs on each part of the input field
alone, as a real sequence: the factor i of the imaginary part cancels in
every product below. Driven by a real sequence, the transmitted bins are
real, emitter k's state is -i u_k and its adjoint state +i v_k with u_k
and v_k real, and Re(+i v_k conj(-i u_k)) = -u_k v_k. A part therefore
adds sum_k u_k^2 to N_e, -sum_k u_k v_k (adjoint time-reversed) to the
unnormalised W and its transmitted norm to ||P_f psi(t_f)||^2; the parts
are summed and W normalised once. Each part runs on half-length spectra
with numpy's rfft / irfft, and each emitter's state and adjoint spectra
are the two rows of one inverse transform. A pulse on carrier resonance
is real and takes one pass; a detuned pulse takes two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ConvergenceError
from .medium import MediumSpec
from .pulse import STEP_LIFETIME_FRACTION, SampledSignal

__all__ = ["weak_excitation_trace"]

#: weak-extinction bound per emitter; beyond it the chain no longer
#: approximates a Lorentzian slab, though its calibration stays exact
MAX_OD_PER_ATOM = 0.25
#: zero padding of the FFT frame past the pulse grid, in natural lifetimes
PAD_LIFETIMES = 48


@dataclass(frozen=True)
class WeakTrace:
    """Forward/backward sweep output on the simulation grid.

    ``weak`` is the conditional excitation trace W(t); ``population`` is
    the unconditioned one. Both have n_steps + 1 points: sample i is the
    state between steps i-1 and i. Step j takes the bin around pulse
    sample j, at t_j = sig.t0 + j dt, so it ends half a step after t_j:
    sample i sits at sig.t0 + (i - 1/2) dt, and ``t0`` is that time for
    sample 0, half a step before the pulse grid.
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


def build_model(medium: MediumSpec, dt: float, n_atoms: int) -> tuple[float, float]:
    """Rotation angle and side rate of the chain for one step size,
    calibrated to the exact resonant attenuation exp(-od / 2 n_atoms)."""
    if n_atoms < 1:
        raise ConvergenceError("need at least one emitter")
    if dt <= 0.0:
        raise ConfigError("time step must be positive")
    if dt > STEP_LIFETIME_FRACTION / medium.gamma:
        raise ConfigError(
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
    gamma, target = medium.gamma, -math.expm1(-od_per_atom / 2.0)
    if target == 0.0:
        # a transparent emitter does not rotate; bisecting toward 0 would
        # halve theta through the subnormals
        return 0.0, gamma
    lo, hi = 0.0, math.sqrt(gamma * dt)
    theta = hi / 2.0
    while lo < theta < hi:
        # 1 - t(0) in the cancellation-free form of the module docstring
        x = (gamma - theta**2 / dt) * dt / 2.0
        d, one_minus_c = math.exp(-x), 2.0 * math.sin(theta / 2.0) ** 2
        deficit = (1.0 + d) * one_minus_c / (-math.expm1(-x) + d * one_minus_c)
        if deficit < target:
            lo = theta
        else:
            hi = theta
        theta = (lo + hi) / 2.0
    return theta, gamma - theta**2 / dt


def _frame_length(n_steps: int, gamma: float, dt: float) -> int:
    """Smallest 5-smooth FFT length (2^a 3^b 5^c) holding the grid plus
    PAD_LIFETIMES of ringdown; never longer than the next power of two."""
    need = n_steps + math.ceil(PAD_LIFETIMES / (gamma * dt))
    best = 1 << (need - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two that lifts 3^b 5^c to the need
            p2 = 1 << (-(-need // p35) - 1).bit_length()
            best = min(best, p2 * p35)
            p35 *= 3
        p5 *= 5
    return best


def weak_excitation_trace(
    sig: SampledSignal, medium: MediumSpec, n_atoms: int
) -> WeakTrace:
    """Conditional and unconditioned excitation traces for one pulse.

    The signal must already carry the far-tail padding produced by the
    pulse builders: residual emitter population at the last sample above
    1e-6 is rejected as an under-resolved ringdown.
    """
    theta, gamma_side = build_model(medium, sig.dt, n_atoms=n_atoms)
    c = np.cos(theta)
    s = np.sin(theta) * np.exp(-gamma_side * sig.dt / 4.0)
    p = c * np.exp(-gamma_side * sig.dt / 2.0)

    n = sig.n
    size = _frame_length(n, medium.gamma, sig.dt)
    # real filters on the half DFT grid, z^-1 = exp(-2 pi i m / size)
    zinv = np.exp(np.arange(size // 2 + 1) * (-2j * np.pi / size))
    g = s / (1.0 - p * zinv)  # the adjoint state filter
    h = zinv * g  # the state filter s z^-1 / (1 - p z^-1)
    hz = c - s * h  # H(z) = c - s^2 z^-1 / (1 - p z^-1)
    hinv = 1.0 / hz  # a multiply per emitter is cheaper than a divide
    hlast = np.ones_like(hz)  # H^(N-1)
    for _ in range(n_atoms - 1):
        hlast *= hz

    ne = np.zeros(n + 1)
    weak = np.zeros(n + 1)
    dnorm = 0.0
    # spec holds emitter k's u (row 0) and v (row 1) spectra; frames can
    # be odd, so every inverse transform names its length
    spec = np.empty((2, len(g)), np.complex128)
    fa, fb = spec
    out = np.empty((2, size))
    work = np.empty(n)
    for part in (sig.samples.real, sig.samples.imag):
        if not part.any():
            continue
        np.fft.rfft(part, size, out=fb)
        fb *= np.sqrt(sig.dt)  # chain input: one bin holds E(t_j) sqrt(dt)
        np.multiply(h, fb, out=fa)  # emitter 0's state
        # transmitted bins: the input through all n_atoms filters
        fb *= hlast
        fb *= hz
        bins = np.fft.irfft(fb, size, out=out[0])[:n]
        dnorm += float(bins @ bins)
        # the adjoint runs on the time-reversed transmitted bins
        np.fft.rfft(bins[::-1], size, out=fb)
        fb *= g
        fb *= hlast
        # per emitter: its state after each step, then its adjoint state;
        # the state before step j pairs with index n - 1 - j of the
        # reversed frame
        for _ in range(n_atoms):
            np.fft.irfft(spec, size, out=out)
            u = out[0, 1 : n + 1]
            ne[1:] += np.multiply(u, u, out=work)
            weak[1:n] += np.multiply(out[1, n - 2 :: -1], u[:-1], out=work[1:])
            fa *= hz
            fb *= hinv

    if ne[-1] > 1e-6:
        raise ConfigError(
            f"residual excitation {ne[-1]:.2e} at the grid edge; "
            "extend the tail"
        )
    if dnorm <= 0.0:
        raise ConvergenceError("post-selection norm vanished")
    weak /= -dnorm  # Re(+i v conj(-i u)) = -u v
    norm_in = sig.dt * float(np.vdot(sig.samples, sig.samples).real)
    return WeakTrace(
        dt=sig.dt,
        t0=sig.t0 - 0.5 * sig.dt,
        weak=weak,
        population=ne,
        transmission=dnorm / norm_in,
    )
