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

Each emitter is a first-order linear filter on the bin stream (the
cascaded-systems picture of Gardiner, PRL 70, 2269, 1993, and Carmichael,
PRL 70, 2273, 1993). With hd = exp(-gamma_s dt / 4), c = cos(th),
p = c hd^2 and s = sin(th) hd, one step maps (e_k, b) -> (p e_k - i s b,
c b - i s e_k). Every coefficient but the factor -i is real, so with
emitter k's state written -i y_k and its input bins x_k, emitter k is the
real one-pole filter

    y_k[t] = p y_k[t-1] + s x_k[t],    x_{k+1}[t] = c x_k[t] - s y_k[t-1]

from y_k[-1] = 0, and x_N holds the transmitted bins. So the chain runs
on each part of the input field alone (``SampledSignal.parts``).

The conditional (transmitted-photon) excitation trace is a two-sided
product: evolve the initial state forward to psi(t), evolve the
transmission-projected final state backward through the adjoint map to
chi(t), and form

    W(t) = Re< chi(t) | P_exc | psi(t) > / ||P_f psi(t_f)||^2

with P_exc the emitter-excitation projector. W(t) integrates to the
transmitted excitation time and, unlike the unconditioned population, can
go negative. The adjoint map runs the chain backwards on the time-reversed
transmitted bins with +i s for -i s: its emitter k holds +i v_k, v_k the
same recursion run from emitter N-1 down to k, and Re(+i v_k conj(-i y_k))
= -y_k v_k. A part adds sum_k y_k^2 to N_e, -sum_k y_k v_k to the
unnormalised W and its transmitted norm to ||P_f psi(t_f)||^2; W is
normalised once over the parts (one on carrier resonance, two detuned).

Each recursion runs block by block, t counted from the block's start and
C the last value before it, as y[t] = p^t (p C + cumsum s x[tau] p^-tau).
The running sum rounds once per term; scaled back by p^t it leaves at
most about eps sum_tau |y[tau]| p^(t - tau) in y[t], the bound of the
plain step-by-step recurrence (``np.power`` is within an ulp). A block
keeps p^-t within exp(BLOCK_LOG_GROWTH), far from overflow and p^t from
the subnormals: the default 4,096-point grid grows by e^11 in one block,
and a 2 us pulse on 131,072 points takes two. Nothing is padded and
nothing wraps around: the chain is exact on its grid.

The forward sweep runs the emitters in blocks of K = ceil(sqrt(N)),
keeping each block's input, and adds up N_e once per block. The adjoint
sweep runs from emitter N-1 down; entering a block it replays it from
the kept input, bit for bit, and pairs each v_k with its y_k (the last
block is still in place). A trace costs under 3N recursions of n samples
in (N/K + K + 10) n floats (26 n at N = 64): kept inputs, one block of
states, six work rows, two traces, two power tables.
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
#: growth of p^-t allowed within one block of a recursion, as a natural log
BLOCK_LOG_GROWTH = 500.0


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


def _powers(p: float, s: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """s p^-i and p^i over one block of at most n samples."""
    rate = -math.log(p)
    if rate * n > BLOCK_LOG_GROWTH:
        n = 1 + int(BLOCK_LOG_GROWTH / rate)
    i = np.arange(n, dtype=np.float64)
    return s * np.power(p, -i), np.power(p, i)


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
    up, down = _powers(p, s, n)
    every = math.isqrt(n_atoms - 1) + 1  # K = ceil(sqrt(N))
    heights = [min(every, n_atoms - k) for k in range(0, n_atoms, every)]
    kept = np.empty((len(heights), n))  # each block's first input
    states = np.empty((every, n))  # y_k over one block of emitters
    x, nxt, a, b, v, work = np.empty((6, n))

    def emitter(inp, y, out):
        """State y and output bins out of one emitter fed the bins inp;
        each block of y starts from the last value before it."""
        carry = 0.0
        for lo in range(0, n, len(up)):
            z = y[lo : lo + len(up)]
            np.multiply(inp[lo : lo + len(z)], up[: len(z)], out=z)
            z[0] += p * carry
            np.add.accumulate(z, out=z)
            z *= down[: len(z)]
            carry = z[-1]
        np.multiply(inp, c, out=out)
        np.multiply(y[:-1], s, out=work[1:])
        out[1:] -= work[1:]

    ne, weak = np.zeros((2, n + 1))
    dnorm = 0.0
    for part in sig.parts:
        np.multiply(part, np.sqrt(sig.dt), out=x)  # one bin holds E(t_j) sqrt(dt)
        for m, height in enumerate(heights):
            kept[m] = x
            for y in states[:height]:
                emitter(x, y, nxt)
                x, nxt = nxt, x
            ne[1:] += np.einsum("kt,kt->t", states[:height], states[:height])
        dnorm += float(x @ x)
        nxt[:] = x[::-1]  # the adjoint runs on the reversed transmitted bins
        x, nxt = nxt, x
        for m in reversed(range(len(heights))):
            if m < len(heights) - 1:
                a[:] = kept[m]
                for y in states[: heights[m]]:
                    emitter(a, y, b)
                    a, b = b, a
            for y in states[heights[m] - 1 :: -1]:
                emitter(x, v, nxt)
                x, nxt = nxt, x
                # the state before step j pairs with sample n - 1 - j of
                # the reversed sweep
                weak[1:n] += np.multiply(v[n - 2 :: -1], y[:-1], out=work[1:])

    if ne[-1] > 1e-6:
        raise ConfigError(
            f"residual excitation {ne[-1]:.2e} at the grid edge; "
            "extend the tail"
        )
    if dnorm <= 0.0:
        raise ConvergenceError("post-selection norm vanished")
    weak /= -dnorm  # Re(+i v conj(-i y)) = -y v
    norm_in = sig.dt * float(np.vdot(sig.parts, sig.parts))
    return WeakTrace(
        dt=sig.dt,
        t0=sig.t0 - 0.5 * sig.dt,
        weak=weak,
        population=ne,
        transmission=dnorm / norm_in,
    )
