"""Excited-atom population driven by a pulse crossing the cloud.

The cloud is split into thin slabs of equal optical depth. A slab at
cumulative depth od_k sees the field filtered by the medium in front of
it, and its excitation amplitude follows the single-atom response, so

    c_k(t) = integral ddelta/(2 pi) exp(-i delta t) E~(delta)
             * exp(-(od_k/2) L(delta)) * (sqrt(gamma)/2) / (gamma/2 - i delta)

and the total excited population per incident photon is the weighted sum

    N_e(t) = sum_k w_k |c_k(t)|^2,   w_k = od / n_slabs

with od_k evaluated at slab midpoints. Unconditioned bookkeeping closes:
every scattered photon spends on average one natural lifetime as atomic
excitation, so gamma * integral(N_e dt) = 1 - T (the scattering
probability), which is the primary correctness check of the model.

Two excitation-time observables are defined per photon:

    tau_0 = (1 - T)/gamma            averaged over all incident photons
    tau_T = transmitted-power-weighted group delay
                                     for post-selected transmitted photons

The spectral tau_T estimator here assumes each monochromatic component
contributes its group delay weighted by the transmitted power density;
the time-domain weak-value oracle (``negdelay.oracle``) provides the
independent route to the same quantity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .medium import MediumSpec, conversion_factor, group_delay, transfer_function
from .pulse import SampledSignal, grid_frequencies, transmission_probability

__all__ = [
    "ExcitationTrace",
    "ExcitationReport",
    "excited_population",
    "mean_excitation_time",
    "transmitted_excitation_time",
    "spectral_report",
    "phi0_trace",
]


@dataclass(frozen=True)
class ExcitationTrace:
    """Real-valued excitation trace on a uniform time grid.

    values are a population per incident photon, so they must lie in
    [0, 1] (a small negative floor from float rounding is rejected too).
    """

    dt: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.min() < -1e-12 or vals.max() > 1.0 + 1e-12:
            raise ConfigError("excitation values must lie in [0, 1]")
        object.__setattr__(self, "values", vals)

    def integral(self) -> float:
        """Plain Riemann integral of the trace, seconds."""
        return float(np.sum(self.values) * self.dt)


@dataclass(frozen=True)
class ExcitationReport:
    """Summary observables for one (pulse, medium) operating point."""

    tau_0: float
    tau_T: float
    ratio: float


def excited_population(sig: SampledSignal, medium: MediumSpec) -> ExcitationTrace:
    """Excited population N_e(t) per incident photon on the pulse grid.

    Converges quadratically in ``medium.n_slabs``; at the default count,
    doubling it changes integral(N_e dt) by less than 1e-3 relative.
    """
    n = sig.n
    delta = grid_frequencies(n, sig.dt)
    spec = np.fft.ifft(sig.samples)  # grid-relative spectrum / (n dt)
    kernel = (np.sqrt(medium.gamma) / 2.0) / (medium.gamma / 2.0 - 1j * delta)
    base = spec * kernel
    w = medium.od / medium.n_slabs
    half = transfer_function(delta, w / 2.0, medium.gamma)  # to first midpoint
    step = transfer_function(delta, w, medium.gamma)
    values = np.zeros(n)
    filt = half.copy()
    for _ in range(medium.n_slabs):
        ck = np.fft.fft(base * filt)
        values += w * (ck.real**2 + ck.imag**2)
        filt *= step
    return ExcitationTrace(dt=sig.dt, values=values)


def mean_excitation_time(sig: SampledSignal, medium: MediumSpec) -> float:
    """tau_0 = (1 - T)/gamma, seconds (all incident photons)."""
    return (1.0 - transmission_probability(sig, medium)) / medium.gamma


def transmitted_excitation_time(sig: SampledSignal, medium: MediumSpec) -> float:
    """Spectral estimate of tau_T, seconds (transmitted photons).

    Transmitted-power-weighted group delay:
    tau_T = integral(|E~ t|^2 tau_g) / integral(|E~ t|^2).
    """
    delta = grid_frequencies(sig.n, sig.dt)
    w_out = np.abs(
        np.fft.ifft(sig.samples)
        * transfer_function(delta, medium.od, medium.gamma)
    ) ** 2
    tg = group_delay(delta, medium.od, medium.gamma)
    return float(np.sum(w_out * tg) / np.sum(w_out))


def spectral_report(sig: SampledSignal, medium: MediumSpec) -> ExcitationReport:
    tau0 = mean_excitation_time(sig, medium)
    tauT = transmitted_excitation_time(sig, medium)
    ratio = tauT / tau0 if tau0 != 0.0 else float("nan")
    return ExcitationReport(tau_0=tau0, tau_T=tauT, ratio=ratio)


def phi0_trace(sig: SampledSignal, medium: MediumSpec) -> np.ndarray:
    """Unconditioned probe phase per incident photon, phi_0(t) = C N_e(t).

    Radians, on the pulse grid. Sign follows the probe detuning through C.
    """
    ne = excited_population(sig, medium)
    return conversion_factor(medium) * ne.values

