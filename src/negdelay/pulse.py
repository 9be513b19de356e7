"""Sampled Gaussian pulses and their transmission through the medium.

Fields are complex envelopes E(t) on a uniform grid, normalized so that
sum(|E|^2) * dt = 1 (one photon's worth of probability per pulse). The
transform convention is

    E~(delta) = integral E(t) exp(+i delta t) dt
    E(t)      = integral E~(delta) exp(-i delta t) ddelta / (2 pi)

realized as a unitary FFT pair. Propagation through the medium multiplies
the spectrum by the transfer function t(delta); everything downstream
(transmission probability, excitation kernels, spectral time estimators)
works with grid-relative phases, so the absolute grid origin only matters
when comparing traces between grids.

Duration convention: ``sigma_rms`` is the rms width of the *intensity*
profile, so the field envelope is exp(-t^2 / (4 sigma^2)) and the spectral
intensity rms is 1/(2 sigma).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, GridError
from .medium import MediumSpec, transfer_function

__all__ = [
    "PulseSpec",
    "SampledSignal",
    "gaussian_field",
    "transmission_probability",
]

EDGE_GUARD = 1e-8  # max allowed |E| at grid edges, relative to peak


@dataclass(frozen=True)
class PulseSpec:
    """Gaussian signal-pulse parameters.

    sigma_rms: intensity rms duration, seconds, > 0
    center_detuning: pulse carrier detuning from resonance, rad/s
    """

    sigma_rms: float
    center_detuning: float = 0.0

    def __post_init__(self):
        if not self.sigma_rms > 0.0:
            raise ConfigError(f"sigma_rms must be > 0, got {self.sigma_rms}")


@dataclass(frozen=True)
class SampledSignal:
    """Uniformly sampled complex field on a time grid.

    ``dt`` is the sample step and ``t0`` the first sample time, seconds.
    Length must be a power of two (>= 2) for the FFTs.
    """

    dt: float
    t0: float
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ConfigError(f"sample step must be > 0, got {self.dt}")
        n = len(self.samples)
        if n < 2 or (n & (n - 1)) != 0:
            raise ConfigError(f"sample count must be a power of two >= 2, got {n}")
        object.__setattr__(
            self, "samples", np.ascontiguousarray(self.samples, dtype=np.complex128)
        )

    @property
    def n(self) -> int:
        return len(self.samples)

    def axis(self) -> np.ndarray:
        """Sample times, seconds."""
        return self.t0 + self.dt * np.arange(self.n)


LEAD_SIGMAS = 9.0
TAIL_LIFETIMES = 15.0


def gaussian_field(pulse: PulseSpec, gamma: float, n: int = 4096) -> SampledSignal:
    """Unit-normalized Gaussian field envelope on n samples.

    The grid always spans [-9 sigma, 9 sigma + 15/gamma) around the pulse
    peak at t = 0: 9 sigma is the smallest whole-sigma lead that leaves
    the exp(-t^2/4 sigma^2) envelope below 1e-8 of its peak, and 15
    lifetimes of trailing room hold the medium's ringdown. The edge guard
    rejects a grid whose first or last sample holds more than 1e-8 of its
    largest sample. At this span that happens only on grids too coarse to
    sample the pulse: n = 2 always (one of its two samples is the
    largest), and small n such as 4 or 8 when the pulse falls between
    samples or near the last one.
    """
    sig = pulse.sigma_rms
    t_lo = -LEAD_SIGMAS * sig
    t_hi = LEAD_SIGMAS * sig + TAIL_LIFETIMES / gamma
    dt = (t_hi - t_lo) / n
    t = t_lo + dt * np.arange(n)
    env = np.exp(-(t**2) / (4.0 * sig * sig)).astype(np.complex128)
    if pulse.center_detuning != 0.0:
        env *= np.exp(-1j * pulse.center_detuning * t)
    peak = np.abs(env).max()
    if abs(env[0]) > EDGE_GUARD * peak or abs(env[-1]) > EDGE_GUARD * peak:
        raise GridError("pulse does not decay below 1e-8 of peak at grid edges")
    env /= np.sqrt(np.sum(np.abs(env) ** 2) * dt)
    return SampledSignal(dt=dt, t0=t_lo, samples=env)


def grid_frequencies(n: int, dt: float) -> np.ndarray:
    """Angular frequencies of the length-n DFT, in FFT ordering."""
    return 2.0 * np.pi * np.fft.fftfreq(n, d=dt)


def transmission_probability(sig: SampledSignal, medium: MediumSpec) -> float:
    """Mean power transmission of the pulse through the medium.

    T = integral(|E~ t|^2) / integral(|E~|^2); tends to exp(-od) in the
    narrowband limit and is invariant under time shifts of the input.
    """
    delta = grid_frequencies(sig.n, sig.dt)
    w = np.abs(np.fft.ifft(sig.samples)) ** 2
    power_t = np.abs(transfer_function(delta, medium.od, medium.gamma)) ** 2
    return float(np.sum(w * power_t) / np.sum(w))
