"""Sampled Gaussian pulses on uniform time grids.

Fields are complex envelopes E(t) on a uniform grid, normalized so that
sum(|E|^2) * dt = 1 (one photon's worth of probability per pulse), and
stored as their real and imaginary parts. Their spectra and propagation
through the medium live in ``negdelay.excitation``.

Duration convention: ``sigma_rms`` is the rms width of the *intensity*
profile, so the field envelope is exp(-t^2 / (4 sigma^2)) and the spectral
intensity rms is 1/(2 sigma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

__all__ = [
    "PulseSpec",
    "SampledSignal",
    "gaussian_field",
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
    """Uniformly sampled field on a time grid, split into its real parts.

    ``dt`` is the sample step and ``t0`` the first sample time, seconds.
    ``parts`` holds the real and imaginary parts of the field that are not
    all zero, as rows: one row for a pulse on carrier resonance. Every
    filter of the medium has real coefficients, so it never mixes the two
    parts: each route runs each part alone, as a real sequence, and sums
    over the parts what is quadratic in the field. A row holds at least
    two samples; any length suits the FFTs.
    """

    dt: float
    t0: float
    parts: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ConfigError(f"sample step must be > 0, got {self.dt}")
        parts = np.ascontiguousarray(np.atleast_2d(self.parts), dtype=np.float64)
        if parts.shape[1] < 2:
            raise ConfigError(f"sample count must be >= 2, got {parts.shape[1]}")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return self.parts.shape[1]

    def axis(self) -> np.ndarray:
        """Sample times, seconds."""
        return self.t0 + self.dt * np.arange(self.n)


LEAD_SIGMAS = 9.0
TAIL_LIFETIMES = 15.0
#: fine-grid step ceilings per lifetime (``oracle.build_model``'s too), per sigma
STEP_LIFETIME_FRACTION = 0.02
STEP_SIGMA_FRACTION = 0.05
#: most samples of a fine grid: 8x the largest that the tests, defaults
#: and sweeps use (32768, a 700 ns pulse at a 26 ns lifetime). The collision
#: model runs on the grid itself, in 26 grid-sized arrays at 64 emitters.
MAX_GRID_POINTS = 1 << 18


def gaussian_field(
    pulse: PulseSpec, gamma: float, n: int | None = None
) -> SampledSignal:
    """Unit-normalized Gaussian field envelope on n samples.

    The grid always spans [-9 sigma, 9 sigma + 15/gamma) around the pulse
    peak at t = 0: 9 sigma is the smallest whole-sigma lead that leaves
    the exp(-t^2/4 sigma^2) envelope below 1e-8 of its peak, and 15
    lifetimes of trailing room hold the medium's ringdown. With no n it
    is the fine grid every route runs on: the least power of two of at
    least 4096 samples whose step meets both step ceilings, refused with
    ConfigError, before allocating, past MAX_GRID_POINTS samples.

    The edge guard rejects a grid whose first or last sample holds more
    than 1e-8 of its largest sample. At this span that happens only on
    grids too coarse to sample the pulse: n = 2 always (one of its two
    samples is the largest), and n such as 4 or 8 when the pulse falls
    between samples or near the last one.
    """
    sig = pulse.sigma_rms
    t_lo = -LEAD_SIGMAS * sig
    span = LEAD_SIGMAS * sig + TAIL_LIFETIMES / gamma - t_lo
    if n is None:
        step = min(STEP_LIFETIME_FRACTION / gamma, STEP_SIGMA_FRACTION * sig)
        # multiplied, not divided: step underflows to 0 at extreme inputs
        if not span <= MAX_GRID_POINTS * step:
            raise ConfigError(
                f"linewidth {gamma:.3g} rad/s with sigma_rms {sig:.3g} s "
                f"needs more than {MAX_GRID_POINTS} grid samples"
            )
        n = max(4096, 1 << math.ceil(math.log2(span / step)))
    dt = span / n
    t = t_lo + dt * np.arange(n)
    env = np.exp(-(t**2) / (4.0 * sig * sig)).astype(np.complex128)
    if pulse.center_detuning != 0.0:
        env *= np.exp(-1j * pulse.center_detuning * t)
    peak = np.abs(env).max()
    if abs(env[0]) > EDGE_GUARD * peak or abs(env[-1]) > EDGE_GUARD * peak:
        raise ConfigError(
            f"{n}-sample grid is too coarse to sample the pulse: an edge "
            "sample holds more than 1e-8 of the largest sample"
        )
    # a complex divide by a real multiplies each part by the reciprocal
    scale = 1.0 / np.sqrt(np.sum(np.abs(env) ** 2) * dt)
    parts = np.stack((env.real, env.imag)) * scale
    return SampledSignal(dt=dt, t0=t_lo, parts=parts[parts.any(axis=1)])
