"""Excited-atom population and spectral observables of a pulse crossing
the cloud.

Spectra follow the transform convention

    E~(delta) = integral E(t) exp(+i delta t) dt
    E(t)      = integral E~(delta) exp(-i delta t) ddelta / (2 pi)

realized as an FFT pair on the pulse grid: ``np.fft.ifft`` carries
exp(+i delta t), so its bin k sits at delta_k = 2 pi f_k with f_k from
``np.fft.fftfreq``. Propagation through the medium multiplies the
spectrum by the transfer function t(delta). Every observable here works
with grid-relative phases, so the absolute grid origin only matters
when comparing traces between grids.

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

The spectral route gives the mean power transmission and two
excitation-time observables per photon:

    T     = integral(|E~ t|^2) / integral(|E~|^2)
    tau_0 = (1 - T)/gamma            averaged over all incident photons
    tau_T = integral(|E~ t|^2 tau_g) / integral(|E~ t|^2)
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
from .pulse import SampledSignal

__all__ = [
    "excited_population",
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

    transmission: float
    tau_0: float
    tau_T: float
    ratio: float


def excited_population(sig: SampledSignal, medium: MediumSpec) -> ExcitationTrace:
    """Excited population N_e(t) per incident photon on the pulse grid.

    Converges quadratically in ``medium.n_slabs``; at the default count,
    doubling it changes integral(N_e dt) by less than 1e-3 relative.
    """
    n = sig.n
    # numpy's forward transform carries exp(-i w t), the model exp(+i delta
    # t): rfft bin m sits at delta = -w_m
    delta = -2.0 * np.pi * np.fft.rfftfreq(n, d=sig.dt)
    kernel = (np.sqrt(medium.gamma) / 2.0) / (medium.gamma / 2.0 - 1j * delta)
    # every factor is Hermitian in delta, so each part of the field drives
    # real slab amplitudes of its own: |c_k|^2 sums over the two parts
    parts = np.stack((sig.samples.real, sig.samples.imag))
    base = np.fft.rfft(parts[parts.any(axis=1)], axis=-1) * kernel
    w = medium.od / medium.n_slabs
    half = transfer_function(delta, w / 2.0, medium.gamma)  # to first midpoint
    step = transfer_function(delta, w, medium.gamma)
    values = np.zeros(n)
    filt = half.copy()
    for _ in range(medium.n_slabs):
        ck = np.fft.irfft(base * filt, n)
        values += w * np.einsum("ij,ij->j", ck, ck)
        filt *= step
    return ExcitationTrace(dt=sig.dt, values=values)


def spectral_report(sig: SampledSignal, medium: MediumSpec) -> ExcitationReport:
    """T, tau_0 and tau_T (seconds) from one transform of the pulse.

    T tends to exp(-od) in the narrowband limit; all three are invariant
    under time shifts of the input.
    """
    delta = 2.0 * np.pi * np.fft.fftfreq(sig.n, d=sig.dt)
    spectrum = np.fft.ifft(sig.samples)
    t = transfer_function(delta, medium.od, medium.gamma)
    w = np.abs(spectrum) ** 2
    tbar = float(np.sum(w * np.abs(t) ** 2) / np.sum(w))
    tau0 = (1.0 - tbar) / medium.gamma
    w_out = np.abs(spectrum * t) ** 2
    tg = group_delay(delta, medium.od, medium.gamma)
    tauT = float(np.sum(w_out * tg) / np.sum(w_out))
    ratio = tauT / tau0 if tau0 != 0.0 else float("nan")
    return ExcitationReport(transmission=tbar, tau_0=tau0, tau_T=tauT, ratio=ratio)


def phi0_trace(sig: SampledSignal, medium: MediumSpec) -> np.ndarray:
    """Unconditioned probe phase per incident photon, phi_0(t) = C N_e(t).

    Radians, on the pulse grid. Sign follows the probe detuning through C.
    """
    ne = excited_population(sig, medium)
    return conversion_factor(medium) * ne.values

