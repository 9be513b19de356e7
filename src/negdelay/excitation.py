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

A layer of the cloud at cumulative optical depth z sees the field
filtered by the medium in front of it, and its excitation amplitude
follows the single-atom response, so

    c(z, t) = integral ddelta/(2 pi) exp(-i delta t) E~(delta)
              * exp(-(z/2) L(delta)) * (sqrt(gamma)/2) / (gamma/2 - i delta)

and the excited population per incident photon is the depth integral
N_e(t) = integral_0^od |c(z, t)|^2 dz. The integrand is analytic in z,
so Gauss-Legendre quadrature converges exponentially (Davis &
Rabinowitz, Methods of Numerical Integration, 1984):

    N_e(t) = sum_k w_k |c(z_k, t)|^2

with z_k, w_k the 16 nodes and weights of the rule mapped to [0, od],
which reach rounding up to od 32. Unconditioned bookkeeping closes:
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

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError
from .medium import MediumSpec, conversion_factor, group_delay, transfer_function
from .pulse import SampledSignal

__all__ = ["spectral_report", "phi0_trace"]


@dataclass(frozen=True)
class ExcitationReport:
    """Summary observables for one (pulse, medium) operating point."""

    transmission: float
    tau_0: float
    tau_T: float


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights of the n-point Gauss-Legendre rule on
    [-1, 1]: Newton's method on the three-term recurrence of P_n from
    Tricomi's initial guesses; four of its six steps reach rounding for
    every n up to 128."""
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(6):
        p0, p1 = np.ones(n), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (p0 - x * p1) / (1.0 - x * x)  # P_n'(x)
        x = x - p1 / dp
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    # the rule is symmetric about 0: average each node with its mirror
    return (x[::-1] - x) / 2.0, (w + w[::-1]) / 2.0


#: nodes and weights on [-1, 1] of the depth integral: 16 nodes agree
#: with 96 to 1e-12 of the N_e peak up to od 32, and to 4e-8 at od 64
_DEPTH_RULE = _gauss_legendre(16)


def spectral_report(sig: SampledSignal, medium: MediumSpec) -> ExcitationReport:
    """T, tau_0 and tau_T (seconds) from one transform of the pulse.

    T tends to exp(-od) in the narrowband limit; all three are invariant
    under time shifts of the input. Raises ConvergenceError when no power
    is transmitted, which leaves tau_T without a norm.
    """
    delta = 2.0 * np.pi * np.fft.fftfreq(sig.n, d=sig.dt)
    spectrum = np.fft.ifft(sig.samples)
    t = transfer_function(delta, medium.od, medium.gamma)
    w = np.abs(spectrum) ** 2
    tbar = float(np.sum(w * np.abs(t) ** 2) / np.sum(w))
    tau0 = (1.0 - tbar) / medium.gamma
    w_out = np.abs(spectrum * t) ** 2
    norm = np.sum(w_out)
    if norm == 0.0:
        raise ConvergenceError("no power is transmitted: tau_T is undefined")
    tg = group_delay(delta, medium.od, medium.gamma)
    tauT = float(np.sum(w_out * tg) / norm)
    return ExcitationReport(transmission=tbar, tau_0=tau0, tau_T=tauT)


def phi0_trace(sig: SampledSignal, medium: MediumSpec) -> np.ndarray:
    """Unconditioned probe phase per incident photon, phi_0(t) = C N_e(t).

    Radians, on the pulse grid. Sign follows the probe detuning through C.
    Raises ConfigError when N_e leaves [0, 1]: a field normalized to one
    photon cannot excite more than one atom.
    """
    # numpy's forward transform carries exp(-i w t), the model exp(+i delta
    # t): rfft bin m sits at delta = -w_m
    delta = -2.0 * np.pi * np.fft.rfftfreq(sig.n, d=sig.dt)
    kernel = (np.sqrt(medium.gamma) / 2.0) / (medium.gamma / 2.0 - 1j * delta)
    # every factor is Hermitian in delta: each part of the field drives
    # real layer amplitudes of its own, and |c|^2 sums over the parts
    base = np.fft.rfft(sig.parts(), axis=-1) * kernel
    x, w = _DEPTH_RULE
    half = medium.od / 2.0
    ne = np.zeros(sig.n)
    for z, wk in zip(half * (x + 1.0), half * w):
        ck = np.fft.irfft(base * transfer_function(delta, z, medium.gamma), sig.n)
        ne += wk * np.einsum("ij,ij->j", ck, ck)
    # positive weights on squares: only the upper bound can fail
    if ne.max() > 1.0 + 1e-12:
        raise ConfigError(f"excited population must lie in [0, 1], not {ne.max():.3g}")
    return conversion_factor(medium) * ne
