"""Shot-level simulator of the post-selected cross-phase measurement.

A shot is one acquisition window holding one coherent signal pulse. The
pulse carries N ~ Poisson(mu) photons; each is independently transmitted
(probability T) or scattered, and each transmitted photon fires the
detector with probability eta. By Poisson thinning (Kingman, *Poisson
Processes*, 1993) the transmitted and scattered counts are independent,
n_T ~ Poisson(mu T) and n_S ~ Poisson(mu (1 - T)), with N = n_T + n_S,
so the sampler draws those two counts and no binomial split of N. A
background click happens with probability p_bg per shot regardless of
the light. The probe phase trace is linear in the photon fates,

    phase(t) = n_T phi_T1(t) + n_S phi_S1(t) + noise,

with per-photon shapes derived from the theory modules and i.i.d.
Gaussian noise per sample; ``config.ShotConfig`` sets the window, the
budget and the noise, and holds their bounds. Everything downstream
(post-selection averaging, backgrounds, systematics injection) consumes these shots.

The analysis reads only each cycle's two class sums (clicked and silent
shots) and counts, and those are all a cycle draws by default: after
the per-shot photon fates, each class's summed noise is drawn directly,
sqrt(n_c) N(0, 1) per sample, 72 normals for a default cycle instead of
54,000. The trace is linear in the fates and the noise, and the wobble
and low-pass are linear too, so one formula (``_phase_rows``) forms a
phase row from either one shot's draws or their class sums
(``analysis.class_sums``). Only ``simulate``, which logs per-shot
traces, asks for them (``traces=True``): it draws the per-shot noise
after the class sums and conditions it on them, so both outputs share
their draws and a logged cycle sums to the class sums of the same seed.
The draw-order contract of ``simulate_cycle`` covers them both.

Poisson conditioning is the one subtlety: clicking selects shots with
more transmitted photons, so the click/no-click trace difference is not
phi_T1 but kappa * phi_T1 with

    kappa = E[n_T | click] - E[n_T | no click]
          = lam eta / P(click),      lam = mu T,

which follows from thinning (n_T is Poisson(lam), independent of n_S)
and the tilted mean E[n_T | no detection] = lam (1 - eta). kappa -> 1
as eta -> 0: detecting one photon then raises the inferred transmitted
number by exactly one. ``kappa_enumeration`` evaluates kappa by direct
summation over the Poisson support, independently of the closed form.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .analysis import class_sums
from .config import ShotConfig
from .errors import ConfigError
from .excitation import phi0_trace, spectral_report
from .medium import MediumSpec, conversion_factor
from .oracle import weak_excitation_trace
from .pulse import PulseSpec, gaussian_field

__all__ = [
    "CycleData",
    "MODES",
    "bin_average",
    "derive_shapes",
    "calibrate_detection",
    "kappa_enumeration",
    "run_campaign",
]

MODES = ("normal", "no_atoms", "bypass_atoms", "no_signal")


@dataclass(frozen=True)
class CycleData:
    """One atom cycle of shots, kept as arrays for accumulation.

    ``sums`` holds the summed traces of the clicked shots (row 0) and of
    the silent shots (row 1), ``counts`` the size of each class; the
    accumulator reads only these. A cycle drawn with ``traces=True``
    carries the per-shot traces instead, and a cycle read back from a
    shot log carries its sums and click flags, with None for the fates.
    """

    clicked: np.ndarray  # (shots,) bool
    sums: np.ndarray | None = None  # (2, n_samples)
    counts: tuple[int, int] | None = None
    traces: np.ndarray | None = None  # (shots, n_samples)
    n_transmitted: np.ndarray | None = None
    n_scattered: np.ndarray | None = None
    background_clicked: np.ndarray | None = None


@dataclass(frozen=True)
class PerPhotonShapes:
    """Phase-trace shapes on the detection grid, radians per photon.

    The scattered shape is not an argument: ``phi_S1`` is solved from
    phi_01 = tbar phi_T1 + (1 - tbar) phi_S1, pointwise. When the medium
    is transparent (tbar -> 1) it is undefined and set to zero.
    """

    phi_T1: np.ndarray = field(repr=False)
    phi_01: np.ndarray = field(repr=False)
    tbar: float
    phi_S1: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if 1.0 - self.tbar < 1e-12:
            phi_s1 = np.zeros_like(self.phi_01)
        else:
            phi_s1 = (self.phi_01 - self.tbar * self.phi_T1) / (1.0 - self.tbar)
        object.__setattr__(self, "phi_S1", phi_s1)


@dataclass(frozen=True)
class DetectionCalibration:
    """Per-photon detection probability and per-shot background rate."""

    eta: float
    p_bg: float
    lam: float  # mean transmitted photons per shot, mu * tbar


def bin_average(
    values: np.ndarray, dt: float, t0: float, edges: np.ndarray
) -> np.ndarray:
    """Integral-preserving average of a fine trace over coarse bins.

    The trace is treated as piecewise linear (trapezoidal antiderivative)
    and zero outside its grid; bin i gets its mean over
    [edges[i], edges[i+1]].
    """
    vals = np.asarray(values, dtype=np.float64)
    cum = np.concatenate(
        ([0.0], np.cumsum(0.5 * dt * (vals[1:] + vals[:-1])))
    )
    t = t0 + dt * np.arange(len(vals))
    at_edges = np.interp(edges, t, cum)
    widths = np.diff(edges)
    if np.any(widths <= 0.0):
        raise ConfigError("bin edges must be strictly increasing")
    return np.diff(at_edges) / widths


def derive_shapes(
    medium: MediumSpec,
    pulse: PulseSpec,
    config: ShotConfig,
    n_atoms: int,
    snap_every: int = 64,
) -> PerPhotonShapes:
    """Per-photon phase shapes: conditional trace from the collision
    model, unconditioned trace from ``phi0_trace``; ``PerPhotonShapes``
    solves the scattered shape from the two.

    ``snap_every`` is ignored: the collision model keeps no checkpoints."""
    sig = gaussian_field(pulse, medium.gamma)
    conv = conversion_factor(medium)
    weak = weak_excitation_trace(sig, medium, n_atoms=n_atoms)
    phi_t_fine = conv * weak.weak
    phi_0_fine = phi0_trace(sig, medium)
    tbar = spectral_report(sig, medium).transmission

    edges = config.bin_edges()
    phi_t1 = bin_average(phi_t_fine, weak.dt, weak.t0, edges)
    phi_01 = bin_average(phi_0_fine, sig.dt, sig.t0, edges)
    return PerPhotonShapes(phi_t1, phi_01, tbar)


def calibrate_detection(
    tbar: float,
    mean_photons: float,
    target_click_prob: float,
    f_bg: float,
) -> DetectionCalibration:
    """Solve for (eta, p_bg) hitting the target click probability.

    Backgrounds take the fraction f_bg of the click budget
    (p_bg = f_bg * target) and eta covers the rest through
    1 - (1 - p_bg) exp(-eta mu tbar) = target.
    """
    if not 0.0 < tbar <= 1.0:
        raise ConfigError("transmission must lie in (0, 1]")
    if not 0.0 <= f_bg < 1.0:
        raise ConfigError("background click fraction must lie in [0, 1)")
    lam = mean_photons * tbar
    if target_click_prob == 0.0:
        return DetectionCalibration(eta=0.0, p_bg=0.0, lam=lam)
    p_bg = f_bg * target_click_prob
    needed = math.log((1.0 - p_bg) / (1.0 - target_click_prob))
    if lam <= 0.0:
        raise ConfigError(
            "click target unreachable: no transmitted photons to detect"
        )
    eta = needed / lam
    if eta > 1.0:
        raise ConfigError(
            f"click target {target_click_prob:g} needs eta = {eta:.3f} > 1; "
            "raise mean_photons or the transmission"
        )
    return DetectionCalibration(eta=eta, p_bg=p_bg, lam=lam)


#: largest photon number summed by kappa_enumeration
_KAPPA_N_MAX = 200


def kappa_enumeration(eta: float, lam: float, p_bg: float) -> float:
    """Poisson-conditioning factor kappa by direct summation over the
    Poisson support.

    Deliberately independent of the closed form lam eta / P(click); the
    two agree to float precision for any admissible (eta, lam, p_bg).
    """
    if lam < 0.0:
        raise ConfigError("mean transmitted photon number must be >= 0")
    pmf = math.exp(-lam)
    # exp(-lam) underflow would zero the whole sum and dodge the tail
    # check below
    if pmf == 0.0:
        raise ConfigError(f"Poisson tail not negligible at n_max = {_KAPPA_N_MAX}")
    p_click = e_n_click = e_n_noclick = p_noclick = 0.0
    for n in range(_KAPPA_N_MAX + 1):
        p_click_n = 1.0 - (1.0 - p_bg) * (1.0 - eta) ** n
        p_click += pmf * p_click_n
        e_n_click += pmf * n * p_click_n
        p_noclick += pmf * (1.0 - p_click_n)
        e_n_noclick += pmf * n * (1.0 - p_click_n)
        pmf *= lam / (n + 1)
    if pmf * lam > 1e-12:
        raise ConfigError(f"Poisson tail not negligible at n_max = {_KAPPA_N_MAX}")
    if p_click == 0.0:
        return 1.0
    if p_noclick == 0.0:
        return e_n_click / p_click - lam
    return e_n_click / p_click - e_n_noclick / p_noclick


def _effective(mode: str, shapes, cal, config):
    """Map a null-dataset kind onto (mu, tbar, eta, shapes)."""
    if mode == "normal":
        return config.mean_photons, shapes.tbar, cal.eta, shapes
    # no null kind gives a photon any phase
    z = np.zeros_like(shapes.phi_01)
    dark = PerPhotonShapes(z, z, 1.0)
    if mode in ("no_atoms", "bypass_atoms"):
        # signal light never meets the cloud: full transmission
        return config.mean_photons, 1.0, cal.eta, dark
    if mode == "no_signal":
        if cal.p_bg <= 0.0:
            raise ConfigError(
                "no_signal dataset needs background clicks; set "
                "background_click_fraction > 0"
            )
        return 0.0, 1.0, 0.0, dark
    raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")


def _lowpass(traces: np.ndarray, dt: float, cutoff: float) -> None:
    """One-pole low-pass along each row (a shot, or a class sum), in
    place: column j is read before it is overwritten with the filtered
    value."""
    a = math.exp(-2.0 * math.pi * cutoff * dt)
    acc = np.zeros(traces.shape[0])
    for j in range(traces.shape[1]):
        acc = a * acc + (1.0 - a) * traces[:, j]
        traces[:, j] = acc


def _photon_terms(n_t, n_s, eff, config):
    """The trace's photon terms as per-shot coefficients (shots, k) and
    their shapes (k, n_samples): n_t phi_T1 + n_s phi_S1, plus the
    ripple n_ph / mu, with n_ph = n_t + n_s, when the wobble is on."""
    cols, shapes = [n_t, n_s], [eff.phi_T1, eff.phi_S1]
    if config.wobble_amplitude != 0.0:
        cols.append((n_t + n_s) / config.mean_photons)
        shapes.append(
            config.wobble_amplitude
            * np.sin(
                2.0 * np.pi * config.wobble_frequency * config.sample_times()
                + config.wobble_phase
            )
        )
    return np.column_stack(cols).astype(np.float64), np.stack(shapes)


def _phase_rows(rows, coef, shapes, config) -> None:
    """Noise rows turned in place into phase rows, sigma rows +
    coef @ shapes, then the low-pass. A row is one shot, with its own
    coefficients, or one class sum, with the summed coefficients of its
    shots: every term is linear, so the same formula serves both. The
    product is the one work array."""
    rows *= config.phase_noise_rms
    rows += coef @ shapes
    if config.lowpass_enabled:
        _lowpass(rows, config.dt, config.lowpass_cutoff)


def simulate_cycle(
    rng: np.random.Generator,
    shapes: PerPhotonShapes,
    config: ShotConfig,
    cal: DetectionCalibration,
    mode: str = "normal",
    traces: bool = False,
) -> CycleData:
    """All shots of one atom cycle, vectorized.

    The draw order is part of the reproducibility contract and must not
    change: transmitted counts n_T ~ Poisson(mu T), scattered counts
    n_S ~ Poisson(mu (1 - T)), the two independent by thinning, then
    detections, background uniforms, class-sum noise, and only with
    ``traces`` the per-shot noise matrix. The photon number is
    n_T + n_S. The counts come before every draw that reads eta, so two
    campaigns of one seed that differ only in their calibration share
    their photon counts. The per-shot traces (``traces=True``) and the
    class sums (the default) share every draw they both make, so their
    photon fates, click flags and class sums agree.

    The noise of a class is drawn as its sum: for n_c i.i.d. unit
    normals that sum is sqrt(n_c) N(0, 1), one row of 2 x n_samples
    normals. Per-shot noise rows w are drawn after it and conditioned on
    it, z_i = w_i - mean_c(w) + S_c / n_c. The mean of i.i.d. normals is
    independent of their deviations from it, so the z_i are exactly
    i.i.d. unit normals with class sums S_c. ``_phase_rows`` then forms
    the traces from the rows z and the per-shot photon numbers, or the
    class sums from S and the summed photon numbers; in floats the
    summed traces differ from the class sums only in rounding.
    """
    mu, tbar, eta, eff = _effective(mode, shapes, cal, config)
    shots = config.shots_per_cycle
    n_t = rng.poisson(mu * tbar, shots)
    n_s = rng.poisson(mu * (1.0 - tbar), shots)
    n_det = rng.binomial(n_t, eta)
    u_bg = rng.random(shots)

    bg = u_bg < cal.p_bg
    clicked = (n_det > 0) | bg
    fates = dict(n_transmitted=n_t, n_scattered=n_s, background_clicked=bg)
    coef, terms = _photon_terms(n_t, n_s, eff, config)
    summed, counts = class_sums(coef, clicked)
    n_class = np.array(counts, dtype=np.float64)[:, None]
    sums = rng.standard_normal((2, config.n_samples))
    sums *= np.sqrt(n_class)
    if not traces:
        _phase_rows(sums, summed, terms, config)
        return CycleData(clicked=clicked, sums=sums, counts=counts, **fates)
    rows = rng.standard_normal((shots, config.n_samples))
    # the conditioning shift of each class, one more linear term: the
    # class flags select it, scaled by sigma like the noise it moves; an
    # empty class has no shot to shift
    shift = (sums - class_sums(rows, clicked)[0]) / np.maximum(n_class, 1.0)
    _phase_rows(
        rows,
        np.column_stack((coef, clicked, ~clicked)),
        np.concatenate((terms, config.phase_noise_rms * shift)),
        config,
    )
    return CycleData(clicked=clicked, traces=rows, **fates)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_campaign(
    seed: int,
    n_cycles: int,
    shapes: PerPhotonShapes,
    config: ShotConfig,
    cal: DetectionCalibration,
    mode: str = "normal",
    traces: bool = False,
) -> Iterator[CycleData]:
    """Cycles [0, n_cycles) in index order, one independent stream each.

    Cycle c uses np.random.default_rng([seed, c]), so any cycle can be
    regenerated in isolation and the fan-out cannot change results.
    ``traces`` is passed to ``simulate_cycle``: set it only where the
    per-shot traces are read. It also picks the fan-out. A class-sum
    cycle is almost all photon-fate draws, which hold the interpreter
    lock, so a second thread only adds pool overhead: those cycles are
    drawn serially in the consumer's thread. Per-shot cycles spend most
    of their time in ``standard_normal``, which releases the lock, so
    one thread per usable CPU draws them (serially when only one CPU
    is usable). At most two cycles per thread are drawn ahead of the
    consumer, so memory stays bounded however long the campaign.
    """
    if n_cycles < 0:
        raise ConfigError("n_cycles must be non-negative")

    def one(cycle: int) -> CycleData:
        rng = np.random.default_rng([seed, cycle])
        return simulate_cycle(rng, shapes, config, cal, mode=mode, traces=traces)

    threads = _usable_cpus() if traces else 1
    if threads <= 1:
        for cycle in range(n_cycles):
            yield one(cycle)
        return
    window = 2 * threads
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque()
        try:
            for cycle in range(n_cycles):
                pending.append(pool.submit(one, cycle))
                if len(pending) == window:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            # a consumer that stops early waits only for running cycles
            for future in pending:
                future.cancel()

