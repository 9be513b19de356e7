"""Post-selection statistics: averaging, windows, integrals, timestamp alignment.

The estimator of the conditional phase trace is built per atom cycle:
within one cycle, average the clicked and unclicked shots separately and
subtract. Cycles are then treated as i.i.d. samples of that difference,
which makes the covariance of the final mean a plain scatter estimate,
accumulated one cycle at a time as (count, mean, centred sum of outer
products). A cycle enters as its two class sums and counts
(``class_sums``): the sampler reduces its draws with it where it draws
the cycle, and the shot-log reader reduces the logged traces.

Integrals use the trapezoidal rule over an index window chosen from the
theory trace (outermost crossings of a fraction of its absolute peak),
and the error bar follows from the covariance through sigma^2 = J^T M J
with J the trapezoid weights. A cycle-resampling bootstrap provides an
independent check of that propagation. Timestamps align by the difference
of two full-record centroids, whose error follows the same propagation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AnalysisError

__all__ = [
    "class_sums",
    "accumulate",
    "integration_window",
    "integrate_trapz",
    "integral_with_error",
    "ratio_estimate",
    "time_align",
    "bootstrap_sigma",
]


@dataclass(frozen=True)
class PostSelectedResult:
    """Mean click-minus-no-click trace, its covariance, the class sizes
    summed over the kept cycles and the count of cycles skipped for an
    empty class."""

    phi_T: np.ndarray = field(repr=False)
    cov: np.ndarray = field(repr=False)
    n_click: int = 0
    n_noclick: int = 0
    n_skipped: int = 0

    def __post_init__(self):
        if np.max(np.abs(self.cov - self.cov.T)) != 0.0:
            raise AnalysisError("covariance must be exactly symmetric")
        if np.min(np.diag(self.cov)) < 0.0:
            raise AnalysisError("covariance has a negative diagonal entry")


@dataclass(frozen=True)
class IntegralResult:
    """Windowed integral with its propagated uncertainty, rad s."""

    value: float
    sigma: float

    def __post_init__(self):
        if self.sigma < 0.0:
            raise AnalysisError("sigma must be non-negative")


def class_sums(
    x: np.ndarray, clicked: np.ndarray
) -> tuple[np.ndarray, tuple[int, int]]:
    """Per-shot rows (or values) reduced to what the accumulator reads:
    their sums over the clicked and over the silent shots, as rows 0 and
    1, and the two class sizes. The sums are ``classes @ x``, with
    ``classes`` the (2, shots) matrix of clicked and silent flags, so
    ``x`` must be finite: a non-finite value would reach both rows."""
    clicked = np.asarray(clicked, dtype=bool)
    classes = np.stack([clicked, ~clicked]).astype(np.float64)
    n_click = int(np.count_nonzero(clicked))
    return classes @ x, (n_click, clicked.size - n_click)


class Accumulator:
    """Per-cycle statistics of the click/no-click difference.

    Holds the count, mean and centred sum of outer products (M2) of the
    per-cycle difference traces, updated one cycle at a time (Welford),
    so no large mean is ever subtracted from a large second moment.
    Every M2 term is a non-negative multiple of an outer product d d^T,
    so M2 is exactly symmetric with a non-negative diagonal. Reduction
    order matters only at float rounding level.

    A cycle with no clicked or no silent shot is skipped and counted.
    That is exact: E[d | K] is the same for every click count 0 < K < N,
    so the kept cycles stay i.i.d. and keep that mean.
    """

    def __init__(self, n_samples: int, keep_differences: bool = False):
        self.n_cycles = 0
        self.n_skipped = 0
        self.n_click = 0
        self.n_noclick = 0
        self.mean_diff = np.zeros(n_samples)
        self.m2 = np.zeros((n_samples, n_samples))
        self.differences: list[np.ndarray] | None = (
            [] if keep_differences else None
        )

    def add_cycle(self, sums: np.ndarray, counts: tuple[int, int]) -> None:
        """One cycle from its class sums (clicked row 0, silent row 1)
        and class sizes, as ``class_sums`` returns them."""
        n_c, n_nc = counts
        if n_c == 0 or n_nc == 0:
            self.n_skipped += 1
            return
        diff = sums[0] / n_c - sums[1] / n_nc
        self.n_cycles += 1
        self.n_click += n_c
        self.n_noclick += n_nc
        delta = diff - self.mean_diff
        self.mean_diff += delta / self.n_cycles
        self.m2 += ((self.n_cycles - 1) / self.n_cycles) * np.outer(delta, delta)
        if self.differences is not None:
            self.differences.append(diff)

    def result(self) -> PostSelectedResult:
        n = self.n_cycles
        if n < 2:
            raise AnalysisError(
                f"need at least two cycles to estimate the covariance: {n} "
                f"kept, {self.n_skipped} skipped because their click or "
                "no-click class is empty"
            )
        return PostSelectedResult(
            phi_T=self.mean_diff.copy(),
            # scatter of the per-cycle differences, scaled to the mean
            cov=self.m2 / (n * (n - 1)),
            n_click=self.n_click,
            n_noclick=self.n_noclick,
            n_skipped=self.n_skipped,
        )


def accumulate(cycles, keep_differences: bool = False):
    """Reduce an iterable of objects with .sums and .counts, as
    ``class_sums`` returns them.

    Returns a PostSelectedResult, or (result, differences matrix) when
    keep_differences is set.
    """
    acc: Accumulator | None = None
    for cyc in cycles:
        if acc is None:
            acc = Accumulator(cyc.sums.shape[1], keep_differences)
        acc.add_cycle(cyc.sums, cyc.counts)
    if acc is None:
        raise AnalysisError("no cycles to accumulate")
    res = acc.result()
    if keep_differences:
        return res, np.asarray(acc.differences)
    return res


def integration_window(theory_trace: np.ndarray, fraction: float) -> tuple[int, int]:
    """Outermost crossings of fraction * max|trace|, inclusive indices.

    The window moves in whole bins: on the default 16 ns shot bins every
    fraction in (0.116, 0.385] gives the same window of phi_T1."""
    if not 0.0 <= fraction < 1.0:
        raise AnalysisError("window fraction must lie in [0, 1)")
    mag = np.abs(np.asarray(theory_trace, dtype=np.float64))
    peak = mag.max()
    if peak == 0.0:
        raise AnalysisError("flat theory trace: no peak to window around")
    mask = mag >= fraction * peak if fraction > 0.0 else mag > 0.0
    idx = np.nonzero(mask)[0]
    return int(idx[0]), int(idx[-1])


def integrate_trapz(
    trace: np.ndarray, window: tuple[int, int], dt: float
) -> tuple[float, np.ndarray]:
    """Trapezoidal integral over the window and its full-length Jacobian."""
    lo, hi = window
    trace = np.asarray(trace, dtype=np.float64)
    if lo < 0 or hi >= trace.size or lo > hi:
        raise AnalysisError(f"window {window} out of bounds for {trace.size}")
    jac = np.zeros(trace.size)
    if hi > lo:
        jac[lo : hi + 1] = dt
        jac[lo] = jac[hi] = 0.5 * dt
    return float(jac @ trace), jac


def _propagate(jac: np.ndarray, cov: np.ndarray) -> float:
    """sqrt(J^T M J); only float-noise negatives clamp."""
    if cov.shape != (jac.size, jac.size):
        raise AnalysisError(
            f"covariance shape {cov.shape} does not match jacobian {jac.size}"
        )
    var = float(jac @ cov @ jac)
    scale = float(np.sum(np.abs(jac)) ** 2 * np.max(np.abs(cov), initial=0.0))
    if var < -1e-14 * scale:
        raise AnalysisError(f"negative variance {var:.3e} beyond rounding")
    return float(np.sqrt(max(var, 0.0)))


def integral_with_error(
    trace: np.ndarray, cov: np.ndarray, window: tuple[int, int], dt: float
) -> IntegralResult:
    """Trapezoidal integral over the window with sigma = sqrt(J^T M J),
    M the window's block of ``cov``."""
    value, jac = integrate_trapz(trace, window, dt)
    lo, hi = window
    cov = np.asarray(cov, dtype=np.float64)[lo : hi + 1, lo : hi + 1]
    return IntegralResult(value=value, sigma=_propagate(jac[lo : hi + 1], cov))


def ratio_estimate(
    phiT_integral: IntegralResult, phi0_trace: np.ndarray, dt: float
) -> tuple[float, float]:
    """Windowed phi_T integral over the full phi_0 integral.

    For a campaign's click-minus-no-click phi_T this estimates
    kappa * integral_window(phi_T1) / integral(phi_01), not tau_T/tau_0:
    kappa scales the measured trace and the window cuts its tails. At
    the default point it expects +0.3748 where the spectral tau_T/tau_0
    is +0.3990.

    phi_0 enters as an exact calibration: its statistical error is not
    propagated, so sigma comes from the phi_T integral alone.
    """
    denom = float(np.trapezoid(np.asarray(phi0_trace, dtype=np.float64), dx=dt))
    if denom == 0.0:
        raise AnalysisError("phi_0 integrates to zero: ratio undefined")
    return phiT_integral.value / denom, phiT_integral.sigma / abs(denom)


def _centroid(
    trace: np.ndarray, dt: float, t0: float
) -> tuple[float, np.ndarray]:
    """Full-record first moment sum(w t y) / sum(w y), w the trapezoid
    weights, and its derivative in the samples, w (t - c) / sum(w y)."""
    y = np.asarray(trace, dtype=np.float64)
    area, w = integrate_trapz(y, (0, y.size - 1), dt)
    if area == 0.0:
        raise AnalysisError("trace integrates to zero: no centroid")
    t = t0 + dt * np.arange(y.size)
    c = float(w @ (t * y)) / area
    return c, w * (t - c) / area


def time_align(
    exp_trace: np.ndarray,
    exp_cov: np.ndarray,
    exp_dt: float,
    theory_trace: np.ndarray,
    theory_dt: float,
    exp_t0: float = 0.0,
    theory_t0: float = 0.0,
) -> tuple[float, float]:
    """Time shift between the full-record centroids, exp minus theory.

    The centroid assumes the whole pulse lies inside both records and the
    two traces have the same shape. The theory trace enters as exact, as
    phi_0 does in ``ratio_estimate``, so sigma = sqrt(J^T M J) with M the
    experimental ``exp_cov`` and J the derivative of its centroid. The
    caller subtracts the shift from the experimental axis and must apply
    it identically to every trace of the run. Returns the shift and
    sigma, both in seconds.
    """
    c_exp, jac = _centroid(exp_trace, exp_dt, exp_t0)
    c_theory, _ = _centroid(theory_trace, theory_dt, theory_t0)
    cov = np.asarray(exp_cov, dtype=np.float64)
    return c_exp - c_theory, _propagate(jac, cov)


#: bytes of the index and gathered-value matrices bootstrap_sigma holds
#: at once (8 B each per element), whatever the cycle and resample counts
_GATHER_BYTES = 1 << 20


def bootstrap_sigma(
    differences: np.ndarray,
    window: tuple[int, int],
    dt: float,
    n_resamples: int = 10_000,
    seed: int = 0,
) -> float:
    """Cycle-resampling estimate of the windowed-integral uncertainty.

    Resamples cycles with replacement; because the integral is linear,
    each resample reduces to re-averaging the per-cycle windowed
    integrals. Beyond its input and the per-cycle and per-resample
    vectors, memory stays within ``_GATHER_BYTES`` (one resample row
    past 65,536 cycles).
    """
    d = np.asarray(differences, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] < 2:
        raise AnalysisError("need a (cycles, samples) matrix of differences")
    if n_resamples < 2:
        raise AnalysisError(
            f"need at least two resamples for a spread, got {n_resamples}"
        )
    n = d.shape[0]
    lo, hi = window
    _, jac = integrate_trapz(d[0], window, dt)
    per_cycle = d[:, lo : hi + 1] @ jac[lo : hi + 1]
    rng = np.random.default_rng(seed)
    # draw and gather the resampled rows a block at a time: the generator
    # continues one stream across calls, so the indices and each row's
    # mean are exactly those of one (n_resamples, cycles) draw
    block = max(1, _GATHER_BYTES // (16 * n))
    means = np.empty(n_resamples)
    for start in range(0, n_resamples, block):
        rows = min(block, n_resamples - start)
        idx = rng.integers(0, n, size=(rows, n))
        means[start : start + rows] = per_cycle[idx].mean(axis=1)
    return float(means.std(ddof=1))
