"""Post-selection statistics: averaging, windows, integrals, fits.

The estimator of the conditional phase trace is built per atom cycle:
within one cycle, average the clicked and unclicked shots separately and
subtract. Cycles are then treated as i.i.d. samples of that difference,
which makes the covariance of the final mean a plain scatter estimate
and keeps the accumulation a commutative merge of
(count, sum, sum of outer products) partials, safe to parallelize.

Integrals use the trapezoidal rule over an index window chosen from the
theory trace (outermost crossings of a fraction of its absolute peak),
and the error bar follows from the covariance through sigma^2 = J^T M J
with J the trapezoid weights. A cycle-resampling bootstrap provides an
independent check of that propagation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AnalysisError, ConvergenceError

__all__ = [
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
    """Mean traces, their difference and its covariance."""

    phi_C: np.ndarray = field(repr=False)
    phi_NC: np.ndarray = field(repr=False)
    phi_T: np.ndarray = field(repr=False)
    cov: np.ndarray = field(repr=False)
    n_click: int = 0
    n_noclick: int = 0
    n_cycles: int = 0

    def __post_init__(self):
        # the class means carry the full per-shot phase scale, so after
        # many accumulated cycles the identity only holds to rounding at
        # that scale, not at the (much smaller) difference scale
        ref = max(
            float(np.max(np.abs(self.phi_C))),
            float(np.max(np.abs(self.phi_NC))),
            float(np.max(np.abs(self.phi_T))),
        )
        gap = float(np.max(np.abs(self.phi_T - (self.phi_C - self.phi_NC))))
        if gap > 1e-9 * ref:
            raise AnalysisError("phi_T is not the difference of the class means")
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


@dataclass(frozen=True)
class GaussianFit:
    amplitude: float
    center: float
    width: float
    center_err: float
    rms_residual: float
    n_iterations: int


class Accumulator:
    """Mergeable per-cycle statistics of the click/no-click difference.

    Stores first and second moments of the per-cycle difference traces,
    plus per-cycle class means; merging two accumulators adds the sums,
    so reduction order only matters at float rounding level.
    """

    def __init__(self, n_samples: int, keep_differences: bool = False):
        self.n_samples = n_samples
        self.n_cycles = 0
        self.n_click = 0
        self.n_noclick = 0
        self.sum_diff = np.zeros(n_samples)
        self.sum_outer = np.zeros((n_samples, n_samples))
        self.sum_mean_c = np.zeros(n_samples)
        self.sum_mean_nc = np.zeros(n_samples)
        self.differences: list[np.ndarray] | None = (
            [] if keep_differences else None
        )

    def add_cycle(self, traces: np.ndarray, clicked: np.ndarray) -> None:
        traces = np.asarray(traces, dtype=np.float64)
        clicked = np.asarray(clicked, dtype=bool)
        n_c = int(clicked.sum())
        n_nc = clicked.size - n_c
        if n_c == 0 or n_nc == 0:
            raise AnalysisError(
                f"cycle {self.n_cycles}: "
                f"{'click' if n_c == 0 else 'no-click'} class is empty"
            )
        mean_c = traces[clicked].mean(axis=0)
        mean_nc = traces[~clicked].mean(axis=0)
        diff = mean_c - mean_nc
        self.n_cycles += 1
        self.n_click += n_c
        self.n_noclick += n_nc
        self.sum_diff += diff
        self.sum_outer += np.outer(diff, diff)
        self.sum_mean_c += mean_c
        self.sum_mean_nc += mean_nc
        if self.differences is not None:
            self.differences.append(diff)

    def merge(self, other: "Accumulator") -> None:
        if other.n_samples != self.n_samples:
            raise AnalysisError("cannot merge accumulators of different widths")
        if (self.differences is None) != (other.differences is None):
            # the kept rows would no longer be the merged cycles
            raise AnalysisError(
                "cannot merge an accumulator that keeps differences with "
                "one that does not"
            )
        self.n_cycles += other.n_cycles
        self.n_click += other.n_click
        self.n_noclick += other.n_noclick
        self.sum_diff += other.sum_diff
        self.sum_outer += other.sum_outer
        self.sum_mean_c += other.sum_mean_c
        self.sum_mean_nc += other.sum_mean_nc
        if self.differences is not None:
            self.differences.extend(other.differences)

    def result(self) -> PostSelectedResult:
        n = self.n_cycles
        if n < 2:
            raise AnalysisError(
                "need at least two cycles to estimate the covariance"
            )
        mean_d = self.sum_diff / n
        # scatter of the per-cycle differences, scaled to the mean
        scatter = self.sum_outer - n * np.outer(mean_d, mean_d)
        cov = scatter / (n * (n - 1))
        cov = 0.5 * (cov + cov.T)
        d = np.diag(cov).copy()
        np.fill_diagonal(cov, np.where(d > 0.0, d, 0.0))
        return PostSelectedResult(
            phi_C=self.sum_mean_c / n,
            phi_NC=self.sum_mean_nc / n,
            phi_T=mean_d,
            cov=cov,
            n_click=self.n_click,
            n_noclick=self.n_noclick,
            n_cycles=n,
        )


def accumulate(cycles, keep_differences: bool = False):
    """Reduce an iterable of objects with .traces and .clicked arrays.

    Returns a PostSelectedResult, or (result, differences matrix) when
    keep_differences is set.
    """
    acc: Accumulator | None = None
    for cyc in cycles:
        if acc is None:
            acc = Accumulator(cyc.traces.shape[1], keep_differences)
        acc.add_cycle(cyc.traces, cyc.clicked)
    if acc is None:
        raise AnalysisError("no cycles to accumulate")
    res = acc.result()
    if keep_differences:
        return res, np.asarray(acc.differences)
    return res


def integration_window(theory_trace: np.ndarray, fraction: float) -> tuple[int, int]:
    """Outermost crossings of fraction * max|trace|, inclusive indices."""
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


def integral_with_error(
    trace: np.ndarray, cov: np.ndarray, window: tuple[int, int], dt: float
) -> IntegralResult:
    """Trapezoidal integral over the window with sigma = sqrt(J^T M J),
    M the window's block of ``cov``; only float-noise negatives clamp."""
    value, jac = integrate_trapz(trace, window, dt)
    lo, hi = window
    jac = jac[lo : hi + 1]
    cov = np.asarray(cov, dtype=np.float64)[lo : hi + 1, lo : hi + 1]
    if cov.shape != (jac.size, jac.size):
        raise AnalysisError(
            f"covariance shape {cov.shape} does not match jacobian {jac.size}"
        )
    var = float(jac @ cov @ jac)
    scale = float(np.sum(np.abs(jac)) ** 2 * np.max(np.abs(cov), initial=0.0))
    if var < -1e-14 * scale:
        raise AnalysisError(f"negative variance {var:.3e} beyond rounding")
    return IntegralResult(value=value, sigma=float(np.sqrt(max(var, 0.0))))


def ratio_estimate(
    phiT_integral: IntegralResult, phi0_trace: np.ndarray, dt: float
) -> tuple[float, float]:
    """Windowed phi_T integral over the full phi_0 integral.

    phi_0 enters as an exact calibration: its statistical error is not
    propagated, so sigma comes from the phi_T integral alone.
    """
    denom = float(np.trapezoid(np.asarray(phi0_trace, dtype=np.float64), dx=dt))
    if denom == 0.0:
        raise AnalysisError("phi_0 integrates to zero: ratio undefined")
    return phiT_integral.value / denom, phiT_integral.sigma / abs(denom)


def fit_gaussian(trace: np.ndarray, dt: float) -> GaussianFit:
    """Damped least-squares fit of a exp(-(t - c)^2 / (2 w^2)).

    t runs from 0 in steps of dt, so ``center`` is measured from the
    first sample; the caller owns any axis offset. Initialization takes
    the (earliest) extremum of |trace| and its second moment; iteration
    stops when the largest relative parameter step drops below 1e-8.
    """
    y = np.asarray(trace, dtype=np.float64)
    if y.size < 4:
        raise AnalysisError("need at least 4 samples to fit a Gaussian")
    if np.ptp(y) == 0.0:
        raise AnalysisError("flat trace: nothing to fit")
    t = dt * np.arange(y.size)
    i0 = int(np.argmax(np.abs(y)))
    a, c = y[i0], t[i0]
    wgt = np.abs(y)
    w = float(np.sqrt(np.sum(wgt * (t - c) ** 2) / np.sum(wgt)))
    w = max(w, dt)

    def model_and_jac(a, c, w):
        g = np.exp(-((t - c) ** 2) / (2.0 * w**2))
        m = a * g
        jac = np.column_stack(
            (g, m * (t - c) / w**2, m * (t - c) ** 2 / w**3)
        )
        return m, jac

    m, jac = model_and_jac(a, c, w)
    sse = float(np.sum((m - y) ** 2))
    damping = 1e-3
    n_iter = 0
    converged = False
    for n_iter in range(1, 201):
        r = m - y
        jtj = jac.T @ jac
        rhs = -jac.T @ r
        try:
            step = np.linalg.solve(
                jtj + damping * np.diag(np.diag(jtj)), rhs
            )
        except np.linalg.LinAlgError:
            damping *= 10.0
            continue
        a_n, c_n, w_n = a + step[0], c + step[1], w + step[2]
        w_n = abs(w_n) if w_n != 0.0 else dt
        m_n, jac_n = model_and_jac(a_n, c_n, w_n)
        sse_n = float(np.sum((m_n - y) ** 2))
        if sse_n <= sse:
            rel = np.max(
                np.abs(step)
                / np.maximum(np.abs([a_n, c_n, w_n]), 1e-300)
            )
            a, c, w, m, jac, sse = a_n, c_n, w_n, m_n, jac_n, sse_n
            damping = max(damping / 3.0, 1e-12)
            if rel < 1e-8:
                converged = True
                break
        else:
            damping *= 10.0
            if damping > 1e12:
                break
    rms = float(np.sqrt(sse / y.size))
    if not converged:
        raise ConvergenceError(
            f"Gaussian fit did not converge in {n_iter} iterations "
            f"(rms residual {rms:.3e}, amplitude {a:.3e})"
        )
    dof = y.size - 3
    if dof > 0:
        try:
            cov_p = np.linalg.inv(jac.T @ jac) * (sse / dof)
            center_err = np.sqrt(np.maximum(cov_p[1, 1], 0.0))
        except np.linalg.LinAlgError:
            center_err = np.inf
    else:
        center_err = 0.0
    return GaussianFit(
        amplitude=float(a),
        center=float(c),
        width=float(abs(w)),
        center_err=float(center_err),
        rms_residual=rms,
        n_iterations=n_iter,
    )


def time_align(
    exp_trace: np.ndarray,
    exp_dt: float,
    theory_trace: np.ndarray,
    theory_dt: float,
    exp_t0: float = 0.0,
    theory_t0: float = 0.0,
) -> tuple[float, float]:
    """Time shift between the fitted Gaussian centers, exp minus theory.

    The caller subtracts the shift from the experimental axis and must
    apply it identically to every trace of the run. Returns the shift
    and the quadrature-summed fit uncertainty, both in seconds.
    """
    fe = fit_gaussian(exp_trace, exp_dt)
    ft = fit_gaussian(theory_trace, theory_dt)
    shift = (exp_t0 + fe.center) - (theory_t0 + ft.center)
    return shift, float(np.hypot(fe.center_err, ft.center_err))


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
