"""Host-speed reference for the end-to-end timings.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds to minutes, as other tenants come and go.
Wall time alone then measures the neighbours as much as the program. A
fixed reference kernel, independent of the package and timed in short
chunks throughout the run, measures that drift, and the benchmark
reports each time scaled to the speed at which every part of a chunk
takes its ``NOMINAL_S``.

A chunk has one part for each kind of work the package does:

* ``python``: a pure-python complex recursion, like the collision-model
  oracle without numba;
* ``numpy``: normal draws, broadcasting, an FFT and reductions on
  cache-sized arrays, like the sampler and the statistics;
* ``deflate``: zlib at the level of the shot log.

Neighbours slow these kinds by different amounts, so each time is scaled
with the mix of the work it measured: with ``weights`` the shares of the
three kinds in that work (summing to 1),

    scaled = measured / sum(weights[p] * mean(part p beside it) / NOMINAL_S[p])

During timed passes ``Ticker`` runs a chunk from a SIGALRM handler every
``INTERVAL_S`` seconds of wall time; the time spent in the handler is
taken out of the pass it interrupted. Python runs the handler in the
main thread between bytecodes, so a long call into C defers it; nothing
runs concurrently with the program.
"""

from __future__ import annotations

import bisect
import functools
import signal
import statistics
import time
import zlib

import numpy as np

#: each part's time on the reference host: 2 vCPUs of a shared Xeon
#: (Python 3.11, numpy 2.x), median over quiet minutes
NOMINAL_S = {"python": 0.019, "numpy": 0.015, "deflate": 0.019}
#: wall time between chunks while passes run
INTERVAL_S = 1.0

_PY_STEPS, _PY_EMITTERS = 1000, 64
_NP_SHAPE, _NP_REPEATS = (64, 256), 48
_DEFLATE_BYTES = 1 << 19


@functools.cache
def _inputs() -> tuple[np.ndarray, bytes]:
    trace = np.sin(np.linspace(0.0, 8.0, _NP_SHAPE[1]))
    deflate = np.random.default_rng(0).standard_normal(_DEFLATE_BYTES // 8).tobytes()
    return trace, deflate


def _python_part() -> complex:
    atoms = [0j] * _PY_EMITTERS
    c, s = 0.96, 0.28
    b = 0j
    for _ in range(_PY_STEPS):
        b = 1.0 + 0j
        for k in range(_PY_EMITTERS):
            bk = c * b - 1j * s * atoms[k]
            atoms[k] = -1j * s * b + c * atoms[k]
            b = bk
    return b


def _numpy_part(trace: np.ndarray) -> float:
    rng = np.random.default_rng(1)
    acc = 0.0
    for _ in range(_NP_REPEATS):
        noise = rng.standard_normal(_NP_SHAPE)
        traces = 0.3 * noise + 2.0 * trace[None, :]
        spectrum = np.fft.rfft(traces, axis=1)
        acc += float(np.abs(spectrum).sum()) + float(traces.mean(axis=0) @ trace)
    return acc


def chunk() -> dict[str, float]:
    """Run one reference chunk; return the wall time of each part."""
    trace, deflate = _inputs()
    parts = (
        ("python", _python_part),
        ("numpy", lambda: _numpy_part(trace)),
        ("deflate", lambda: zlib.compress(deflate, 6)),
    )
    times = {}
    for name, part in parts:
        start = time.perf_counter()
        part()
        times[name] = time.perf_counter() - start
    return times


def scale(chunks: list[dict[str, float]], weights: dict[str, float]) -> float:
    """Factor that takes a time measured beside ``chunks``, on work of
    the given mix, to the reference host speed."""
    slowdown = sum(
        w * statistics.fmean(c[part] for c in chunks) / NOMINAL_S[part]
        for part, w in weights.items()
    )
    return 1.0 / slowdown


class Ticker:
    """Times a reference chunk every ``INTERVAL_S`` seconds of wall time
    while active, from a SIGALRM handler.

    ``chunks`` holds every chunk's part times and ``stamps`` the
    ``time.perf_counter()`` at which each chunk ended; ``spent`` is the
    total time spent in the handler, to be taken out of the passes it
    interrupted.
    """

    def __init__(self):
        self.chunks: list[dict[str, float]] = []
        self.stamps: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        try:
            self.chunks.append(chunk())
            self.stamps.append(time.perf_counter())
        finally:
            self.spent += time.perf_counter() - start
            self._busy = False

    def __enter__(self) -> "Ticker":
        chunk()  # untimed: a process's first chunk can run slower
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def beside(self, start: float, end: float) -> list[dict[str, float]]:
        """Chunks that ended between ``start`` and ``end``, or else the
        one that ended nearest to that interval."""
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        if hi > lo:
            return self.chunks[lo:hi]
        near = min(
            (i for i in (lo - 1, lo) if 0 <= i < len(self.stamps)),
            key=lambda i: min(abs(self.stamps[i] - start), abs(self.stamps[i] - end)),
        )
        return [self.chunks[near]]
