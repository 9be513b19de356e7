"""Flat key-value run configuration and the shot record.

Files are plain text, one ``section.key = value`` per line, ``#`` starts
a comment. Units ride in the key names (_ns, _MHz, _mrad, _urad, _rad);
values are converted to SI (seconds, angular rad/s or Hz, radians) on
load, and every number, list entries included, must be finite as
written and once converted. ``_SCHEMA`` states each key once: its
parser, its default, the record field it fills and its conversion to
SI. Every key has a default mirroring the experiment's standing
constants, so an empty file is a valid configuration. The linewidth is
``medium.gamma_MHz`` (gamma / 2 pi; the default is a 26 ns lifetime).
The config hash covers the parsed key values, as written, with defaults
filled in. The random seed is not a key: it is the ``--seed`` flag of
the commands that draw shots. ``ShotConfig`` holds every bound a shot
must meet, so the sampler can trust any record it is given.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .medium import MediumSpec
from .pulse import PulseSpec

__all__ = ["RunConfig", "ShotConfig", "load_config", "default_config"]

SCHEMA_VERSION = 5

#: most float64 values in a cycle array (n_samples^2 covariance, shots x
#: n_samples traces): 32 MiB, 78x the default cycle; a typo could ask for GB
MAX_CYCLE_ELEMENTS = 1 << 22
#: most mean photons per shot: numpy's Generator.poisson refuses means
#: above about 9.2e18, and n_T + n_S must stay an int64; a real pulse
#: holds about 100
MAX_MEAN_PHOTONS = 1e15


@dataclass(frozen=True)
class ShotConfig:
    """Acquisition geometry, photon budget and noise for one shot, in SI.

    The window is n_samples bins of dt; the defaults live in ``_SCHEMA``.
    """

    n_samples: int
    dt: float
    mean_photons: float
    target_click_prob: float
    phase_noise_rms: float
    background_click_fraction: float
    lowpass_enabled: bool
    lowpass_cutoff: float
    shots_per_cycle: int
    pulse_center: float
    wobble_amplitude: float
    wobble_frequency: float
    wobble_phase: float

    def __post_init__(self):
        if self.n_samples < 1 or self.dt <= 0.0:
            raise ConfigError("need n_samples >= 1 and dt > 0")
        if not 0.0 <= self.mean_photons <= MAX_MEAN_PHOTONS:
            raise ConfigError(f"mean_photons must lie in [0, {MAX_MEAN_PHOTONS:g}]")
        if self.wobble_amplitude != 0.0 and self.mean_photons == 0.0:
            raise ConfigError("wobble injection needs mean_photons > 0")
        if not 0.0 <= self.target_click_prob < 1.0:
            raise ConfigError("target_click_prob must lie in [0, 1)")
        if not 0.0 <= self.background_click_fraction <= 0.2:
            raise ConfigError("background_click_fraction must lie in [0, 0.2]")
        if self.phase_noise_rms < 0.0:
            raise ConfigError("phase_noise_rms must be non-negative")
        if self.lowpass_cutoff <= 0.0 or self.wobble_frequency <= 0.0:
            raise ConfigError("filter and wobble frequencies must be positive")
        if self.shots_per_cycle < 1:
            raise ConfigError("shots_per_cycle must be at least 1")
        rows = max(self.n_samples, self.shots_per_cycle)
        if rows * self.n_samples > MAX_CYCLE_ELEMENTS:
            raise ConfigError(
                f"n_samples {self.n_samples} and shots_per_cycle {self.shots_per_cycle}"
                f" need more than {MAX_CYCLE_ELEMENTS} elements in one cycle array"
            )
        # outputs write the window's bin times in ns: its end must be finite there
        if not math.isfinite(self.n_samples * self.dt * 1e9):
            raise ConfigError("key 'shot.dt_ns': the window's end overflows in ns")
        # a pulse center far from the window swamps the bin width: the bin
        # edges on the pulse's time axis would round onto each other
        if not (np.diff(self.bin_edges()) > 0.0).all():
            raise ConfigError(
                f"key 'shot.pulse_center_ns': {self.pulse_center * 1e9:g} ns "
                f"leaves no room for bins of shot.dt_ns {self.dt * 1e9:g}"
            )
        # a probe phase wraps at 2 pi: noise or a ripple past pi rad is no
        # small phase, and far past it its square overflows the covariance
        for key, rad in (
            ("shot.phase_noise_mrad", self.phase_noise_rms),
            ("shot.wobble_amplitude_urad", self.wobble_amplitude),
        ):
            if not abs(rad) <= math.pi:
                raise ConfigError(
                    f"key {key!r}: must be at most pi rad, got {rad:g} rad"
                )

    def sample_times(self) -> np.ndarray:
        """Bin centers of the acquisition window, seconds."""
        return (np.arange(self.n_samples) + 0.5) * self.dt

    def bin_edges(self) -> np.ndarray:
        """Bin edges of the acquisition window on the pulse's time axis,
        which puts the pulse peak at t = 0, seconds."""
        return np.arange(self.n_samples + 1) * self.dt - self.pulse_center


@dataclass(frozen=True)
class RunConfig:
    medium: MediumSpec
    pulse: PulseSpec
    shot: ShotConfig
    n_cycles: int
    n_atoms: int
    window_fraction: float
    sweep_sigmas: tuple[float, ...]
    sweep_ods: tuple[float, ...]
    config_hash: str
    # inert and set by no key: perfbench passes it as derive_shapes(snap_every=)
    checkpoint_interval = 64

    def __post_init__(self):
        if self.n_cycles < 2:
            # the click/no-click covariance needs two cycles
            raise ConfigError("campaign.n_cycles must be at least 2")
        if self.n_atoms < 1:
            raise ConfigError("oracle.n_atoms must be at least 1")
        if not 0.0 <= self.window_fraction < 1.0:
            raise ConfigError("analysis.window_fraction must lie in [0, 1)")


def _bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    return value


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(map(_finite, raw.split(",")))


#: conversions to SI from the unit a key is written in; a product in any
#: other order can move a value's last bit, and with it every output
_MHZ, _MHZ_AS_HZ = (lambda v: 2.0 * math.pi * v * 1e6), (lambda v: v * 1e6)
_NS, _MRAD, _URAD = (lambda v: v * 1e-9), (lambda v: v * 1e-3), (lambda v: v * 1e-6)

#: records filled by the keys of a section; the other sections fill RunConfig
_RECORDS = {"medium": MediumSpec, "pulse": PulseSpec, "shot": ShotConfig}

# key -> (parser, default, record field, conversion to SI or None)
_SCHEMA = {
    "medium.od": (_finite, 4.0, "od", None),
    # gamma / 2 pi of a 26 ns lifetime; 2 pi * this * 1e6 == 1 / 26e-9 exactly
    "medium.gamma_MHz": (_finite, 6.121343965072898, "gamma", _MHZ),
    "medium.probe_detuning_MHz": (_finite, -20.0, "probe_detuning", _MHZ),
    # sigma0/A making the unconditioned phase peak 15 urad for a 27 ns rms
    # pulse at od 4 (26 ns lifetime, probe at -20 MHz) on the default grid
    "medium.sigma0_over_area": (_finite, 3.5405889380523065e-4, "sigma0_over_area", None),
    "pulse.sigma_rms_ns": (_finite, 10.0, "sigma_rms", _NS),
    "pulse.center_detuning_MHz": (_finite, 0.0, "center_detuning", _MHZ),
    "shot.n_samples": (int, 36, "n_samples", None),
    "shot.dt_ns": (_finite, 16.0, "dt", _NS),
    "shot.mean_photons": (_finite, 100.0, "mean_photons", None),
    "shot.target_click_prob": (_finite, 0.2, "target_click_prob", None),
    "shot.phase_noise_mrad": (_finite, 120.0, "phase_noise_rms", _MRAD),
    "shot.background_click_fraction": (_finite, 0.1, "background_click_fraction", None),
    "shot.lowpass_enabled": (_bool, False, "lowpass_enabled", None),
    "shot.lowpass_cutoff_MHz": (_finite, 25.0, "lowpass_cutoff", _MHZ_AS_HZ),
    "shot.shots_per_cycle": (int, 1500, "shots_per_cycle", None),
    "shot.pulse_center_ns": (_finite, 260.0, "pulse_center", _NS),
    "shot.wobble_amplitude_urad": (_finite, 0.0, "wobble_amplitude", _URAD),
    "shot.wobble_frequency_MHz": (_finite, 2.0, "wobble_frequency", _MHZ_AS_HZ),
    "shot.wobble_phase_rad": (_finite, 0.0, "wobble_phase", None),
    "campaign.n_cycles": (int, 100, "n_cycles", None),
    "oracle.n_atoms": (int, 64, "n_atoms", None),
    "analysis.window_fraction": (_finite, 0.3, "window_fraction", None),
    # the sweep's durations stay in ns: they label its rows
    "sweep.sigma_rms_ns": (_float_list, (10.0, 18.0, 27.0, 36.0), "sweep_sigmas", None),
    "sweep.od": (_float_list, (2.0, 4.0), "sweep_ods", None),
}


def _parse_lines(text: str) -> dict:
    values = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        parser = _SCHEMA[key][0]
        try:
            values[key] = parser(raw)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from None
    return values


def parse_config(text: str) -> RunConfig:
    vals = {key: row[1] for key, row in _SCHEMA.items()}
    vals.update(_parse_lines(text))
    fields = {section: {} for section in (*_RECORDS, "run")}
    for key, (_, _, name, to_si) in _SCHEMA.items():
        value = vals[key]
        if to_si is not None:
            # a finite number of MHz can overflow on its way to rad/s or Hz
            value = to_si(value)
            if not math.isfinite(value):
                raise ConfigError(
                    f"key {key!r}: must be finite in SI units, got {vals[key]}"
                )
        fields.get(key.split(".", 1)[0], fields["run"])[name] = value
    records = {section: cls(**fields[section]) for section, cls in _RECORDS.items()}
    return RunConfig(**records, **fields["run"], config_hash=_hash_values(vals))


def _hash_values(vals: dict) -> str:
    """sha256 prefix of one sorted ``key = repr(value)`` line per key."""
    lines = []
    for key in sorted(vals):
        val = vals[key]
        rendered = ",".join(map(repr, val)) if isinstance(val, tuple) else repr(val)
        lines.append(f"{key} = {rendered}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()[:12]


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config(text)


def default_config() -> RunConfig:
    return parse_config("")
