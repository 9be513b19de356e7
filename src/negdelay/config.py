"""Flat key-value run configuration.

Files are plain text, one ``section.key = value`` per line, ``#`` starts
a comment. Units ride in the key names (_ns, _MHz, _mrad, _urad); values
are converted to SI (seconds, angular rad/s, radians) on load, and every
number, list entries included, must be finite as written and once
converted. Every key has a default mirroring the experiment's standing
constants, so an empty file is a valid configuration. The linewidth is
``medium.gamma_MHz`` (gamma / 2 pi; the default is a 26 ns lifetime).
The config hash covers the parsed key values with defaults filled in.
The random seed is not a key: it is the ``--seed`` flag of the commands
that draw shots.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .medium import MediumSpec
from .montecarlo import ShotConfig
from .pulse import PulseSpec

__all__ = ["RunConfig", "load_config", "default_config"]

SCHEMA_VERSION = 5

_TWO_PI = 2.0 * math.pi


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


# key -> (parser, default)
_SCHEMA = {
    "medium.od": (_finite, 4.0),
    # gamma / 2 pi of a 26 ns lifetime; 2 pi * this * 1e6 == 1 / 26e-9 exactly
    "medium.gamma_MHz": (_finite, 6.121343965072898),
    "medium.probe_detuning_MHz": (_finite, -20.0),
    # sigma0/A making the unconditioned phase peak 15 urad for a 27 ns rms
    # pulse at od 4 (26 ns lifetime, probe at -20 MHz) on the default grid
    "medium.sigma0_over_area": (_finite, 3.5405889380523065e-4),
    "pulse.sigma_rms_ns": (_finite, 10.0),
    "pulse.center_detuning_MHz": (_finite, 0.0),
    "shot.n_samples": (int, 36),
    "shot.dt_ns": (_finite, 16.0),
    "shot.mean_photons": (_finite, 100.0),
    "shot.target_click_prob": (_finite, 0.2),
    "shot.phase_noise_mrad": (_finite, 120.0),
    "shot.background_click_fraction": (_finite, 0.1),
    "shot.lowpass_enabled": (_bool, False),
    "shot.lowpass_cutoff_MHz": (_finite, 25.0),
    "shot.shots_per_cycle": (int, 1500),
    "shot.pulse_center_ns": (_finite, 260.0),
    "shot.wobble_amplitude_urad": (_finite, 0.0),
    "shot.wobble_frequency_MHz": (_finite, 2.0),
    "shot.wobble_phase_rad": (_finite, 0.0),
    "campaign.n_cycles": (int, 100),
    "oracle.n_atoms": (int, 64),
    "analysis.window_fraction": (_finite, 0.3),
    "sweep.sigma_rms_ns": (_float_list, (10.0, 18.0, 27.0, 36.0)),
    "sweep.od": (_float_list, (2.0, 4.0)),
}


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
        parser, _ = _SCHEMA[key]
        try:
            values[key] = parser(raw)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from None
    return values


def parse_config(text: str) -> RunConfig:
    given = _parse_lines(text)
    vals = {k: default for k, (_, default) in _SCHEMA.items()}
    vals.update(given)

    def mhz(key: str, angular: bool = True) -> float:
        """The key in rad/s, or Hz if not ``angular``; MHz can overflow."""
        value = (_TWO_PI * vals[key] if angular else vals[key]) * 1e6
        if not math.isfinite(value):
            raise ConfigError(f"key {key!r}: must be finite in SI units, got {vals[key]}")
        return value

    medium = MediumSpec(
        od=vals["medium.od"],
        gamma=mhz("medium.gamma_MHz"),
        probe_detuning=mhz("medium.probe_detuning_MHz"),
        sigma0_over_area=vals["medium.sigma0_over_area"],
    )
    pulse = PulseSpec(
        sigma_rms=vals["pulse.sigma_rms_ns"] * 1e-9,
        center_detuning=mhz("pulse.center_detuning_MHz"),
    )
    shot = ShotConfig(
        n_samples=vals["shot.n_samples"],
        dt=vals["shot.dt_ns"] * 1e-9,
        mean_photons=vals["shot.mean_photons"],
        target_click_prob=vals["shot.target_click_prob"],
        phase_noise_rms=vals["shot.phase_noise_mrad"] * 1e-3,
        background_click_fraction=vals["shot.background_click_fraction"],
        lowpass_enabled=vals["shot.lowpass_enabled"],
        lowpass_cutoff=mhz("shot.lowpass_cutoff_MHz", angular=False),
        shots_per_cycle=vals["shot.shots_per_cycle"],
        pulse_center=vals["shot.pulse_center_ns"] * 1e-9,
        wobble_amplitude=vals["shot.wobble_amplitude_urad"] * 1e-6,
        wobble_frequency=mhz("shot.wobble_frequency_MHz", angular=False),
        wobble_phase=vals["shot.wobble_phase_rad"],
    )
    # outputs write the window's bin times in ns: its end must be finite there
    if not math.isfinite(vals["shot.n_samples"] * vals["shot.dt_ns"]):
        raise ConfigError("key 'shot.dt_ns': the window's end overflows in ns")
    # a pulse center far from the window swamps the bin width: the bin
    # edges on the pulse's time axis would round onto each other
    if not (np.diff(shot.bin_edges()) > 0.0).all():
        raise ConfigError(
            f"key 'shot.pulse_center_ns': {vals['shot.pulse_center_ns']:g} ns "
            f"leaves no room for bins of shot.dt_ns {vals['shot.dt_ns']:g}"
        )
    # a probe phase wraps at 2 pi: noise or a ripple past pi rad is no
    # small phase, and far past it its square overflows the covariance
    for key, rad in (
        ("shot.phase_noise_mrad", shot.phase_noise_rms),
        ("shot.wobble_amplitude_urad", shot.wobble_amplitude),
    ):
        if not abs(rad) <= math.pi:
            raise ConfigError(f"key {key!r}: must be at most pi rad, got {vals[key]:g}")
    if vals["campaign.n_cycles"] < 2:
        # the click/no-click covariance needs two cycles
        raise ConfigError("campaign.n_cycles must be at least 2")
    if vals["oracle.n_atoms"] < 1:
        raise ConfigError("oracle.n_atoms must be at least 1")
    if not 0.0 <= vals["analysis.window_fraction"] < 1.0:
        raise ConfigError("analysis.window_fraction must lie in [0, 1)")
    return RunConfig(
        medium=medium,
        pulse=pulse,
        shot=shot,
        n_cycles=vals["campaign.n_cycles"],
        n_atoms=vals["oracle.n_atoms"],
        window_fraction=vals["analysis.window_fraction"],
        sweep_sigmas=vals["sweep.sigma_rms_ns"],
        sweep_ods=vals["sweep.od"],
        config_hash=_hash_values(vals),
    )


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
