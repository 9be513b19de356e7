"""Flat key-value run configuration.

Files are plain text, one ``section.key = value`` per line, ``#`` starts
a comment. Units ride in the key names (_ns, _MHz, _mrad, _urad); values are
converted to SI (seconds, angular rad/s, radians) on load. Every key has
a default mirroring the experiment's standing constants, so an empty file
is a valid configuration. The config hash covers the parsed key values
with defaults filled in; the linewidth enters once, as resolved, so
``medium.tau_sp_ns = 26`` hashes like an empty file.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .medium import MediumSpec
from .montecarlo import ShotConfig
from .pulse import PulseSpec

__all__ = [
    "RunConfig",
    "DEFAULT_SIGMA0_OVER_AREA",
    "parse_config",
    "load_config",
    "default_config",
]

SCHEMA_VERSION = 2

# sigma0/A making the unconditioned phase peak 15 urad for a 27 ns rms
# pulse at od 4 (tau_sp 26 ns, probe at -20 MHz) on the default grid
DEFAULT_SIGMA0_OVER_AREA = 3.540632886280689e-4

_TWO_PI = 2.0 * math.pi


def _bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in raw.split(","))


# key -> (parser, default); None default means "optional, no value"
_SCHEMA = {
    "medium.od": (float, 4.0),
    "medium.tau_sp_ns": (float, None),
    "medium.gamma_MHz": (float, None),
    "medium.probe_detuning_MHz": (float, -20.0),
    "medium.sigma0_over_area": (float, DEFAULT_SIGMA0_OVER_AREA),
    "medium.n_slabs": (int, 128),
    "pulse.sigma_rms_ns": (float, 10.0),
    "pulse.center_detuning_MHz": (float, 0.0),
    "shot.n_samples": (int, 36),
    "shot.dt_ns": (float, 16.0),
    "shot.mean_photons": (float, 100.0),
    "shot.target_click_prob": (float, 0.2),
    "shot.phase_noise_mrad": (float, 120.0),
    "shot.background_click_fraction": (float, 0.1),
    "shot.lowpass_enabled": (_bool, False),
    "shot.lowpass_cutoff_MHz": (float, 25.0),
    "shot.shots_per_cycle": (int, 1500),
    "shot.pulse_center_ns": (float, 260.0),
    "shot.wobble_amplitude_urad": (float, 0.0),
    "shot.wobble_frequency_MHz": (float, 2.0),
    "shot.wobble_phase_rad": (float, 0.0),
    "campaign.n_cycles": (int, 100),
    "campaign.seed": (int, 0),
    "oracle.n_atoms": (int, 64),
    # inert since the oracle keeps no checkpoints; the benchmark still reads it
    "oracle.checkpoint_interval": (int, 64),
    "analysis.window_fraction": (float, 0.3),
    "sweep.sigma_rms_ns": (_float_list, (10.0, 18.0, 27.0, 36.0)),
    "sweep.od": (_float_list, (2.0, 4.0)),
}


@dataclass(frozen=True)
class RunConfig:
    medium: MediumSpec
    pulse: PulseSpec
    shot: ShotConfig
    n_cycles: int
    seed: int
    n_atoms: int
    checkpoint_interval: int
    window_fraction: float
    sweep_sigmas: tuple[float, ...]
    sweep_ods: tuple[float, ...]
    config_hash: str


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

    if vals["medium.tau_sp_ns"] is not None and vals["medium.gamma_MHz"] is not None:
        raise ConfigError(
            "give either medium.tau_sp_ns or medium.gamma_MHz, not both"
        )
    if vals["medium.gamma_MHz"] is not None:
        gamma = _TWO_PI * vals["medium.gamma_MHz"] * 1e6
    else:
        tau_sp = vals["medium.tau_sp_ns"] if vals["medium.tau_sp_ns"] is not None else 26.0
        if tau_sp <= 0.0:
            raise ConfigError("medium.tau_sp_ns must be positive")
        gamma = 1.0 / (tau_sp * 1e-9)

    medium = MediumSpec(
        od=vals["medium.od"],
        gamma=gamma,
        probe_detuning=_TWO_PI * vals["medium.probe_detuning_MHz"] * 1e6,
        sigma0_over_area=vals["medium.sigma0_over_area"],
        n_slabs=vals["medium.n_slabs"],
    )
    pulse = PulseSpec(
        sigma_rms=vals["pulse.sigma_rms_ns"] * 1e-9,
        center_detuning=_TWO_PI * vals["pulse.center_detuning_MHz"] * 1e6,
    )
    shot = ShotConfig(
        n_samples=vals["shot.n_samples"],
        dt=vals["shot.dt_ns"] * 1e-9,
        mean_photons=vals["shot.mean_photons"],
        target_click_prob=vals["shot.target_click_prob"],
        phase_noise_rms=vals["shot.phase_noise_mrad"] * 1e-3,
        background_click_fraction=vals["shot.background_click_fraction"],
        lowpass_enabled=vals["shot.lowpass_enabled"],
        lowpass_cutoff=vals["shot.lowpass_cutoff_MHz"] * 1e6,
        shots_per_cycle=vals["shot.shots_per_cycle"],
        pulse_center=vals["shot.pulse_center_ns"] * 1e-9,
        wobble_amplitude=vals["shot.wobble_amplitude_urad"] * 1e-6,
        wobble_frequency=vals["shot.wobble_frequency_MHz"] * 1e6,
        wobble_phase=vals["shot.wobble_phase_rad"],
    )
    if vals["campaign.n_cycles"] < 2:
        # the click/no-click covariance needs two cycles
        raise ConfigError("campaign.n_cycles must be at least 2")
    if vals["campaign.seed"] < 0:
        raise ConfigError("campaign.seed must be non-negative")
    if vals["oracle.n_atoms"] < 1:
        raise ConfigError("oracle.n_atoms must be at least 1")
    if vals["oracle.checkpoint_interval"] < 1:
        raise ConfigError("oracle.checkpoint_interval must be at least 1")
    if not 0.0 <= vals["analysis.window_fraction"] < 1.0:
        raise ConfigError("analysis.window_fraction must lie in [0, 1)")

    # the linewidth may be given either way: hash it once, as resolved
    hashed = dict(vals)
    del hashed["medium.tau_sp_ns"]
    hashed["medium.gamma_MHz"] = gamma / (_TWO_PI * 1e6)
    return RunConfig(
        medium=medium,
        pulse=pulse,
        shot=shot,
        n_cycles=vals["campaign.n_cycles"],
        seed=vals["campaign.seed"],
        n_atoms=vals["oracle.n_atoms"],
        checkpoint_interval=vals["oracle.checkpoint_interval"],
        window_fraction=vals["analysis.window_fraction"],
        sweep_sigmas=vals["sweep.sigma_rms_ns"],
        sweep_ods=vals["sweep.od"],
        config_hash=_hash_values(hashed),
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
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config(text)


def default_config() -> RunConfig:
    return parse_config("")
