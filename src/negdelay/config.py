"""Flat key-value run configuration.

Files are plain text, one ``section.key = value`` per line, ``#`` starts
a comment. Units ride in the key names (_ns, _MHz, _THz, _mrad, _urad);
values are converted to SI (seconds, angular rad/s, radians) on load.
Every key has a default mirroring the experiment's standing constants,
so an empty file is a valid configuration.
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
    "dump_config",
]

SCHEMA_VERSION = 1

# sigma0/A making the unconditioned phase peak 15 urad for a 27 ns rms
# pulse at od 4 (tau_sp 26 ns, probe at -20 MHz) on the default grid
DEFAULT_SIGMA0_OVER_AREA = 3.540632886280689e-4

_TWO_PI = 2.0 * math.pi


def _float(raw: str) -> float:
    return float(raw)


def _int(raw: str) -> int:
    return int(raw)


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
    "medium.od": (_float, 4.0),
    "medium.tau_sp_ns": (_float, None),
    "medium.gamma_MHz": (_float, None),
    "medium.probe_detuning_MHz": (_float, -20.0),
    "medium.sigma0_over_area": (_float, DEFAULT_SIGMA0_OVER_AREA),
    "medium.n_slabs": (_int, 128),
    "medium.atom_frequency_THz": (_float, 384.2302),
    "pulse.sigma_rms_ns": (_float, 10.0),
    "pulse.mean_photons": (_float, 100.0),
    "pulse.center_detuning_MHz": (_float, 0.0),
    "shot.window_ns": (_float, 576.0),
    "shot.n_samples": (_int, 36),
    "shot.dt_ns": (_float, 16.0),
    "shot.mean_photons": (_float, 100.0),
    "shot.target_click_prob": (_float, 0.2),
    "shot.phase_noise_mrad": (_float, 120.0),
    "shot.background_click_fraction": (_float, 0.1),
    "shot.lowpass_enabled": (_bool, False),
    "shot.lowpass_cutoff_MHz": (_float, 25.0),
    "shot.shots_per_cycle": (_int, 1500),
    "shot.pulse_center_ns": (_float, 260.0),
    "shot.wobble_amplitude_urad": (_float, 0.0),
    "shot.wobble_frequency_MHz": (_float, 2.0),
    "shot.wobble_phase_rad": (_float, 0.0),
    "campaign.n_cycles": (_int, 100),
    "campaign.seed": (_int, 0),
    "oracle.n_atoms": (_int, 64),
    # inert since the oracle keeps no checkpoints; kept so config hashes hold
    "oracle.checkpoint_interval": (_int, 64),
    "analysis.window_fraction": (_float, 0.3),
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

    omega_atom = _TWO_PI * vals["medium.atom_frequency_THz"] * 1e12
    detuning = _TWO_PI * vals["medium.probe_detuning_MHz"] * 1e6

    medium = MediumSpec(
        od=vals["medium.od"],
        gamma=gamma,
        probe_detuning=detuning,
        omega_probe=omega_atom + detuning,
        omega_atom=omega_atom,
        sigma0_over_area=vals["medium.sigma0_over_area"],
        n_slabs=vals["medium.n_slabs"],
    )
    pulse = PulseSpec(
        sigma_rms=vals["pulse.sigma_rms_ns"] * 1e-9,
        mean_photons=vals["pulse.mean_photons"],
        center_detuning=_TWO_PI * vals["pulse.center_detuning_MHz"] * 1e6,
    )
    shot = ShotConfig(
        window=vals["shot.window_ns"] * 1e-9,
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
    if vals["campaign.n_cycles"] < 0:
        raise ConfigError("campaign.n_cycles must be non-negative")
    if vals["campaign.seed"] < 0:
        raise ConfigError("campaign.seed must be non-negative")
    if vals["oracle.n_atoms"] < 1:
        raise ConfigError("oracle.n_atoms must be at least 1")
    if vals["oracle.checkpoint_interval"] < 1:
        raise ConfigError("oracle.checkpoint_interval must be at least 1")
    if not 0.0 <= vals["analysis.window_fraction"] < 1.0:
        raise ConfigError("analysis.window_fraction must lie in [0, 1)")

    run = RunConfig(
        medium=medium,
        pulse=pulse,
        shot=shot,
        n_cycles=vals["campaign.n_cycles"],
        seed=vals["campaign.seed"],
        n_atoms=vals["oracle.n_atoms"],
        checkpoint_interval=vals["oracle.checkpoint_interval"],
        window_fraction=vals["analysis.window_fraction"],
        sweep_sigmas=tuple(vals["sweep.sigma_rms_ns"]),
        sweep_ods=tuple(vals["sweep.od"]),
        config_hash="",
    )
    object.__setattr__(
        run, "config_hash", _hash_values(_resolved_values(run))
    )
    return run


def _canonical(vals: dict) -> str:
    lines = []
    for key in sorted(vals):
        val = vals[key]
        if isinstance(val, tuple):
            rendered = ",".join(repr(v) for v in val)
        else:
            rendered = repr(val)
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"


def _hash_values(vals: dict) -> str:
    return hashlib.sha256(_canonical(vals).encode()).hexdigest()[:12]


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config(text)


def default_config() -> RunConfig:
    return parse_config("")


def dump_config(run: RunConfig) -> str:
    """Canonical resolved key-value text (the hashed form)."""
    return _canonical(_resolved_values(run))


def _resolved_values(run: RunConfig) -> dict:
    return {
        "medium.od": run.medium.od,
        "medium.tau_sp_ns": 1e9 / run.medium.gamma,
        "medium.gamma_MHz": run.medium.gamma / (_TWO_PI * 1e6),
        "medium.probe_detuning_MHz": run.medium.probe_detuning / (_TWO_PI * 1e6),
        "medium.sigma0_over_area": run.medium.sigma0_over_area,
        "medium.n_slabs": run.medium.n_slabs,
        "medium.atom_frequency_THz": run.medium.omega_atom / (_TWO_PI * 1e12),
        "pulse.sigma_rms_ns": run.pulse.sigma_rms * 1e9,
        "pulse.mean_photons": run.pulse.mean_photons,
        "pulse.center_detuning_MHz": run.pulse.center_detuning / (_TWO_PI * 1e6),
        "shot.window_ns": run.shot.window * 1e9,
        "shot.n_samples": run.shot.n_samples,
        "shot.dt_ns": run.shot.dt * 1e9,
        "shot.mean_photons": run.shot.mean_photons,
        "shot.target_click_prob": run.shot.target_click_prob,
        "shot.phase_noise_mrad": run.shot.phase_noise_rms * 1e3,
        "shot.background_click_fraction": run.shot.background_click_fraction,
        "shot.lowpass_enabled": run.shot.lowpass_enabled,
        "shot.lowpass_cutoff_MHz": run.shot.lowpass_cutoff / 1e6,
        "shot.shots_per_cycle": run.shot.shots_per_cycle,
        "shot.pulse_center_ns": run.shot.pulse_center * 1e9,
        "shot.wobble_amplitude_urad": run.shot.wobble_amplitude * 1e6,
        "shot.wobble_frequency_MHz": run.shot.wobble_frequency / 1e6,
        "shot.wobble_phase_rad": run.shot.wobble_phase,
        "campaign.n_cycles": run.n_cycles,
        "campaign.seed": run.seed,
        "oracle.n_atoms": run.n_atoms,
        "oracle.checkpoint_interval": run.checkpoint_interval,
        "analysis.window_fraction": run.window_fraction,
        "sweep.sigma_rms_ns": run.sweep_sigmas,
        "sweep.od": run.sweep_ods,
    }
