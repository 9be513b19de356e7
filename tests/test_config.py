"""Key-value configuration: defaults, unit conversion, diagnostics and
the hash of the parsed values."""

import hashlib
import math

import pytest

from negdelay.config import (
    _SCHEMA,
    DEFAULT_SIGMA0_OVER_AREA,
    default_config,
    load_config,
    parse_config,
)
from negdelay.errors import ConfigError

TWO_PI = 2.0 * math.pi


def test_defaults_mirror_standing_constants():
    run = default_config()
    m = run.medium
    assert m.od == 4.0
    assert m.gamma == pytest.approx(1.0 / 26e-9, rel=1e-15)
    assert m.probe_detuning == pytest.approx(-TWO_PI * 20e6, rel=1e-15)
    assert m.sigma0_over_area == DEFAULT_SIGMA0_OVER_AREA
    assert m.n_slabs == 128
    assert run.pulse.sigma_rms == pytest.approx(10e-9, rel=1e-15)
    assert run.pulse.center_detuning == 0.0
    s = run.shot
    assert s.n_samples == 36 and s.dt == pytest.approx(16e-9, rel=1e-15)
    assert s.mean_photons == 100.0 and s.target_click_prob == 0.2
    assert s.phase_noise_rms == pytest.approx(0.120, rel=1e-15)
    assert s.background_click_fraction == 0.1
    assert not s.lowpass_enabled
    assert s.shots_per_cycle == 1500
    assert s.pulse_center == pytest.approx(260e-9, rel=1e-15)
    assert run.n_cycles == 100 and run.seed == 0
    assert run.n_atoms == 64 and run.checkpoint_interval == 64
    assert run.window_fraction == 0.3
    assert run.sweep_sigmas == (10.0, 18.0, 27.0, 36.0)
    assert run.sweep_ods == (2.0, 4.0)


def test_default_hash_is_frozen():
    assert default_config().config_hash == "8df73f97d89c"


def test_hash_preimage_is_the_parsed_values():
    """One sorted ``key = repr(value)`` line per key, defaults filled in;
    the linewidth appears once, as the resolved gamma_MHz."""
    text = """\
analysis.window_fraction = 0.3
campaign.n_cycles = 100
campaign.seed = 5
medium.gamma_MHz = 6.121343965072898
medium.n_slabs = 128
medium.od = 3.0
medium.probe_detuning_MHz = -20.0
medium.sigma0_over_area = 0.0003540632886280689
oracle.checkpoint_interval = 64
oracle.n_atoms = 64
pulse.center_detuning_MHz = 0.0
pulse.sigma_rms_ns = 10.0
shot.background_click_fraction = 0.1
shot.dt_ns = 16.0
shot.lowpass_cutoff_MHz = 25.0
shot.lowpass_enabled = False
shot.mean_photons = 100.0
shot.n_samples = 36
shot.phase_noise_mrad = 120.0
shot.pulse_center_ns = 260.0
shot.shots_per_cycle = 1500
shot.target_click_prob = 0.2
shot.wobble_amplitude_urad = 0.0
shot.wobble_frequency_MHz = 2.0
shot.wobble_phase_rad = 0.0
sweep.od = 2.0,4.0
sweep.sigma_rms_ns = 10.0,18.0,27.0,36.0
"""
    run = parse_config("medium.od = 3\ncampaign.seed = 5\nmedium.tau_sp_ns = 26")
    assert hashlib.sha256(text.encode()).hexdigest()[:12] == run.config_hash


#: per key: a value written as the default resolves, then another valid one
KEY_VALUES = {
    "medium.od": ("4", "3.5"),
    "medium.tau_sp_ns": ("26", "13"),
    "medium.gamma_MHz": ("6.121343965072898", "6.07"),  # exactly 1 / 26 ns
    "medium.probe_detuning_MHz": ("-20", "-17.3"),
    "medium.sigma0_over_area": ("3.540632886280689e-4", "3e-4"),
    "medium.n_slabs": ("128", "64"),
    "pulse.sigma_rms_ns": ("10", "27"),
    "pulse.center_detuning_MHz": ("0", "1.5"),
    "shot.n_samples": ("36", "40"),
    "shot.dt_ns": ("16", "8"),
    "shot.mean_photons": ("100", "50"),
    "shot.target_click_prob": ("0.2", "0.1"),
    "shot.phase_noise_mrad": ("120", "12"),
    "shot.background_click_fraction": ("0.1", "0"),
    "shot.lowpass_enabled": ("off", "on"),
    "shot.lowpass_cutoff_MHz": ("25", "10"),
    "shot.shots_per_cycle": ("1500", "60"),
    "shot.pulse_center_ns": ("260", "300"),
    "shot.wobble_amplitude_urad": ("0", "90"),
    "shot.wobble_frequency_MHz": ("2", "3"),
    "shot.wobble_phase_rad": ("0", "1"),
    "campaign.n_cycles": ("100", "6"),
    "campaign.seed": ("0", "5"),
    "oracle.n_atoms": ("64", "128"),
    "oracle.checkpoint_interval": ("64", "32"),
    "analysis.window_fraction": ("0.3", "0.5"),
    "sweep.sigma_rms_ns": ("10, 18, 27, 36", "10, 36"),
    "sweep.od": ("2, 4", "0, 3"),
}


@pytest.mark.parametrize("key", sorted(set(_SCHEMA) | set(KEY_VALUES)))
def test_every_key_reaches_the_hash(key):
    """A key missing from KEY_VALUES fails with KeyError, a stale one as an
    unknown key: every key must matter, and only through its value."""
    same, other = KEY_VALUES[key]
    base = default_config().config_hash
    assert parse_config(f"{key} = {same}").config_hash == base
    assert parse_config(f"{key} = {other}").config_hash != base


def test_hash_tracks_resolved_values_only():
    base = default_config().config_hash
    assert parse_config("medium.od = 2").config_hash != base
    # explicitly writing a default changes nothing resolved
    assert parse_config("medium.od = 4.0").config_hash == base
    assert parse_config("# just a comment\n\n").config_hash == base


def test_empty_file_is_the_default():
    assert parse_config("").config_hash == default_config().config_hash


def test_lifetime_and_linewidth_are_exclusive():
    with pytest.raises(ConfigError, match="not both"):
        parse_config("medium.tau_sp_ns = 26\nmedium.gamma_MHz = 6.1")
    run = parse_config("medium.gamma_MHz = 6.0")
    assert run.medium.gamma == pytest.approx(TWO_PI * 6e6, rel=1e-15)
    run = parse_config("medium.tau_sp_ns = 13")
    assert run.medium.gamma == pytest.approx(1.0 / 13e-9, rel=1e-15)


def test_comments_and_blank_lines():
    run = parse_config("# header\n\nmedium.od = 2.5  # inline note\n\n")
    assert run.medium.od == 2.5


@pytest.mark.parametrize(
    "text, msg",
    [
        ("\n\nfoo.bar = 1", "line 3: unknown key"),
        ("medium.od = 2\nmedium.od = 3", "line 2: duplicate"),
        ("medium.od 4", "line 1: expected"),
        ("medium.od = four", "key 'medium.od'"),
        ("shot.lowpass_enabled = maybe", "not a boolean"),
        ("shot.n_samples = 3.5", "key 'shot.n_samples'"),
        # deleted keys: the photon budget is shot.mean_photons and the
        # window is shot.n_samples x shot.dt_ns
        ("pulse.mean_photons = 50", "line 1: unknown key"),
        ("medium.atom_frequency_THz = 384.2302", "line 1: unknown key"),
        ("shot.window_ns = 576", "line 1: unknown key"),
    ],
)
def test_parse_diagnostics(text, msg):
    with pytest.raises(ConfigError, match=msg):
        parse_config(text)


@pytest.mark.parametrize(
    "text, msg",
    [
        ("campaign.n_cycles = -1", "at least 2"),
        ("campaign.n_cycles = 0", "at least 2"),
        ("campaign.n_cycles = 1", "at least 2"),
        ("campaign.seed = -1", "non-negative"),
        ("oracle.n_atoms = 0", "at least 1"),
        ("oracle.checkpoint_interval = 0", "at least 1"),
        ("analysis.window_fraction = 1.0", "lie in"),
        ("medium.tau_sp_ns = 0", "positive"),
        ("medium.tau_sp_ns = -26", "positive"),
    ],
)
def test_value_validation(text, msg):
    with pytest.raises(ConfigError, match=msg):
        parse_config(text)


def test_sweep_lists():
    run = parse_config("sweep.sigma_rms_ns = 5, 10.5, 20\nsweep.od = 1")
    assert run.sweep_sigmas == (5.0, 10.5, 20.0)
    assert run.sweep_ods == (1.0,)
    with pytest.raises(ConfigError, match="key 'sweep.od'"):
        parse_config("sweep.od = 1;2")


def test_unit_conversions():
    run = parse_config(
        "shot.phase_noise_mrad = 80\n"
        "shot.wobble_amplitude_urad = 90\n"
        "pulse.center_detuning_MHz = 3.0\n"
    )
    assert run.shot.phase_noise_rms == pytest.approx(0.080, rel=1e-15)
    assert run.shot.wobble_amplitude == pytest.approx(90e-6, rel=1e-15)
    assert run.pulse.center_detuning == pytest.approx(TWO_PI * 3e6, rel=1e-15)


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("medium.od = 2.0\ncampaign.n_cycles = 7\n")
    run = load_config(path)
    assert run.medium.od == 2.0 and run.n_cycles == 7
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.cfg")
