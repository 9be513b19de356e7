"""Key-value configuration: defaults, unit conversion, diagnostics and
the hash of the parsed values."""

import hashlib
import math
from pathlib import Path

import pytest

from negdelay.config import (
    _SCHEMA,
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
    assert m.sigma0_over_area == 3.5405889380523065e-4
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
    assert run.n_cycles == 100
    assert run.n_atoms == 64
    assert run.window_fraction == 0.3
    assert run.sweep_sigmas == (10.0, 18.0, 27.0, 36.0)
    assert run.sweep_ods == (2.0, 4.0)


def test_default_hash_is_frozen():
    assert default_config().config_hash == "378894db1ce8"


def test_hash_preimage_is_the_parsed_values():
    """One sorted ``key = repr(value)`` line per key, defaults filled in."""
    text = """\
analysis.window_fraction = 0.3
campaign.n_cycles = 100
medium.gamma_MHz = 6.121343965072898
medium.od = 3.0
medium.probe_detuning_MHz = -20.0
medium.sigma0_over_area = 0.00035405889380523065
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
    run = parse_config("medium.od = 3")
    assert hashlib.sha256(text.encode()).hexdigest()[:12] == run.config_hash


#: per key: a value written as the default resolves, then another valid one
KEY_VALUES = {
    "medium.od": ("4", "3.5"),
    "medium.gamma_MHz": ("6.121343965072898", "6.07"),  # exactly 1 / 26 ns
    "medium.probe_detuning_MHz": ("-20", "-17.3"),
    "medium.sigma0_over_area": ("3.5405889380523065e-4", "3e-4"),
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
    "oracle.n_atoms": ("64", "128"),
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


def test_linewidth_is_gamma_MHz():
    """The default is exactly a 26 ns lifetime."""
    assert default_config().medium.gamma == 1.0 / 26e-9
    run = parse_config("medium.gamma_MHz = 6.0")
    assert run.medium.gamma == pytest.approx(TWO_PI * 6e6, rel=1e-15)


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
        # the linewidth is medium.gamma_MHz, the seed the --seed flag
        ("medium.tau_sp_ns = 26", "line 1: unknown key"),
        ("campaign.seed = 3", "line 1: unknown key"),
        # the oracle keeps no checkpoints: the key changed only the hash
        ("oracle.checkpoint_interval = 64", "line 1: unknown key"),
        # the depth integral has fixed nodes, not a slab count
        ("medium.n_slabs = 128", "line 1: unknown key"),
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
        ("oracle.n_atoms = 0", "at least 1"),
        ("analysis.window_fraction = 1.0", "lie in"),
        ("medium.gamma_MHz = 0", "linewidth must be > 0"),
    ],
)
def test_value_validation(text, msg):
    with pytest.raises(ConfigError, match=msg):
        parse_config(text)


@pytest.mark.parametrize("key", [key for key in _SCHEMA if key.endswith("_MHz")])
def test_converted_values_must_be_finite(key):
    """A finite number of MHz can overflow to inf on its way to rad/s or
    Hz; the parser refuses it, naming the key."""
    msg = f"^key '{key}': must be finite in SI units, got 1e\\+308$"
    with pytest.raises(ConfigError, match=msg):
        parse_config(f"{key} = 1e308\n")


def test_sweep_lists():
    run = parse_config("sweep.sigma_rms_ns = 5, 10.5, 20\nsweep.od = 1")
    assert run.sweep_sigmas == (5.0, 10.5, 20.0)
    assert run.sweep_ods == (1.0,)
    with pytest.raises(ConfigError, match="key 'sweep.od'"):
        parse_config("sweep.od = 1;2")
    msg = "^key 'sweep.sigma_rms_ns': must be finite, got inf$"
    with pytest.raises(ConfigError, match=msg):
        parse_config("sweep.sigma_rms_ns = 10, inf, 27")


#: keys holding one float: every default of that type in the key table
FLOAT_KEYS = sorted(
    key for key, (_, default) in _SCHEMA.items() if type(default) is float
)


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_is_refused(key):
    for value in ("nan", "inf", "-inf"):
        msg = f"^key '{key}': must be finite, got {value}$"
        with pytest.raises(ConfigError, match=msg):
            parse_config(f"{key} = {value}")


def test_unit_conversions():
    run = parse_config(
        "shot.phase_noise_mrad = 80\n"
        "shot.wobble_amplitude_urad = 90\n"
        "pulse.center_detuning_MHz = 3.0\n"
    )
    assert run.shot.phase_noise_rms == pytest.approx(0.080, rel=1e-15)
    assert run.shot.wobble_amplitude == pytest.approx(90e-6, rel=1e-15)
    assert run.pulse.center_detuning == pytest.approx(TWO_PI * 3e6, rel=1e-15)


def test_phase_bounds_keep_the_values_the_tests_use():
    """Phase noise and wobble amplitude are bounded at pi rad: 1 rad of
    noise and a 0.09 rad ripple load, 3.142 rad does not."""
    run = parse_config(
        "shot.phase_noise_mrad = 1000\nshot.wobble_amplitude_urad = -90000\n"
    )
    assert run.shot.phase_noise_rms == 1.0
    assert run.shot.wobble_amplitude == pytest.approx(-0.09, rel=1e-15)
    for text in (
        "shot.phase_noise_mrad = 3142",
        "shot.wobble_amplitude_urad = -3.142e6",
    ):
        key = text.split(" = ")[0]
        with pytest.raises(ConfigError, match=f"key '{key}': must be at most pi"):
            parse_config(text)


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("medium.od = 2.0\ncampaign.n_cycles = 7\n")
    run = load_config(path)
    assert run.medium.od == 2.0 and run.n_cycles == 7
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.cfg")


def test_readme_example_parses():
    """The example under "### Configuration" in README.md names only
    live keys."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Configuration", 1)[1]
    example = section.split("```text\n", 1)[1].split("```", 1)[0]
    run = parse_config(example)
    assert run.n_cycles == 400 and run.sweep_ods == (3.0,)
