"""Every config key and every campaign flag moves an output.

A key or flag that no output reads is an option no run can tell from
its default. Each key is perturbed by about 5%, or flipped, on a small
base config, and only the commands that read its section run. Outputs
are compared without their provenance: the two ``#`` lines of each CSV
and the shot log's ``meta.json`` carry the config hash, which every key
moves, so only the CSV rows and the log's ``.npy`` members count."""

import hashlib
import itertools
import zipfile

import pytest

from negdelay.cli import main
from negdelay.config import _SCHEMA
from negdelay.montecarlo import MODES

#: keys that act only under a condition, and the base-config line that
#: makes it hold; the base config holds every one
CONDITIONAL = {
    "shot.wobble_frequency_MHz": "shot.wobble_amplitude_urad = 100",
    "shot.wobble_phase_rad": "shot.wobble_amplitude_urad = 100",
    "shot.lowpass_cutoff_MHz": "shot.lowpass_enabled = true",
}
#: null-dataset kinds that write the same bytes: both send the signal
#: past the cloud, and the sampler draws them from one law until
#: bypass_atoms gets clicks of its own (the probe backscatter)
EQUIVALENT_KINDS = {frozenset(("no_atoms", "bypass_atoms"))}

#: CI's tiny campaign and a one-point sweep, with every condition above
BASE = dict(
    line.split(" = ")
    for line in [
        "shot.shots_per_cycle = 60",
        "campaign.n_cycles = 6",
        "sweep.sigma_rms_ns = 10",
        "sweep.od = 2",
        *CONDITIONAL.values(),
    ]
)
#: perturbations that a 5% step cannot make
STEPS = {
    # on the 16 ns bins the window's edge bins hold 0.39 and 0.49 of the
    # peak and the bins outside it 0.08 and 0.12: every fraction in
    # (0.12, 0.39] gives the same window
    "analysis.window_fraction": "0.4",
    # a zero default has no 5% of itself
    "pulse.center_detuning_MHz": "0.05",
    "shot.wobble_phase_rad": "0.05",
}
#: the commands that read each section's keys; simulate's log is
#: analyzed too
CONTINUUM = ("theory", "sweep", "simulate", "nullcheck")
CAMPAIGN = ("simulate", "nullcheck")
READERS = {
    "medium": CONTINUUM,
    "pulse": CONTINUUM,
    "oracle": CONTINUUM,
    "shot": CAMPAIGN,
    "campaign": CAMPAIGN,
    "analysis": CAMPAIGN,
    "sweep": ("sweep",),
}
KINDS = [m for m in MODES if m != "normal"]


def _perturbed(key: str) -> str:
    if key in STEPS:
        return STEPS[key]
    parser, default, *_ = _SCHEMA[key]
    value = parser(BASE[key]) if key in BASE else default
    if isinstance(value, bool):
        return str(not value)
    if isinstance(value, int):
        return str(value + max(1, round(0.05 * value)))
    if isinstance(value, tuple):
        return ", ".join(repr(1.05 * v) for v in value)
    return repr(1.05 * value)


def _digest(out) -> str:
    h = hashlib.sha256()
    for path in sorted(out.rglob("*.*")):
        h.update(path.relative_to(out).as_posix().encode())
        if path.suffix == ".csv":
            h.update(path.read_bytes().split(b"\n", 2)[2])
            continue
        with zipfile.ZipFile(path) as zf:
            for name in sorted(zf.namelist()):
                if name.endswith(".npy"):
                    h.update(name.encode() + zf.read(name))
    return h.hexdigest()


def _run(work, values, commands, seed="11", kind="bypass_atoms", truth=()):
    """Digest of what ``commands`` write under config ``values``."""
    work.mkdir()
    cfg, out = work / "run.cfg", work / "out"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    argvs = {
        "theory": [["theory"]],
        "sweep": [["sweep"]],
        "simulate": [
            ["simulate", "--seed", seed, *truth],
            ["analyze", "--log", str(out / "simulate" / "shots.npz")],
        ],
        "nullcheck": [["nullcheck", "--seed", seed, "--kind", kind]],
    }
    for command in commands:
        for argv in argvs[command]:
            argv += ["--config", str(cfg), "--out", str(out / argv[0])]
            assert main(argv) == 0
    return _digest(out)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The base config's digest for each tuple of commands, run once."""
    digests = {}

    def digest(commands):
        if commands not in digests:
            work = tmp_path_factory.mktemp("base")
            digests[commands] = _run(work / "run", BASE, commands)
        return digests[commands]

    return digest


def test_the_lists_name_schema_keys():
    assert {key.split(".")[0] for key in _SCHEMA} == set(READERS)
    assert set(CONDITIONAL) | set(STEPS) | set(BASE) <= set(_SCHEMA)
    assert set().union(*EQUIVALENT_KINDS) <= set(KINDS)


@pytest.mark.parametrize("key", list(_SCHEMA))
def test_every_key_moves_an_output(tmp_path, base, key):
    commands = READERS[key.split(".")[0]]
    values = {**BASE, key: _perturbed(key)}
    assert _run(tmp_path / "run", values, commands) != base(commands), key


def test_seed_moves_both_campaign_commands(tmp_path, base):
    for command in CAMPAIGN:
        moved = _run(tmp_path / command, BASE, (command,), seed="12")
        assert moved != base((command,)), command


def test_truth_adds_log_members(tmp_path, base):
    truth = _run(tmp_path / "truth", BASE, ("simulate",), truth=("--truth",))
    assert truth != base(("simulate",))


def test_each_kind_moves_nullcheck_but_the_equivalent_pairs(tmp_path):
    digests = {
        kind: _run(tmp_path / kind, BASE, ("nullcheck",), kind=kind) for kind in KINDS
    }
    for pair in itertools.combinations(KINDS, 2):
        same = digests[pair[0]] == digests[pair[1]]
        assert same == (frozenset(pair) in EQUIVALENT_KINDS), pair
