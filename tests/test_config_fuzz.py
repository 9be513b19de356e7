"""Standing fuzz of the config parser and the commands: a config of 1-3
keys set to edge values makes `theory` or `sweep` exit 0, 2 or 3, and
`simulate` and `nullcheck` exit 0, 2, 3 or 4, with `analyze` reading
every log `simulate` wrote; no other exception or warning escapes
`main`, a refusal starts `error: ` and leaves no --out, and every
number a run writes is finite or a word."""

import contextlib
import io
import itertools
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negdelay.cli import main
from negdelay.config import _SCHEMA

#: values at the edges of what parses: zero, a sign, the largest and the
#: smallest doubles, non-finite spellings, an overflowing literal, an
#: integer past int64, nothing, and a boolean
EDGES = ("0", "-1", "1e308", "5e-324", "inf", "nan", "1e400", str(10**30), "", "true")
#: what the huge integer becomes for the counts that set a run's cost, so
#: that no case runs for long: emitters of the collision model (each a
#: pass over the pulse grid), cycles of a campaign and shots of a cycle
CAPS = {
    "oracle.n_atoms": "256",
    "campaign.n_cycles": "20",
    "shot.shots_per_cycle": "300",
}
#: one sweep point, so a sweep costs what theory does
BASE = {"sweep.sigma_rms_ns": "10", "sweep.od": "2"}
#: CI's campaign: 60 shots in each of 6 cycles
CAMPAIGN = {"shot.shots_per_cycle": "60", "campaign.n_cycles": "6"}
#: cells that are not numbers: the ratio of a transparent medium and the
#: method column of summary.csv
WORDS = {"NA", "spectral", "oracle"}


def _value(key: str, edge: str) -> str:
    if edge == str(10**30):
        return CAPS.get(key, edge)
    return edge


_KEYS = st.lists(st.sampled_from(sorted(_SCHEMA)), min_size=1, max_size=3, unique=True)


class _Work(SimpleNamespace):
    def __repr__(self):
        # hypothesis prints the fixture with a failing example
        return "<fuzz work directory>"


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return _Work(root=tmp_path_factory.mktemp("cfgfuzz"), runs=itertools.count())


def _config(work, base, keys, data):
    """A config file of ``base`` with each key set to a drawn edge value."""
    values = dict(base)
    for key in keys:
        values[key] = _value(key, data.draw(st.sampled_from(EDGES), label=key))
    cfg = work.root / f"{next(work.runs)}.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return cfg


def _run(work, argv, codes) -> tuple[int, object]:
    """``main(argv + --out)``: an exit code in ``codes``, a refusal that
    starts ``error: `` and leaves no --out, and on exit 0 CSV cells that
    are finite or words. Returns the exit code and the --out path."""
    out = work.root / f"out{next(work.runs)}"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([*argv, "--out", str(out)])
    assert rc in codes, err.getvalue()
    if rc:
        assert err.getvalue().startswith("error: "), err.getvalue()
        assert not out.exists()
        return rc, out
    for csv in out.glob("*.csv"):
        for line in csv.read_text().splitlines()[3:]:
            for cell in line.split(","):
                assert cell in WORDS or math.isfinite(float(cell)), (csv.name, line)
    return rc, out


@settings(max_examples=500, deadline=None)
@given(
    command=st.sampled_from(("theory", "sweep")),
    keys=_KEYS,
    data=st.data(),
)
def test_edge_config_is_refused_or_finite(work, command, keys, data):
    cfg = _config(work, BASE, keys, data)
    _run(work, [command, "--config", str(cfg)], (0, 2, 3))


@settings(max_examples=1000, deadline=None)
@given(keys=_KEYS, data=st.data())
def test_edge_campaign_is_refused_or_finite(work, keys, data):
    cfg = _config(work, CAMPAIGN, keys, data)
    argv = ["simulate", "--config", str(cfg), "--seed", "11"]
    rc, out = _run(work, argv, (0, 2, 3, 4))
    if rc == 0:
        # a log that simulate wrote is one that analyze reads
        log = str(out / "shots.npz")
        _run(work, ["analyze", "--config", str(cfg), "--log", log], (0, 3, 4))
    argv = ["nullcheck", "--config", str(cfg), "--kind", "bypass_atoms", "--seed", "11"]
    _run(work, argv, (0, 2, 3, 4))
