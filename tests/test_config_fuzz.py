"""Standing fuzz of the config parser and the continuum commands: a
config of 1-3 keys set to edge values makes `theory` or `sweep` exit 0,
2 or 3, no other exception or warning escapes `main`, a refusal leaves
no --out, and every number a run writes is finite or NA."""

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
#: emitters of the collision model, each a pass over the pulse grid: the
#: huge integer becomes this many, so that no case runs for long
N_ATOMS_CAP = "256"
#: one sweep point, so a sweep costs what theory does
BASE = {"sweep.sigma_rms_ns": "10", "sweep.od": "2"}
#: cells that are not numbers: the ratio of a transparent medium and the
#: method column of summary.csv
WORDS = {"NA", "spectral", "oracle"}


def _value(key: str, edge: str) -> str:
    if key == "oracle.n_atoms" and edge == str(10**30):
        return N_ATOMS_CAP
    return edge


_KEYS = st.lists(st.sampled_from(sorted(_SCHEMA)), min_size=1, max_size=3, unique=True)


class _Work(SimpleNamespace):
    def __repr__(self):
        # hypothesis prints the fixture with a failing example
        return "<fuzz work directory>"


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return _Work(root=tmp_path_factory.mktemp("cfgfuzz"), runs=itertools.count())


@settings(max_examples=500, deadline=None)
@given(
    command=st.sampled_from(("theory", "sweep")),
    keys=_KEYS,
    data=st.data(),
)
def test_edge_config_is_refused_or_finite(work, command, keys, data):
    values = dict(BASE)
    for key in keys:
        values[key] = _value(key, data.draw(st.sampled_from(EDGES), label=key))
    run = next(work.runs)
    cfg, out = work.root / f"{run}.cfg", work.root / f"out{run}"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([command, "--config", str(cfg), "--out", str(out)])
    assert rc in (0, 2, 3), err.getvalue()
    if rc:
        assert err.getvalue().startswith("error: "), err.getvalue()
        assert not out.exists()
        return
    for csv in out.iterdir():
        for line in csv.read_text().splitlines()[3:]:
            for cell in line.split(","):
                assert cell in WORDS or math.isfinite(float(cell)), (csv.name, line)
