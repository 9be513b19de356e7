"""Standing fuzz of the shot-log reader: whatever damage a log takes,
`analyze` exits 0 with the undamaged log's CSVs or exits 2 with no
output, and no other exception or warning escapes `main`."""

import contextlib
import io
import itertools
import zipfile
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negdelay.cli import main

TINY = "shot.shots_per_cycle = 60\ncampaign.n_cycles = 6\n"
CSVS = ("phiT_measured.csv", "ratio.csv")
CODECS = (zipfile.ZIP_DEFLATED, zipfile.ZIP_BZIP2, zipfile.ZIP_LZMA)


def _rezip(members, codec=zipfile.ZIP_STORED) -> bytes:
    """``members`` zipped with ``codec`` and zeroed timestamps."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, blob in members.items():
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, blob, compress_type=codec)
    return buf.getvalue()


class _Log(SimpleNamespace):
    def __repr__(self):
        # hypothesis prints the fixture with a failing example
        return "<60-shot, 6-cycle shot log>"


@pytest.fixture(scope="module")
def fuzz(tmp_path_factory):
    """A 60-shot, 6-cycle log, its members and its analysis, written
    once for every example of the module."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = root / "run.cfg"
    cfg.write_text(TINY)
    sim, ref = root / "sim", root / "ref"
    assert main(["simulate", "--config", str(cfg), "--seed", "11", "--out", str(sim)]) == 0
    blob = (sim / "shots.npz").read_bytes()
    argv = ["analyze", "--config", str(cfg), "--log", str(sim / "shots.npz")]
    assert main(argv + ["--out", str(ref)]) == 0
    with zipfile.ZipFile(io.BytesIO(blob)) as zf:
        members = {name: zf.read(name) for name in zf.namelist()}
    return _Log(
        root=root,
        cfg=str(cfg),
        blob=blob,
        members=members,
        csvs={name: (ref / name).read_bytes() for name in CSVS},
        runs=itertools.count(),
    )


def _analyze(fuzz, blob):
    """Exit code and stderr of `analyze` on ``blob``, its --out and log."""
    run = next(fuzz.runs)
    log, out = fuzz.root / f"log{run}.npz", fuzz.root / f"res{run}"
    log.write_bytes(blob)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["analyze", "--config", fuzz.cfg, "--log", str(log), "--out", str(out)])
    log.unlink()
    return rc, err.getvalue(), out, log


def _flip(blob: bytes, bits) -> bytes:
    data = bytearray(blob)
    for bit in bits:
        data[bit // 8] ^= 1 << (bit % 8)
    return bytes(data)


def _damage(blob: bytes, data, kinds=("flip", "truncate")) -> bytes:
    """``blob`` with 1-4 bit flips anywhere, truncated, or with two
    member names swapped, as ``data`` draws. Only the damage is drawn,
    never the bytes, so a failing example prints short."""
    kind = data.draw(st.sampled_from(kinds), label="damage")
    if kind == "flip":
        bits = st.lists(st.integers(0, 8 * len(blob) - 1), min_size=1, max_size=4)
        return _flip(blob, data.draw(bits, label="bits"))
    if kind == "truncate":
        return blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    with zipfile.ZipFile(io.BytesIO(blob)) as zf:
        members = {name: zf.read(name) for name in zf.namelist()}
    pairs = st.sampled_from(list(itertools.combinations(members, 2)))
    a, b = data.draw(pairs, label="swapped")
    return _rezip({**members, a: members[b], b: members[a]})


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_damaged_log_is_refused_or_harmless(fuzz, data):
    blob = _damage(fuzz.blob, data, ("flip", "truncate", "swap"))
    rc, err, out, _ = _analyze(fuzz, blob)
    assert rc in (0, 2), err
    if rc == 2:
        assert err.startswith("error: cannot read shot log"), err
        assert not out.exists()
    else:
        # a flip that reaches no byte the reader checks or uses
        assert {name: (out / name).read_bytes() for name in CSVS} == fuzz.csvs


@settings(max_examples=60, deadline=None)
@given(codec=st.sampled_from(CODECS), damaged=st.booleans(), data=st.data())
def test_foreign_codec_log_exits_2(fuzz, codec, damaged, data):
    """The writer stores every member, so the reader refuses any other
    codec at open, damaged or not, before a decompressor sees a byte."""
    blob = _rezip(fuzz.members, codec)
    if damaged:
        blob = _damage(blob, data)
    rc, err, out, log = _analyze(fuzz, blob)
    assert rc == 2, err
    assert err.startswith("error: cannot read shot log"), err
    assert not out.exists()
    if not damaged:
        assert err == (
            f"error: cannot read shot log {log}: "
            "traces.npy is not a plain stored member\n"
        )
