"""Command-line pipeline: output formats, determinism and exit codes."""

import io
import json
import os
import struct
import subprocess
import sys
import tracemalloc
import zipfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import negdelay.cli
from negdelay import __version__
from negdelay.analysis import accumulate
from negdelay.cli import main
from negdelay.config import SCHEMA_VERSION, default_config, load_config, parse_config
from negdelay.errors import (
    AnalysisError,
    ConfigError,
    ConvergenceError,
    NegdelayError,
)
from negdelay.montecarlo import (
    CycleData,
    calibrate_detection,
    derive_shapes,
    run_campaign,
)

TINY = (
    "shot.shots_per_cycle = 60\n"
    "campaign.n_cycles = 6\n"
)
#: the per-shot phase rows take the wobble and the low-pass in turn
INJECTED = TINY + "shot.wobble_amplitude_urad = 100\nshot.lowpass_enabled = true\n"


def _cfg(tmp_path, text="", name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _check_header(path, hash_=None):
    lines = path.read_text().splitlines()
    assert lines[0] == f"# negdelay schema=5 version={__version__}"
    assert lines[1].startswith("# config_hash=")
    if hash_ is not None:
        assert f"config_hash={hash_}" in lines[1]
    return lines


def test_theory_outputs_and_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["theory", "--out", str(a)]) == 0
    assert main(["theory", "--out", str(b)]) == 0
    for name in ("phi0_theory.csv", "phiT_theory.csv", "summary.csv"):
        lines = _check_header(a / name, hash_="378894db1ce8")
        assert (a / name).read_bytes() == (b / name).read_bytes()
    header = (a / "summary.csv").read_text().splitlines()[2]
    assert header == "tau0_ns,tauT_ns,ratio,method"
    rows = (a / "summary.csv").read_text().splitlines()[3:]
    assert rows[0].endswith("spectral") and rows[1].endswith("oracle")


def test_float_matrix_rows_write_the_bytes_of_tuple_rows(tmp_path):
    """A float matrix, streamed a block of rows at a time, writes the
    bytes of the same rows as tuples, one by one: shorter than a block,
    and 2 blocks plus 3 rows, so that the last block is partial."""
    special = np.array(
        [
            [0.0, -0.0, 1e-300, -2.5e300, np.inf, -np.inf, np.nan, 1 / 3],
            [7.0, 1e16, 123456789.125, -1e-5, 0.1, 5e-324, 2.0**60, -1.5],
            [*np.random.default_rng(3).normal(size=8)],
        ]
    ).T
    long = np.random.default_rng(4).normal(size=(2 * negdelay.cli._CSV_BLOCK + 3, 3))
    run = default_config()
    for cols in (special, long):
        paths = tmp_path / "matrix.csv", tmp_path / "tuples.csv"
        negdelay.cli._write_csv(paths[0], run, 7, ("a", "b", "c"), cols)
        negdelay.cli._write_csv(
            paths[1], run, 7, ("a", "b", "c"), zip(*(c.tolist() for c in cols.T))
        )
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert len(paths[0].read_text().splitlines()) == 3 + len(cols)


def test_theory_transparent_medium_reports_na(tmp_path):
    cfg = _cfg(tmp_path, "medium.od = 0\n")
    out = tmp_path / "out"
    assert main(["theory", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "summary.csv").read_text().splitlines()[3:]
    for row in rows:
        assert ",NA," in row


def test_simulate_analyze_chain(tmp_path):
    cfg = _cfg(tmp_path, TINY)
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(sim)]) == 0
    log = sim / "shots.npz"
    with zipfile.ZipFile(log) as zf:
        names = set(zf.namelist())
    assert names == {"traces.npy", "clicked.npy", "meta.json"}

    res1, res2 = tmp_path / "r1", tmp_path / "r2"
    for res in (res1, res2):
        assert main(
            ["analyze", "--config", cfg, "--log", str(log), "--out", str(res)]
        ) == 0
    assert (res1 / "ratio.csv").read_bytes() == (res2 / "ratio.csv").read_bytes()
    lines = _check_header(res1 / "ratio.csv")
    assert lines[2] == "ratio,sigma,window_lo_ns,window_hi_ns,n_click,n_noclick"
    ratio, sigma, lo, hi, n_c, n_nc = lines[3].split(",")
    assert float(sigma) > 0.0 and float(lo) < float(hi)
    assert int(n_c) + int(n_nc) == 6 * 60
    _check_header(res1 / "phiT_measured.csv")
    assert (
        res1 / "phiT_measured.csv"
    ).read_text().splitlines()[2] == "t_ns,phi_urad,sigma_urad"


def test_simulate_is_byte_deterministic(tmp_path, monkeypatch):
    """The shot log does not depend on the thread count: one usable CPU
    draws the cycles serially, four draw them on four threads, with and
    without the wobble and the low-pass."""
    for name, text in (("tiny", TINY), ("injected", INJECTED)):
        cfg = _cfg(tmp_path, text, f"{name}.cfg")
        logs = []
        for cpus in (1, 4):
            monkeypatch.setattr(negdelay.montecarlo, "_usable_cpus", lambda: cpus)
            out = tmp_path / f"{name}-cpus{cpus}"
            argv = ["simulate", "--config", cfg, "--out", str(out), "--truth"]
            assert main(argv) == 0
            logs.append((out / "shots.npz").read_bytes())
        assert logs[0] == logs[1], name


@pytest.mark.parametrize(
    "command, text",
    [
        # a cloud of od 20 needs more emitters than the default 64
        ("theory", "medium.od = 20\noracle.n_atoms = 128\n"),
        # short and long pulses: the collision model's recursions on
        # grids of 5, 36 and 150 ns pulses
        ("sweep", "sweep.sigma_rms_ns = 5, 36, 150\n"),
        # a detuned carrier makes the field complex: both routes run its
        # real and imaginary parts apart
        ("theory", "pulse.center_detuning_MHz = 1.5\n"),
        ("sweep", "pulse.center_detuning_MHz = 1.5\n"),
    ],
    ids=["theory-od20", "sweep-radix", "theory-detuned", "sweep-detuned"],
)
def test_repeat_runs_write_the_same_bytes(tmp_path, command, text):
    """Two runs of one config write the same bytes, on paths that the
    default config does not take."""
    cfg = _cfg(tmp_path, text)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
    files = [{f.name: f.read_bytes() for f in out.iterdir()} for out in outs]
    assert files[0] and files[0] == files[1]


def _reference_log(cfg, seed, truth):
    """The shot log built whole in memory: every cycle materialized, each
    array stacked and saved, each member written by writestr."""
    run = load_config(cfg)
    shapes = derive_shapes(run.medium, run.pulse, run.shot, n_atoms=run.n_atoms)
    cal = calibrate_detection(
        shapes.tbar,
        run.shot.mean_photons,
        run.shot.target_click_prob,
        run.shot.background_click_fraction,
    )
    cycles = list(
        run_campaign(
            seed, run.n_cycles, shapes, run.shot, cal, traces=True
        )
    )
    names = ["traces", "clicked"]
    if truth:
        names += ["n_transmitted", "n_scattered", "background_clicked"]
    meta = {
        "schema": SCHEMA_VERSION,
        "version": __version__,
        "config_hash": run.config_hash,
        "seed": seed,
        "mode": "normal",
        "n_cycles": len(cycles),
    }
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w") as zf:
        for name in names:
            buf = io.BytesIO()
            np.save(buf, np.stack([getattr(c, name) for c in cycles]))
            zf.writestr(
                zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0)),
                buf.getvalue(),
            )
        zf.writestr(
            zipfile.ZipInfo("meta.json", date_time=(1980, 1, 1, 0, 0, 0)),
            json.dumps(meta, sort_keys=True, indent=1),
        )
    return out.getvalue()


@pytest.mark.parametrize("truth", [False, True])
def test_simulate_matches_in_memory_reference(tmp_path, truth):
    cfg = _cfg(tmp_path, TINY)
    out = tmp_path / "sim"
    argv = ["simulate", "--config", cfg, "--out", str(out), "--seed", "5"]
    assert main(argv + (["--truth"] if truth else [])) == 0
    assert (out / "shots.npz").read_bytes() == _reference_log(cfg, 5, truth)


def test_log_members_are_stored(tmp_path):
    """The streaming reader reads traces.npy straight from the archive,
    which needs every member stored uncompressed."""
    cfg = _cfg(tmp_path, TINY)
    out = tmp_path / "t"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--truth"]) == 0
    with zipfile.ZipFile(out / "shots.npz") as zf:
        infos = zf.infolist()
    assert len(infos) == 6
    for info in infos:
        assert info.compress_type == zipfile.ZIP_STORED, info.filename
        assert info.compress_size == info.file_size


def test_simulate_without_cycles_writes_no_log(tmp_path, capsys):
    """simulate and nullcheck reject campaigns of fewer than two cycles
    before writing anything."""
    for n_cycles in (0, 1):
        cfg = _cfg(tmp_path, f"campaign.n_cycles = {n_cycles}\n")
        for argv in (["simulate"], ["nullcheck", "--kind", "bypass_atoms"]):
            out = tmp_path / f"{argv[0]}{n_cycles}"
            assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
            assert "n_cycles must be at least 2" in capsys.readouterr().err
            assert not out.exists()


def _two_cycles_then_fail(*args, **kwargs):
    cycles = run_campaign(*args, **kwargs)
    yield next(cycles)
    yield next(cycles)
    raise ConfigError("campaign interrupted")


def test_failed_campaign_writes_no_log(tmp_path, monkeypatch):
    monkeypatch.setattr(negdelay.cli, "run_campaign", _two_cycles_then_fail)
    cfg = _cfg(tmp_path, TINY)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) != 0
    assert list(out.iterdir()) == []


def _analyze_fails(tmp_path, capsys, cfg, log, msg="cannot read shot log"):
    out = tmp_path / "res"
    rc = main(["analyze", "--config", cfg, "--log", str(log), "--out", str(out)])
    assert rc == 2
    assert msg in capsys.readouterr().err
    assert not out.exists()


def test_damaged_trace_data_exits_2(tmp_path, capsys):
    """A flipped data bit in either streamed member fails its CRC on the
    last cycle's read, before any CSV is written."""
    cfg = _cfg(tmp_path, TINY)
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(sim)]) == 0
    log = sim / "shots.npz"
    for name in ("traces.npy", "clicked.npy"):
        with zipfile.ZipFile(log) as zf:
            info = zf.getinfo(name)
        data = bytearray(log.read_bytes())
        pos = info.header_offset + info.compress_size // 2
        data[pos] ^= 0x01
        damaged = tmp_path / f"damaged-{name}.npz"
        damaged.write_bytes(bytes(data))
        _analyze_fails(tmp_path, capsys, cfg, damaged)


def test_overflowing_trace_sample_exits_2(tmp_path, capsys):
    """A flipped top exponent bit turns a sample of about 0.1 rad into a
    finite 1e307, which overflows the statistics before its member's CRC
    fails at the end: the log is unreadable, and no floating-point
    warning escapes."""
    cfg = _cfg(tmp_path, TINY)
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(sim)]) == 0
    log = sim / "shots.npz"
    with zipfile.ZipFile(log) as zf:
        sample = np.load(io.BytesIO(zf.read("traces.npy")))[0, 0, 0]
    assert 0.0 < abs(sample) < 2.0
    data = bytearray(log.read_bytes())
    # the last byte of a little-endian float64 holds the sign and the
    # top seven exponent bits
    data[data.find(sample.tobytes()) + 7] ^= 0x40
    log.write_bytes(bytes(data))
    _analyze_fails(tmp_path, capsys, cfg, log, msg="overflow encountered")


def _rewritten_log(tmp_path, cfg, edit):
    """A simulated log whose traces and click flags are replaced by the
    arrays ``edit`` returns for them."""
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(sim)]) == 0
    log = sim / "shots.npz"
    with zipfile.ZipFile(log) as zf:
        members = {name: zf.read(name) for name in zf.namelist()}
    arrays = {
        name: np.load(io.BytesIO(members[f"{name}.npy"]))
        for name in ("traces", "clicked")
    }
    for name, arr in edit(arrays).items():
        buf = io.BytesIO()
        np.save(buf, arr)
        members[f"{name}.npy"] = buf.getvalue()
    with zipfile.ZipFile(log, "w") as zf:
        for name, blob in members.items():
            zf.writestr(name, blob)
    return log


@pytest.mark.parametrize(
    "cut",
    [
        # header disagrees with clicked.npy and the meta cycle count
        lambda a: {"traces": a["traces"][:-1]},
        # header disagrees with shot.n_samples
        lambda a: {"traces": a["traces"][:, :, :-1]},
        # header agrees with clicked.npy, not with shot.shots_per_cycle
        lambda a: {"traces": a["traces"][:, :-1], "clicked": a["clicked"][:, :-1]},
        # 0/1 click flags stored as integers are refused, not cast
        lambda a: {"clicked": a["clicked"].astype(np.int8)},
    ],
    ids=["cycles", "samples", "shots", "clicked-int8"],
)
def test_trace_shape_mismatch_exits_2(tmp_path, capsys, cut):
    cfg = _cfg(tmp_path, TINY)
    _analyze_fails(tmp_path, capsys, cfg, _rewritten_log(tmp_path, cfg, cut))


def test_log_of_another_cycle_count_exits_2(tmp_path, capsys):
    """The config hash covers campaign.n_cycles: a self-consistent log of
    3 cycles under a 6-cycle config's hash is refused, not analyzed as a
    shorter campaign."""
    cfg = _cfg(tmp_path, TINY)
    run = load_config(cfg)
    short = replace(run, n_cycles=3)
    _, cycles = negdelay.cli._campaign(short, 5, traces=True)
    log = tmp_path / "short.npz"
    negdelay.cli._write_log(log, short, 5, cycles, False)
    with zipfile.ZipFile(log) as zf:
        assert json.loads(zf.read("meta.json"))["config_hash"] == run.config_hash
    _analyze_fails(tmp_path, capsys, cfg, log)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_trace_sample_exits_2(tmp_path, capsys, value):
    """One non-finite sample is refused as the log is read, not left to
    fail the statistics downstream with a misleading message."""

    def poison(arrays):
        traces = arrays["traces"].copy()
        traces[3, 5, 7] = value
        return {"traces": traces}

    cfg = _cfg(tmp_path, TINY)
    log = _rewritten_log(tmp_path, cfg, poison)
    msg = f"cannot read shot log {log}: cycle 3 of traces.npy holds a non-finite"
    _analyze_fails(tmp_path, capsys, cfg, log, msg=msg)


def _traced_peak(argv):
    """Peak bytes allocated while one command runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _campaign_peak(monkeypatch, argv):
    """Peak bytes allocated by ``simulate`` from the start of its campaign,
    after the shape derivation, to the end of the run."""

    def traced_campaign(*args, **kwargs):
        tracemalloc.start()
        return run_campaign(*args, **kwargs)

    monkeypatch.setattr(negdelay.cli, "run_campaign", traced_campaign)
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_shot_log_memory_is_bounded(tmp_path, monkeypatch):
    """simulate and analyze hold one cycle's traces at a time, so only
    the per-shot click flags grow with n_cycles. simulate draws its
    cycles serially here (one usable CPU), which makes its peak
    independent of thread timing; the threaded window is bounded in
    test_montecarlo."""
    monkeypatch.setattr(negdelay.montecarlo, "_usable_cpus", lambda: 1)
    peaks = {}
    for n_cycles in (10, 100):
        cfg = _cfg(tmp_path, f"campaign.n_cycles = {n_cycles}\n", f"{n_cycles}.cfg")
        sim, res = tmp_path / f"sim{n_cycles}", tmp_path / f"res{n_cycles}"
        peaks[n_cycles] = (
            _campaign_peak(
                monkeypatch,
                ["simulate", "--config", cfg, "--out", str(sim)],
            ),
            _traced_peak(
                [
                    "analyze",
                    "--config",
                    cfg,
                    "--log",
                    str(sim / "shots.npz"),
                    "--out",
                    str(res),
                ]
            ),
        )
    # Drawing a cycle holds two cycle-sized arrays (the traces with the
    # scattered term, then with the noise) plus numpy's buffers and the
    # per-shot vectors, under half a cycle, while the writer still holds
    # the cycle before; the click flags are held as rows. Checked at 100
    # cycles, after the first campaign has imported what it needs.
    shot = default_config().shot
    bound = 3.5 * 8 * shot.shots_per_cycle * shot.n_samples
    bound += 4 * 100 * shot.shots_per_cycle
    assert peaks[100][0] <= bound, ("simulate", peaks[100][0], bound)
    assert peaks[100][1] <= 1.5 * peaks[10][1], ("analyze", peaks)


def _zero_cycles(run, traces):
    """``run.n_cycles`` zero-valued cycles sharing one traces array, each
    with fresh per-shot vectors, as the sampler draws them."""
    shots = run.shot.shots_per_cycle
    for _ in range(run.n_cycles):
        yield CycleData(
            np.zeros(shots, bool),
            traces=traces,
            n_transmitted=np.zeros(shots, np.int64),
            n_scattered=np.zeros(shots, np.int64),
            background_clicked=np.zeros(shots, bool),
        )


def test_log_writer_holds_only_the_per_shot_vectors(tmp_path):
    """Writing a --truth log holds the per-shot rows and nothing that
    scales with them: each member is streamed, never stacked or copied
    (the stacked writer peaked at 2.2 times the rows plus one cycle)."""
    run = parse_config("campaign.n_cycles = 200\n")
    shots, n_samples = run.shot.shots_per_cycle, run.shot.n_samples
    traces = np.zeros((shots, n_samples))
    tracemalloc.start()
    try:
        negdelay.cli._write_log(
            tmp_path / "shots.npz", run, 0, _zero_cycles(run, traces), True
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # bool clicked and background_clicked, int64 n_transmitted and n_scattered
    held = run.n_cycles * shots * (1 + 8 + 8 + 1)
    bound = 1.1 * (held + traces.nbytes)
    assert peak <= bound, (peak, held, bound)


def test_log_reader_memory_does_not_grow_with_cycles(tmp_path):
    """The reader streams traces.npy and clicked.npy a cycle at a time.
    One sample per shot keeps the logs small while the click flags of a
    whole log would still dominate a cycle's traces."""
    peaks = {}
    for n_cycles in (2, 10, 1000):
        run = parse_config(
            f"campaign.n_cycles = {n_cycles}\n"
            "shot.shots_per_cycle = 200\n"
            "shot.n_samples = 1\n"
        )
        log = tmp_path / f"{n_cycles}.npz"
        traces = np.zeros((run.shot.shots_per_cycle, 1))
        negdelay.cli._write_log(log, run, 0, _zero_cycles(run, traces), False)
        tracemalloc.start()
        try:
            with negdelay.cli._read_log(log, run) as (_, cycles):
                assert sum(1 for _ in cycles) == n_cycles
            peaks[n_cycles] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # the 2-cycle read only warms up what a first read imports
    assert peaks[1000] <= 1.5 * peaks[10], peaks


def test_simulate_truth_arrays(tmp_path):
    cfg = _cfg(tmp_path, TINY)
    out = tmp_path / "t"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--truth"]) == 0
    with zipfile.ZipFile(out / "shots.npz") as zf:
        names = set(zf.namelist())
    assert {"n_transmitted.npy", "n_scattered.npy", "background_clicked.npy"} <= names


def test_analyze_of_truth_log_matches_plain_log(tmp_path):
    """The photon fates ride along unread: a --truth log analyzes to the
    same CSV bytes as the plain log of the same seed."""
    cfg = _cfg(tmp_path, TINY)
    for name, extra in (("plain", []), ("truth", ["--truth"])):
        sim = tmp_path / f"sim-{name}"
        argv = ["simulate", "--config", cfg, "--seed", "3", "--out", str(sim)]
        assert main(argv + extra) == 0
        log = str(sim / "shots.npz")
        argv = ["analyze", "--config", cfg, "--log", log, "--out"]
        assert main(argv + [str(tmp_path / f"res-{name}")]) == 0
    for csv in ("phiT_measured.csv", "ratio.csv"):
        plain = (tmp_path / "res-plain" / csv).read_bytes()
        assert (tmp_path / "res-truth" / csv).read_bytes() == plain, csv


def test_analyze_of_log_matches_in_memory_campaign(tmp_path):
    """Two code paths from one seed: the per-shot traces ``simulate``
    logs, reduced by ``analyze``, and the class sums a campaign draws in
    memory at default arguments. phi_T agrees to 1e-9 of its sigma and
    every shot is counted."""
    cfg = _cfg(tmp_path, TINY)
    sim, res = tmp_path / "sim", tmp_path / "res"
    assert main(["simulate", "--config", cfg, "--seed", "8", "--out", str(sim)]) == 0
    log = str(sim / "shots.npz")
    assert main(["analyze", "--config", cfg, "--log", log, "--out", str(res)]) == 0
    run = load_config(cfg)
    ref = accumulate(negdelay.cli._campaign(run, 8)[1])
    t_ns, phi_urad, sigma_urad = np.loadtxt(
        res / "phiT_measured.csv", delimiter=",", skiprows=3, unpack=True
    )
    gap = np.abs(phi_urad - 1e6 * ref.phi_T) / sigma_urad
    assert np.max(gap) < 1e-9, np.max(gap)
    ratio = (res / "ratio.csv").read_text().splitlines()[3].split(",")
    assert (int(ratio[4]), int(ratio[5])) == (ref.n_click, ref.n_noclick)
    assert ref.n_click + ref.n_noclick == run.n_cycles * run.shot.shots_per_cycle


def test_analyze_rejects_foreign_log(tmp_path, capsys):
    cfg = _cfg(tmp_path, TINY)
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(sim)]) == 0
    other = _cfg(tmp_path, TINY + "medium.od = 2\n", name="other.cfg")
    rc = main(
        [
            "analyze",
            "--config",
            other,
            "--log",
            str(sim / "shots.npz"),
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert rc == 2
    assert "config hash" in capsys.readouterr().err


def test_analyze_rejects_old_schema_log(tmp_path, capsys):
    """A log of an older schema hashed its config another way: refused
    before any output is written, even where everything else matches."""
    cfg = _cfg(tmp_path, TINY)
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(sim)]) == 0
    log = sim / "shots.npz"
    with zipfile.ZipFile(log) as zf:
        members = {name: zf.read(name) for name in zf.namelist()}
    meta = json.loads(members["meta.json"])
    meta["schema"] = SCHEMA_VERSION - 1
    members["meta.json"] = json.dumps(meta)
    with zipfile.ZipFile(log, "w") as zf:
        for name, blob in members.items():
            zf.writestr(name, blob)
    _analyze_fails(tmp_path, capsys, cfg, log, msg="schema")


def test_nullcheck_gate(tmp_path):
    cfg = _cfg(tmp_path, "campaign.n_cycles = 10\nshot.shots_per_cycle = 400\n")
    out = tmp_path / "null"
    rc = main(
        [
            "nullcheck",
            "--kind",
            "no_signal",
            "--config",
            cfg,
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = (out / "ratio.csv").read_text().splitlines()
    assert lines[2].endswith(",pass")
    ratio, sigma = (float(v) for v in lines[3].split(",")[:2])
    flag = lines[3].split(",")[-1]
    assert flag == "1"
    assert abs(ratio) < 2.0 * sigma


@pytest.mark.parametrize(
    "argv",
    [["theory", "--seed", "1"], ["simulate", "--jobs", "2"]],
    ids=["theory-seed", "simulate-jobs"],
)
def test_campaign_flags_only_on_campaign_commands(tmp_path, capsys, argv):
    """--seed exists only where a campaign is drawn, and no command takes
    a thread count: a campaign picks its own fan-out."""
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, msg",
    [
        (["simulate", "--seed", "-1"], "--seed: must be at least 0"),
        (["nullcheck", "--kind", "bypass_atoms", "--seed", "-1"], "at least 0"),
    ],
    ids=["simulate-seed", "nullcheck-seed"],
)
def test_bad_campaign_flag_exits_2(tmp_path, capsys, argv, msg):
    """Flags are checked while parsing, before the output directory exists."""
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert msg in capsys.readouterr().err
    assert not out.exists()


def test_nullcheck_rejects_normal_kind(tmp_path):
    with pytest.raises(SystemExit):
        main(
            [
                "nullcheck",
                "--kind",
                "normal",
                "--out",
                str(tmp_path / "x"),
            ]
        )


def test_sweep_table(tmp_path):
    cfg = _cfg(tmp_path, "sweep.sigma_rms_ns = 10, 36\nsweep.od = 3\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[2] == (
        "sigma_rms_ns,od,tbar,tau0_ns,tauT_spectral_ns,tauT_oracle_ns,"
        "ratio_spectral,ratio_oracle"
    )
    rows = [line.split(",") for line in lines[3:]]
    assert len(rows) == 2
    # excitation-time ratio falls with pulse duration and goes negative
    r10, r36 = float(rows[0][6]), float(rows[1][6])
    assert r10 > 0.0 > r36


def test_sweep_transparent_medium_reports_na(tmp_path):
    cfg = _cfg(tmp_path, "sweep.od = 0, 2\nsweep.sigma_rms_ns = 10\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[3:]]
    assert [float(r[1]) for r in rows] == [0.0, 2.0]
    assert rows[0][6:] == ["NA", "NA"]
    assert float(rows[1][6]) > 0.0 and float(rows[1][7]) > 0.0


@pytest.mark.parametrize(
    "text, msg",
    [
        ("foo = 1", "unknown key"),
        ("medium.od = -1", "optical depth"),
        ("medium.tau_sp_ns = 26", "unknown key"),
        ("campaign.seed = 3", "unknown key"),
        ("medium.gamma_MHz = 0", "linewidth"),
        # non-finite values stop at the parser, before any command uses them
        ("shot.mean_photons = nan", "key 'shot.mean_photons': must be finite"),
        ("shot.dt_ns = inf", "key 'shot.dt_ns': must be finite"),
        ("shot.phase_noise_mrad = -inf", "key 'shot.phase_noise_mrad': must be finite"),
        ("sweep.od = 2, nan", "key 'sweep.od': must be finite"),
        # a cycle array far past its bound is refused before allocation
        ("shot.n_samples = 100000", "n_samples 100000"),
        ("shot.shots_per_cycle = 100000000", "shots_per_cycle 100000000"),
    ],
)
def test_bad_config_exits_2(tmp_path, capsys, text, msg):
    cfg = _cfg(tmp_path, text)
    rc = main(["theory", "--config", cfg, "--out", str(tmp_path / "x")])
    assert rc == 2
    assert msg in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_config_not_utf8_exits_2(tmp_path, capsys):
    """A config file is read as UTF-8 whatever the locale; a byte that
    does not decode is an unreadable file, not a crash."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"medium.od = 4\n\xff\n")
    out = tmp_path / "x"
    assert main(["theory", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {cfg}")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "gamma_mhz, start, msg",
    [
        pytest.param(
            "1e-12", "error: linewidth", "grid samples", id="1e-12-grid samples"
        ),
        # refused by the parser, before any linewidth is formed
        pytest.param(
            "inf",
            "error: key 'medium.gamma_MHz'",
            "must be finite",
            id="inf-must be finite",
        ),
        # finite as written, but not once converted to rad/s
        pytest.param(
            "1e305",
            "error: key 'medium.gamma_MHz'",
            "must be finite",
            id="1e305-must be finite",
        ),
    ],
)
def test_unbounded_linewidth_exits_2(tmp_path, capsys, gamma_mhz, start, msg):
    """A linewidth whose grid would not fit (1e-12 MHz asked numpy for
    64 PiB) or that is not finite (1e305 MHz overflows to inf rad/s)
    exits 2 with a message, before any allocation or output."""
    cfg = _cfg(tmp_path, f"medium.gamma_MHz = {gamma_mhz}\n")
    out = tmp_path / "x"
    assert main(["theory", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(start) and msg in err
    assert "Traceback" not in err
    assert not out.exists()


FAST_WOBBLE = "shot.wobble_amplitude_urad = 100\nshot.wobble_frequency_MHz = 1e308\n"


@pytest.mark.parametrize(
    "argv, text, msg",
    [
        (["theory"], "medium.gamma_MHz = 1e-12\n", "grid samples"),
        (["sweep"], "medium.gamma_MHz = 1e-12\n", "grid samples"),
        (
            ["simulate"],
            "shot.wobble_amplitude_urad = 100\nshot.mean_photons = 0\n"
            "shot.target_click_prob = 0\n",
            "wobble injection needs mean_photons > 0",
        ),
        (
            ["nullcheck", "--kind", "no_signal"],
            "shot.background_click_fraction = 0\n",
            "needs background clicks",
        ),
        (["analyze", "--log", "absent.npz"], "", "cannot read shot log"),
        # the parser refuses these before any command runs
        (
            ["nullcheck", "--kind", "bypass_atoms"],
            "shot.mean_photons = nan\n",
            "key 'shot.mean_photons': must be finite",
        ),
        (["simulate"], "shot.n_samples = 100000\n", "n_samples 100000"),
        # finite as written, but not once converted to rad/s or Hz
        (["theory"], "pulse.center_detuning_MHz = 1e308\n", "center_detuning_MHz"),
        (["sweep"], "pulse.center_detuning_MHz = 1e308\n", "center_detuning_MHz"),
        (["theory"], "medium.probe_detuning_MHz = 1e308\n", "probe_detuning_MHz"),
        (["simulate"], FAST_WOBBLE, "wobble_frequency_MHz"),
        (["nullcheck", "--kind", "bypass_atoms"], FAST_WOBBLE, "wobble_frequency_MHz"),
        # past numpy's Poisson limit
        (["simulate"], "shot.mean_photons = 1e30\n", "mean_photons must lie in"),
        (
            ["nullcheck", "--kind", "bypass_atoms"],
            "shot.mean_photons = 1e30\n",
            "mean_photons must lie in",
        ),
        # shot values whose window times overflow in ns, whose bin edges
        # round onto each other, or whose phases overflow the covariance
        *(
            (argv, f"{key} = 1e308\n", f"key '{key}'")
            for key in (
                "shot.dt_ns",
                "shot.pulse_center_ns",
                "shot.phase_noise_mrad",
                "shot.wobble_amplitude_urad",
            )
            for argv in (["simulate"], ["nullcheck", "--kind", "bypass_atoms"])
        ),
    ],
    ids=[
        "theory",
        "sweep",
        "simulate",
        "nullcheck",
        "analyze",
        "nullcheck-nan",
        "simulate-n_samples",
        "theory-center",
        "sweep-center",
        "theory-probe",
        "simulate-wobble",
        "nullcheck-wobble",
        "simulate-photons",
        "nullcheck-photons",
        *(
            f"{command}-{key}"
            for key in ("dt", "center", "noise", "wobble-amplitude")
            for command in ("simulate", "nullcheck")
        ),
    ],
)
def test_refused_run_leaves_no_out(tmp_path, capsys, monkeypatch, argv, text, msg):
    """--out is created at the first write, so a command refused before
    it writes, as its config loads or after, leaves no output directory."""
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "x"
    cfg = _cfg(tmp_path, TINY + text)
    assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
    assert msg in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, key", [("theory", "medium.od"), ("sweep", "sweep.od")])
def test_cloud_that_transmits_nothing_exits_3(tmp_path, capsys, command, key):
    """At a depth of 1e308 no power is transmitted and tau_T has no norm:
    the run exits 3 before any output, without dividing 0 by 0."""
    out = tmp_path / "x"
    cfg = _cfg(tmp_path, f"{key} = 1e308\n")
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "error: no power is transmitted: tau_T is undefined\n"
    assert not out.exists()


def test_failed_write_keeps_the_rest_of_out(tmp_path, monkeypatch):
    """A write that fails into an existing --out changes none of its
    files, not even an older file of the same name, and leaves no
    .part file behind."""
    out = tmp_path / "sim"
    out.mkdir()
    before = {"notes.txt": b"kept\n", "shots.npz": b"an older log"}
    for name, blob in before.items():
        (out / name).write_bytes(blob)
    monkeypatch.setattr(negdelay.cli, "run_campaign", _two_cycles_then_fail)
    cfg = _cfg(tmp_path, TINY)
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert {f.name: f.read_bytes() for f in out.iterdir()} == before


@pytest.mark.parametrize(
    "error, code",
    [(NegdelayError, 1), (ConfigError, 2), (ConvergenceError, 3), (AnalysisError, 4)],
)
def test_error_types_carry_their_exit_codes(
    tmp_path, capsys, monkeypatch, error, code
):
    def fail(run, out, args):
        raise error("stub failure")

    monkeypatch.setitem(negdelay.cli._COMMANDS, "theory", fail)
    assert error.exit_code == code
    assert main(["theory", "--out", str(tmp_path / "x")]) == code
    assert capsys.readouterr().err == "error: stub failure\n"


def test_module_entry_point_returns_the_exit_code(tmp_path):
    """``python -m negdelay.cli`` hands main's exit code to the shell: 0
    for a run, 2 for a grid that cannot be built, 3 for a cloud too deep
    for 64 emitters, each refusal with its error on stderr and no --out.
    The interpreter runs under the suite's warning filter."""
    src = str(Path(negdelay.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    for code, text in (
        (0, ""),
        (2, "medium.gamma_MHz = 1e-12\n"),
        (3, "medium.od = 20\n"),
    ):
        cfg, out = _cfg(tmp_path, text, f"{code}.cfg"), tmp_path / f"out{code}"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "negdelay.cli", "theory"]
            + ["--config", cfg, "--out", str(out)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == code, proc.stderr
        if code:
            assert proc.stderr.startswith("error: "), proc.stderr
            assert not out.exists()
        else:
            assert proc.stderr == ""
            assert (out / "summary.csv").stat().st_size > 0


def test_convergence_failure_exits_3(tmp_path, capsys):
    # od 4 over 8 emitters breaks the weak-extinction bound
    cfg = _cfg(tmp_path, "oracle.n_atoms = 8\n")
    rc = main(["theory", "--config", cfg, "--out", str(tmp_path / "x")])
    assert rc == 3
    assert "increase n_atoms" in capsys.readouterr().err


def test_empty_click_class_exits_4(tmp_path, capsys):
    cfg = _cfg(tmp_path, TINY + "shot.target_click_prob = 0\n")
    out = tmp_path / "null"
    argv = ["nullcheck", "--kind", "bypass_atoms", "--config", cfg]
    assert main(argv + ["--out", str(out)]) == 4
    assert "click class is empty" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dt_ns", ["200", "2000"])
def test_one_bin_window_exits_4(tmp_path, capsys, dt_ns):
    """Bins wider than the phi_T1 peak leave a one-bin window, where a
    one-sample trapezoid has zero width: the run is refused, not written
    as 0 +- 0, by nullcheck and by analyze of a log."""
    cfg = _cfg(tmp_path, TINY + f"shot.dt_ns = {dt_ns}\n")
    sim, out = tmp_path / "sim", tmp_path / "x"
    assert main(["simulate", "--config", cfg, "--seed", "11", "--out", str(sim)]) == 0
    log = str(sim / "shots.npz")
    for argv in (
        ["nullcheck", "--kind", "bypass_atoms", "--seed", "11"],
        ["analyze", "--log", log],
    ):
        assert main(argv + ["--config", cfg, "--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith(
            "error: the integration window is one bin"
        )
        assert not out.exists()


def test_cycles_with_an_empty_class_are_skipped(tmp_path, capsys):
    """A cycle without a click no longer stops a campaign: nullcheck and
    analyze skip it and say how many on stderr, and a log's analysis
    skips the cycles its seed's in-memory campaign skips. At seed 11 two
    of the six no_signal cycles have no click; a run that skips nothing
    prints nothing."""
    note = "note: skipped {} of 6 cycles with an empty click or no-click class\n"
    cfg = _cfg(tmp_path, TINY)
    argv = ["nullcheck", "--config", cfg, "--seed", "11", "--kind"]
    assert main(argv + ["no_signal", "--out", str(tmp_path / "dark")]) == 0
    assert capsys.readouterr().err == note.format(2)
    assert main(argv + ["bypass_atoms", "--out", str(tmp_path / "lit")]) == 0
    assert capsys.readouterr().err == ""

    rare = _cfg(tmp_path, TINY + "shot.target_click_prob = 0.02\n", name="rare.cfg")
    sim, res = tmp_path / "sim", tmp_path / "res"
    assert main(["simulate", "--config", rare, "--seed", "3", "--out", str(sim)]) == 0
    log = str(sim / "shots.npz")
    assert main(["analyze", "--config", rare, "--log", log, "--out", str(res)]) == 0
    run = load_config(rare)
    ref = accumulate(negdelay.cli._campaign(run, 3)[1])
    assert ref.n_skipped > 0
    assert capsys.readouterr().err == note.format(ref.n_skipped)
    row = (res / "ratio.csv").read_text().splitlines()[3].split(",")
    assert (int(row[4]), int(row[5])) == (ref.n_click, ref.n_noclick)


def test_missing_and_corrupt_logs_exit_2(tmp_path, capsys):
    rc = main(
        [
            "analyze",
            "--log",
            str(tmp_path / "absent.npz"),
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert rc == 2
    assert "cannot read shot log" in capsys.readouterr().err
    bad = tmp_path / "bad.npz"
    bad.write_bytes(b"not a zip archive")
    rc = main(["analyze", "--log", str(bad), "--out", str(tmp_path / "y")])
    assert rc == 2
    assert "cannot read shot log" in capsys.readouterr().err
    # a traces.npy member flagged encrypted (flag bit 0), or stored with
    # a compression method zipfile does not support (99), in its
    # central-directory entry: zipfile raises RuntimeError and
    # NotImplementedError for them
    cfg = _cfg(tmp_path, TINY)
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(sim)]) == 0
    log = sim / "shots.npz"
    blob = log.read_bytes()
    # a central-directory entry holds 46 bytes of fields, then the name
    entry = blob.rfind(b"traces.npy") - 46
    assert blob[entry : entry + 4] == b"PK\x01\x02"
    for offset, value in ((8, 1), (10, 99)):
        patched = bytearray(blob)
        struct.pack_into("<H", patched, entry + offset, value)
        log.write_bytes(patched)
        _analyze_fails(tmp_path, capsys, cfg, log)


def test_log_meta_not_an_object_exits_2(tmp_path, capsys):
    """meta.json that parses as JSON but not as an object is unreadable,
    however sound the other members are."""
    cfg = _cfg(tmp_path, TINY)
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(sim)]) == 0
    log = sim / "shots.npz"
    with zipfile.ZipFile(log) as zf:
        members = {name: zf.read(name) for name in zf.namelist()}
    members["meta.json"] = "[]"
    with zipfile.ZipFile(log, "w") as zf:
        for name, blob in members.items():
            zf.writestr(name, blob)
    _analyze_fails(tmp_path, capsys, cfg, log)


def test_log_meta_seed_is_held_to_the_seed_rule(tmp_path, capsys):
    """Both CSV headers copy the log's seed: one that is not an integer
    >= 0 (a line break in it forged a data row) makes the log unreadable."""
    cfg = _cfg(tmp_path, TINY)
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(sim)]) == 0
    log = sim / "shots.npz"
    with zipfile.ZipFile(log) as zf:
        members = {name: zf.read(name) for name in zf.namelist()}
    meta = json.loads(members["meta.json"])

    def write_seed(seed):
        members["meta.json"] = json.dumps({**meta, "seed": seed})
        with zipfile.ZipFile(log, "w") as zf:
            for name, blob in members.items():
                zf.writestr(name, blob)

    # the rewrite alone keeps the log readable
    write_seed(5)
    good = tmp_path / "good"
    argv = ["analyze", "--config", cfg, "--log", str(log), "--out", str(good)]
    assert main(argv) == 0
    assert (good / "ratio.csv").read_text().splitlines()[1].endswith(" seed=5")
    for seed in ("3\nt_ns,phi_urad\n1,2", "3", True, -1, 3.0, None):
        write_seed(seed)
        _analyze_fails(tmp_path, capsys, cfg, log)


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory")
    assert main(["theory", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create output directory {out}")
    assert out.read_text() == "not a directory"
