"""Command-line pipeline: output formats, determinism and exit codes."""

import io
import json
import tracemalloc
import zipfile

import numpy as np
import pytest

import negdelay.cli
from negdelay import __version__
from negdelay.cli import main
from negdelay.config import SCHEMA_VERSION, default_config, load_config
from negdelay.errors import ConfigError
from negdelay.montecarlo import calibrate_detection, derive_shapes, run_campaign

TINY = (
    "shot.shots_per_cycle = 60\n"
    "campaign.n_cycles = 6\n"
    "campaign.seed = 3\n"
)


def _cfg(tmp_path, text="", name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _check_header(path, hash_=None):
    lines = path.read_text().splitlines()
    assert lines[0] == f"# negdelay schema=2 version={__version__}"
    assert lines[1].startswith("# config_hash=")
    if hash_ is not None:
        assert f"config_hash={hash_}" in lines[1]
    return lines


def test_theory_outputs_and_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["theory", "--out", str(a)]) == 0
    assert main(["theory", "--out", str(b)]) == 0
    for name in ("phi0_theory.csv", "phiT_theory.csv", "summary.csv"):
        lines = _check_header(a / name, hash_="8df73f97d89c")
        assert (a / name).read_bytes() == (b / name).read_bytes()
    header = (a / "summary.csv").read_text().splitlines()[2]
    assert header == "tau0_ns,tauT_ns,ratio,method"
    rows = (a / "summary.csv").read_text().splitlines()[3:]
    assert rows[0].endswith("spectral") and rows[1].endswith("oracle")


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


def test_simulate_is_byte_deterministic(tmp_path):
    """The shot log does not depend on the thread count: one thread, the
    default (every usable CPU) and four."""
    cfg = _cfg(tmp_path, TINY)
    logs = []
    for name, jobs in (
        ("serial", ["--jobs", "1"]),
        ("default", []),
        ("four", ["--jobs", "4"]),
    ):
        out = tmp_path / name
        argv = ["simulate", "--config", cfg, "--out", str(out), "--truth", *jobs]
        assert main(argv) == 0
        logs.append((out / "shots.npz").read_bytes())
    assert logs[0] == logs[1] == logs[2]


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
            seed, run.n_cycles, shapes, run.shot, cal, jobs=1, truth=truth
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


def test_failed_campaign_writes_no_log(tmp_path, monkeypatch):
    def two_cycles_then_fail(*args, **kwargs):
        kwargs["jobs"] = 1
        cycles = run_campaign(*args, **kwargs)
        yield next(cycles)
        yield next(cycles)
        raise ConfigError("campaign interrupted")

    monkeypatch.setattr(negdelay.cli, "run_campaign", two_cycles_then_fail)
    cfg = _cfg(tmp_path, TINY)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) != 0
    assert list(out.iterdir()) == []


def _analyze_fails(tmp_path, capsys, cfg, log, msg="cannot read shot log"):
    out = tmp_path / "res"
    rc = main(["analyze", "--config", cfg, "--log", str(log), "--out", str(out)])
    assert rc == 2
    assert msg in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_damaged_trace_data_exits_2(tmp_path, capsys):
    cfg = _cfg(tmp_path, TINY)
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(sim)]) == 0
    log = sim / "shots.npz"
    with zipfile.ZipFile(log) as zf:
        info = zf.getinfo("traces.npy")
    data = bytearray(log.read_bytes())
    pos = info.header_offset + info.compress_size // 2
    data[pos] ^= 0x01
    log.write_bytes(bytes(data))
    _analyze_fails(tmp_path, capsys, cfg, log)


@pytest.mark.parametrize(
    "cut",
    [
        # header disagrees with clicked.npy and the meta cycle count
        lambda a: {"traces": a["traces"][:-1]},
        # header disagrees with shot.n_samples
        lambda a: {"traces": a["traces"][:, :, :-1]},
        # header agrees with clicked.npy, not with shot.shots_per_cycle
        lambda a: {"traces": a["traces"][:, :-1], "clicked": a["clicked"][:, :-1]},
    ],
    ids=["cycles", "samples", "shots"],
)
def test_trace_shape_mismatch_exits_2(tmp_path, capsys, cut):
    cfg = _cfg(tmp_path, TINY)
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(sim)]) == 0
    log = sim / "shots.npz"
    with zipfile.ZipFile(log) as zf:
        members = {name: zf.read(name) for name in zf.namelist()}
    arrays = {
        name: np.load(io.BytesIO(members[f"{name}.npy"]))
        for name in ("traces", "clicked")
    }
    for name, arr in cut(arrays).items():
        buf = io.BytesIO()
        np.save(buf, arr)
        members[f"{name}.npy"] = buf.getvalue()
    with zipfile.ZipFile(log, "w") as zf:
        for name, blob in members.items():
            zf.writestr(name, blob)
    _analyze_fails(tmp_path, capsys, cfg, log)


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
    cycles serially here, which makes its peak independent of thread
    timing; the threaded window is bounded in test_montecarlo."""
    peaks = {}
    for n_cycles in (10, 100):
        cfg = _cfg(tmp_path, f"campaign.n_cycles = {n_cycles}\n", f"{n_cycles}.cfg")
        sim, res = tmp_path / f"sim{n_cycles}", tmp_path / f"res{n_cycles}"
        peaks[n_cycles] = (
            _campaign_peak(
                monkeypatch,
                ["simulate", "--config", cfg, "--out", str(sim), "--jobs", "1"],
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
    # Drawing a cycle takes under four cycles' traces (noise, traces, one
    # outer product and numpy's casting buffers) while the writer still
    # holds the cycle before; the click flags are held as rows, then
    # stacked, saved and copied. Checked at 100 cycles, after the first
    # campaign has imported what it needs.
    shot = default_config().shot
    bound = 5 * 8 * shot.shots_per_cycle * shot.n_samples
    bound += 4 * 100 * shot.shots_per_cycle
    assert peaks[100][0] <= bound, ("simulate", peaks[100][0], bound)
    assert peaks[100][1] <= 1.5 * peaks[10][1], ("analyze", peaks)


def test_simulate_truth_arrays(tmp_path):
    cfg = _cfg(tmp_path, TINY)
    out = tmp_path / "t"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--truth"]) == 0
    with zipfile.ZipFile(out / "shots.npz") as zf:
        names = set(zf.namelist())
    assert {"n_transmitted.npy", "n_scattered.npy", "background_clicked.npy"} <= names


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
    """A schema-1 log hashed its config another way: refused before any
    output is written, even where everything else matches."""
    cfg = _cfg(tmp_path, TINY)
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(sim)]) == 0
    log = sim / "shots.npz"
    with zipfile.ZipFile(log) as zf:
        members = {name: zf.read(name) for name in zf.namelist()}
    meta = json.loads(members["meta.json"])
    meta["schema"] = 1
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
    [["theory", "--seed", "1"], ["analyze", "--log", "shots.npz", "--jobs", "2"]],
    ids=["theory-seed", "analyze-jobs"],
)
def test_campaign_flags_only_on_campaign_commands(tmp_path, capsys, argv):
    """--seed and --jobs exist only where a campaign is drawn."""
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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
    ],
)
def test_bad_config_exits_2(tmp_path, capsys, text, msg):
    cfg = _cfg(tmp_path, text)
    rc = main(["theory", "--config", cfg, "--out", str(tmp_path / "x")])
    assert rc == 2
    assert msg in capsys.readouterr().err


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
    assert list(out.iterdir()) == []


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
