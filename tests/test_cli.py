"""Command-line pipeline: output formats, determinism and exit codes."""

import zipfile

import pytest

from negdelay import __version__
from negdelay.cli import main

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
    assert lines[0] == f"# negdelay schema=1 version={__version__}"
    assert lines[1].startswith("# config_hash=")
    if hash_ is not None:
        assert f"config_hash={hash_}" in lines[1]
    return lines


def test_theory_outputs_and_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["theory", "--out", str(a)]) == 0
    assert main(["theory", "--out", str(b)]) == 0
    for name in ("phi0_theory.csv", "phiT_theory.csv", "summary.csv"):
        lines = _check_header(a / name, hash_="da103f89373a")
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
