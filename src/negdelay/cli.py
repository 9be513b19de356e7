"""Command-line front end.

Subcommands: theory (response curves and excitation-time summary),
simulate (shot-log generation), analyze (post-selection pipeline on a
log), nullcheck (systematics datasets plus the 2-sigma gate), sweep
(duration x depth tables). All outputs are CSV or a deterministic
zip-of-npy shot log; every file carries the schema version and the
config hash, and repeated runs are byte-identical for a fixed (config,
seed, package version).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import zipfile
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    accumulate,
    integral_with_error,
    integration_window,
    ratio_estimate,
)
from .errors import AnalysisError, ConfigError, ConvergenceError, NegdelayError
from .excitation import phi0_trace, spectral_report
from .medium import conversion_factor
from .montecarlo import (
    MODES,
    CycleData,
    calibrate_detection,
    derive_shapes,
    fine_signal,
    run_campaign,
)
from .config import SCHEMA_VERSION, RunConfig, default_config, load_config
from .oracle import weak_excitation_trace

__all__ = ["main"]

_TRUTH_ARRAYS = ("n_transmitted", "n_scattered", "background_clicked")


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, run: RunConfig, seed, columns, rows) -> None:
    lines = [
        f"# negdelay schema={SCHEMA_VERSION} version={__version__}",
        f"# config_hash={run.config_hash}"
        + (f" seed={seed}" if seed is not None else ""),
        ",".join(columns),
    ]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _log_member(name: str) -> zipfile.ZipInfo:
    return zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))


def _write_log(
    path: Path, run: RunConfig, seed, mode, cycles, truth: bool
) -> None:
    """Shot log: a zip of stored .npy members with zeroed timestamps, so
    the same data always produces the same bytes.

    Each cycle's traces go into ``traces.npy`` as the cycle arrives, after
    a header for the known shape; only the per-shot vectors are held until
    the end. The log is built under a temporary name and renamed into
    place only once complete, so a failed campaign leaves no log.
    """
    shape = (run.n_cycles, run.shot.shots_per_cycle, run.shot.n_samples)
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": "<f8", "fortran_order": False, "shape": shape}
    )
    traces = _log_member("traces.npy")
    # sized up front, so the local header and the zip64 choice match a
    # member written whole
    traces.file_size = header.tell() + 8 * int(np.prod(shape))
    per_shot = {
        name: [] for name in ("clicked",) + (_TRUTH_ARRAYS if truth else ())
    }
    meta = {
        "schema": SCHEMA_VERSION,
        "version": __version__,
        "config_hash": run.config_hash,
        "seed": seed,
        "mode": mode,
        "n_cycles": run.n_cycles,
    }
    part = path.with_name(f".{path.name}.part")
    try:
        with zipfile.ZipFile(part, "w") as zf:
            with zf.open(traces, "w") as fh:
                fh.write(header.getvalue())
                for cycle in cycles:
                    fh.write(np.ascontiguousarray(cycle.traces, np.float64))
                    for name, rows in per_shot.items():
                        rows.append(getattr(cycle, name))
            for name, rows in per_shot.items():
                buf = io.BytesIO()
                np.save(buf, np.stack(rows))
                zf.writestr(_log_member(f"{name}.npy"), buf.getvalue())
            zf.writestr(
                _log_member("meta.json"),
                json.dumps(meta, sort_keys=True, indent=1),
            )
        os.replace(part, path)
    finally:
        part.unlink(missing_ok=True)


@contextmanager
def _read_log(path: Path, run: RunConfig):
    """Check a shot log against ``run`` and yield its meta and its cycles.

    The cycles are read one at a time from the stored ``traces.npy``
    member, so only one cycle's traces are held at once.
    """

    def unreadable(exc) -> ConfigError:
        return ConfigError(f"cannot read shot log {path}: {exc}")

    with ExitStack() as stack:
        try:
            zf = stack.enter_context(zipfile.ZipFile(path))
            meta = json.loads(zf.read("meta.json"))
            clicked = np.load(io.BytesIO(zf.read("clicked.npy")))
            fh = stack.enter_context(zf.open("traces.npy"))
            np.lib.format.read_magic(fh)
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
        except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
            raise unreadable(exc) from None
        if meta.get("schema") != SCHEMA_VERSION:
            raise ConfigError(
                f"shot log schema {meta.get('schema')} does not match "
                f"this package's schema {SCHEMA_VERSION}"
            )
        if meta.get("config_hash") != run.config_hash:
            raise ConfigError(
                "shot log was produced with config hash "
                f"{meta.get('config_hash')}, current config is {run.config_hash}"
            )
        expected = (
            meta.get("n_cycles"),
            run.shot.shots_per_cycle,
            run.shot.n_samples,
        )
        row_bytes = 8 * run.shot.shots_per_cycle * run.shot.n_samples
        # a member of exactly the declared length is read to its end,
        # where its CRC is checked
        data_bytes = zf.getinfo("traces.npy").file_size - fh.tell()
        if (
            shape != expected
            or clicked.shape != expected[:2]
            or dtype != np.float64
            or fortran_order
            or data_bytes != row_bytes * shape[0]
        ):
            raise unreadable(
                f"traces.npy holds {shape} {dtype} in {data_bytes} bytes, "
                f"clicked.npy {clicked.shape}; expected {expected} float64"
            )

        def cycles():
            try:
                for i, flags in enumerate(clicked):
                    rows = np.frombuffer(fh.read(row_bytes), np.float64)
                    yield CycleData(i, rows.reshape(shape[1:]), flags)
            except zipfile.BadZipFile as exc:
                # a damaged member fails its CRC only once fully read
                raise unreadable(exc) from None

        yield meta, cycles()


def _prepare(run: RunConfig):
    """Per-photon shapes and the detection calibration of a campaign."""
    shapes = derive_shapes(run.medium, run.pulse, run.shot, n_atoms=run.n_atoms)
    cal = calibrate_detection(
        shapes.tbar,
        run.shot.mean_photons,
        run.shot.target_click_prob,
        run.shot.background_click_fraction,
    )
    return shapes, cal


def _evaluate(medium, pulse, n_atoms: int):
    """Both routes to tau_T at one operating point.

    Returns the fine signal, the collision-model trace and five summary
    numbers: tau_0, spectral tau_T and oracle tau_T in ns, then both
    ratios to tau_0, which read "NA" in a transparent medium, where no
    photon is ever excited.
    """
    sig = fine_signal(medium, pulse)
    rep = spectral_report(sig, medium)
    weak = weak_excitation_trace(sig, medium, n_atoms=n_atoms)
    tau_t_oracle = weak.tau_transmitted()
    if rep.tau_0 != 0.0:
        ratios = (rep.ratio, tau_t_oracle / rep.tau_0)
    else:
        ratios = ("NA", "NA")
    summary = (rep.tau_0 * 1e9, rep.tau_T * 1e9, tau_t_oracle * 1e9, *ratios)
    return sig, weak, summary


def _cmd_theory(run: RunConfig, out: Path, args) -> int:
    sig, weak, summary = _evaluate(run.medium, run.pulse, run.n_atoms)
    tau_0, tau_spectral, tau_oracle, ratio_spectral, ratio_oracle = summary
    _write_csv(
        out / "phi0_theory.csv",
        run,
        None,
        ("t_ns", "phi_urad"),
        zip(sig.axis() * 1e9, phi0_trace(sig, run.medium) * 1e6),
    )
    _write_csv(
        out / "phiT_theory.csv",
        run,
        None,
        ("t_ns", "phi_urad"),
        zip(weak.axis() * 1e9, conversion_factor(run.medium) * weak.weak * 1e6),
    )
    _write_csv(
        out / "summary.csv",
        run,
        None,
        ("tau0_ns", "tauT_ns", "ratio", "method"),
        [
            (tau_0, tau_spectral, ratio_spectral, "spectral"),
            (tau_0, tau_oracle, ratio_oracle, "oracle"),
        ],
    )
    return 0


def _cmd_simulate(run: RunConfig, out: Path, args) -> int:
    seed = run.seed if args.seed is None else args.seed
    shapes, cal = _prepare(run)
    cycles = run_campaign(
        seed,
        run.n_cycles,
        shapes,
        run.shot,
        cal,
        jobs=args.jobs,
        truth=args.truth,
    )
    _write_log(out / "shots.npz", run, seed, "normal", cycles, args.truth)
    return 0


def _analyze_cycles(
    run: RunConfig, shapes, cycles, out: Path, seed, gate: bool
) -> int:
    result = accumulate(cycles)
    window = integration_window(shapes.phi_T1, run.window_fraction)
    integral = integral_with_error(
        result.phi_T, result.cov, window, run.shot.dt
    )
    ratio, sigma = ratio_estimate(integral, shapes.phi_01, run.shot.dt)
    centers = run.shot.sample_times() * 1e9
    _write_csv(
        out / "phiT_measured.csv",
        run,
        seed,
        ("t_ns", "phi_urad", "sigma_urad"),
        zip(centers, result.phi_T * 1e6, np.sqrt(np.diag(result.cov)) * 1e6),
    )
    columns = [
        "ratio",
        "sigma",
        "window_lo_ns",
        "window_hi_ns",
        "n_click",
        "n_noclick",
    ]
    row = [
        ratio,
        sigma,
        centers[window[0]],
        centers[window[1]],
        result.n_click,
        result.n_noclick,
    ]
    if gate:
        columns.append("pass")
        row.append(abs(ratio) < 2.0 * sigma)
    _write_csv(out / "ratio.csv", run, seed, columns, [row])
    return 0


def _cmd_analyze(run: RunConfig, out: Path, args) -> int:
    with _read_log(Path(args.log), run) as (meta, cycles):
        shapes, _ = _prepare(run)
        return _analyze_cycles(
            run, shapes, cycles, out, meta.get("seed"), gate=False
        )


def _cmd_nullcheck(run: RunConfig, out: Path, args) -> int:
    seed = run.seed if args.seed is None else args.seed
    shapes, cal = _prepare(run)
    cycles = run_campaign(
        seed,
        run.n_cycles,
        shapes,
        run.shot,
        cal,
        mode=args.kind,
        jobs=args.jobs,
    )
    return _analyze_cycles(run, shapes, cycles, out, seed, gate=True)


def _cmd_sweep(run: RunConfig, out: Path, args) -> int:
    rows = []
    for sigma_ns in run.sweep_sigmas:
        for od in run.sweep_ods:
            _, weak, summary = _evaluate(
                replace(run.medium, od=od),
                replace(run.pulse, sigma_rms=sigma_ns * 1e-9),
                run.n_atoms,
            )
            rows.append((sigma_ns, od, weak.transmission, *summary))
    _write_csv(
        out / "sweep.csv",
        run,
        None,
        (
            "sigma_rms_ns",
            "od",
            "tbar",
            "tau0_ns",
            "tauT_spectral_ns",
            "tauT_oracle_ns",
            "ratio_spectral",
            "ratio_oracle",
        ),
        rows,
    )
    return 0


_COMMANDS = {
    "theory": _cmd_theory,
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "nullcheck": _cmd_nullcheck,
    "sweep": _cmd_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negdelay",
        description="Dispersive-medium excitation-time laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key-value config file")
        p.add_argument("--out", required=True, help="output directory")
        if name in ("simulate", "nullcheck"):
            p.add_argument("--seed", type=int, default=None)
            p.add_argument(
                "--jobs",
                type=int,
                default=None,
                help="threads drawing cycles (default: every usable CPU; "
                "output does not depend on it)",
            )
        if name == "simulate":
            p.add_argument(
                "--truth",
                action="store_true",
                help="persist per-shot photon-fate metadata",
            )
        if name == "analyze":
            p.add_argument("--log", required=True, help="shot log from simulate")
        if name == "nullcheck":
            p.add_argument(
                "--kind",
                required=True,
                choices=[m for m in MODES if m != "normal"],
            )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        run = load_config(args.config) if args.config else default_config()
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](run, out, args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NegdelayError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
