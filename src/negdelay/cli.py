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
import math
import os
import sys
import zipfile
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
from numpy.lib import format as npy

from . import __version__
from .analysis import (
    accumulate,
    class_sums,
    integral_with_error,
    integration_window,
    ratio_estimate,
)
from .errors import AnalysisError, ConfigError, NegdelayError
from .excitation import phi0_trace, spectral_report
from .medium import conversion_factor
from .montecarlo import (
    MODES,
    CycleData,
    calibrate_detection,
    derive_shapes,
    run_campaign,
)
from .config import SCHEMA_VERSION, RunConfig, default_config, load_config
from .oracle import weak_excitation_trace
from .pulse import gaussian_field

__all__ = ["main"]

_TRUTH_ARRAYS = ("n_transmitted", "n_scattered", "background_clicked")
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


@contextmanager
def _output(path: Path, mode: str):
    """``path`` opened in ``mode`` for writing, as a hidden ``.part``
    sibling renamed onto ``path`` only when the block completes: every
    output appears whole or not at all. The output directory is made
    here, at the first write, so a run refused before it leaves none."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path.parent}: {exc}") from None
    part = path.with_name(f".{path.name}.part")
    try:
        with part.open(mode) as f:
            yield f
        os.replace(part, path)
    finally:
        part.unlink(missing_ok=True)


#: rows of a float matrix that ``_write_csv`` formats at a time
_CSV_BLOCK = 1024


def _write_csv(path: Path, run: RunConfig, seed, columns, rows) -> None:
    """Header lines, then the rows as they are formatted: a float matrix
    a block of rows at a time, other rows one by one."""
    lines = [
        f"# negdelay schema={SCHEMA_VERSION} version={__version__}",
        f"# config_hash={run.config_hash}"
        + (f" seed={seed}" if seed is not None else ""),
        ",".join(columns),
    ]
    with _output(path, "w") as f:
        f.write("\n".join(lines) + "\n")
        if not isinstance(rows, np.ndarray):
            f.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)
            return
        for start in range(0, len(rows), _CSV_BLOCK):
            # a float matrix, cell by cell as _fmt writes a float: reprs
            # in row order, grouped into rows of rows.shape[1]
            block = rows[start : start + _CSV_BLOCK]
            cells = map(float.__repr__, block.ravel().tolist())
            lines = map(",".join, zip(*[cells] * rows.shape[1]))
            f.write("\n".join(lines) + "\n")


def _npy_member(name: str, dtype, shape) -> tuple[bytes, zipfile.ZipInfo]:
    """The header of a C-order ``.npy`` array and a stored, zero-dated
    ZipInfo sized for header plus data, so a member streamed into
    ``open(info, "w")`` gets the local header ``writestr`` would give."""
    dtype, header = np.dtype(dtype), io.BytesIO()
    descr = npy.dtype_to_descr(dtype)
    npy.write_array_header_1_0(
        header, {"descr": descr, "fortran_order": False, "shape": shape}
    )
    info = zipfile.ZipInfo(name, date_time=_ZIP_EPOCH)
    info.file_size = header.tell() + dtype.itemsize * math.prod(shape)
    return header.getvalue(), info


def _write_log(path: Path, run: RunConfig, seed, cycles, truth: bool) -> None:
    """Shot log: a zip of stored .npy members with zeroed timestamps, so
    the same data always produces the same bytes.

    Traces are written as each cycle arrives; only the per-shot click
    flags, and with ``truth`` the photon fates (``_TRUTH_ARRAYS``), are
    held as rows until the campaign ends.
    """
    shape = (run.n_cycles, run.shot.shots_per_cycle, run.shot.n_samples)
    per_shot = {
        name: [] for name in ("clicked",) + (_TRUTH_ARRAYS if truth else ())
    }
    meta = {
        "schema": SCHEMA_VERSION,
        "version": __version__,
        "config_hash": run.config_hash,
        "seed": seed,
        # only simulate writes a log, and it draws normal-mode cycles
        "mode": "normal",
        "n_cycles": run.n_cycles,
    }
    with _output(path, "wb") as f, zipfile.ZipFile(f, "w") as zf:
        header, info = _npy_member("traces.npy", np.float64, shape)
        with zf.open(info, "w") as fh:
            fh.write(header)
            for cycle in cycles:
                fh.write(np.ascontiguousarray(cycle.traces, np.float64))
                for name, rows in per_shot.items():
                    rows.append(getattr(cycle, name))
        for name, rows in per_shot.items():
            header, info = _npy_member(f"{name}.npy", rows[0].dtype, shape[:2])
            with zf.open(info, "w") as fh:
                fh.write(header)
                fh.writelines(rows)
        zf.writestr(
            zipfile.ZipInfo("meta.json", date_time=_ZIP_EPOCH),
            json.dumps(meta, sort_keys=True, indent=1),
        )


@contextmanager
def _read_log(path: Path, run: RunConfig):
    """Check a shot log against ``run`` and yield its meta and its cycles,
    streamed one at a time from ``traces.npy`` and ``clicked.npy`` and
    reduced to their class sums."""

    def unreadable(exc) -> ConfigError:
        return ConfigError(f"cannot read shot log {path}: {exc}")

    with ExitStack() as stack:
        try:
            zf = stack.enter_context(zipfile.ZipFile(path))
            # the writer only stores: another codec or encryption is refused
            for info in zf.infolist():
                if info.compress_type != zipfile.ZIP_STORED or info.flag_bits & 1:
                    raise ValueError(f"{info.filename} is not a plain stored member")
            meta = json.loads(zf.read("meta.json"))
            if not isinstance(meta, dict):
                raise ValueError("meta.json does not hold an object")
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
            # both CSV headers carry the seed: hold it to the --seed rule
            seed = meta.get("seed")
            if type(seed) is not int or seed < 0:
                raise ValueError(f"meta.json seed {seed!r} is not an integer >= 0")
            # the config hash covers campaign.n_cycles: a log of another
            # length is not the run that hash names
            shape = (run.n_cycles, run.shot.shots_per_cycle, run.shot.n_samples)
            members = []
            for name, dtype, want in (
                ("traces.npy", np.dtype(np.float64), shape),
                ("clicked.npy", np.dtype(np.bool_), shape[:2]),
            ):
                # the header the writer makes for this config, compared
                # byte for byte, so damage never reaches numpy's header
                # parser; a member of exactly the writer's length is read
                # to its end, where its CRC is checked
                header, info = _npy_member(name, dtype, want)
                fh = stack.enter_context(zf.open(name))
                if (fh.read(len(header)), zf.getinfo(name).file_size) != (
                    header, info.file_size
                ):
                    raise ValueError(f"{name} is not this config's {want} {dtype} array")
                members.append((fh, dtype, want[1:]))
        # zipfile raises NotImplementedError, a RuntimeError, for flag
        # bits 5 and 6 (patched data, strong encryption)
        except (OSError, KeyError, ValueError, RuntimeError, zipfile.BadZipFile) as exc:
            raise unreadable(exc) from None

        def cycles():
            try:
                for i in range(run.n_cycles):
                    traces, clicked = (
                        np.frombuffer(src.read(dt.itemsize * math.prod(row)), dt)
                        .reshape(row) for src, dt, row in members
                    )
                    if not np.isfinite(traces).all():
                        raise unreadable(
                            f"cycle {i} of traces.npy holds a non-finite value"
                        )
                    yield CycleData(clicked, *class_sums(traces, clicked))
            except zipfile.BadZipFile as exc:
                # a damaged member fails its CRC only once fully read
                raise unreadable(exc) from None

        yield meta, cycles()


def _campaign(run: RunConfig, seed: int, **kwargs):
    """Per-photon shapes and the campaign of ``seed`` drawn with them;
    ``kwargs`` go to ``run_campaign``."""
    shapes = derive_shapes(run.medium, run.pulse, run.shot, n_atoms=run.n_atoms)
    cal = calibrate_detection(
        shapes.tbar,
        run.shot.mean_photons,
        run.shot.target_click_prob,
        run.shot.background_click_fraction,
    )
    return shapes, run_campaign(seed, run.n_cycles, shapes, run.shot, cal, **kwargs)


def _evaluate(medium, pulse, n_atoms: int):
    """Both routes to tau_T at one operating point.

    Returns the fine signal, the collision-model trace and five summary
    numbers: tau_0, spectral tau_T and oracle tau_T in ns, then both
    ratios to tau_0, which read "NA" in a transparent medium, where no
    photon is ever excited.
    """
    sig = gaussian_field(pulse, medium.gamma)
    rep = spectral_report(sig, medium)
    weak = weak_excitation_trace(sig, medium, n_atoms=n_atoms)
    tau_t_oracle = weak.tau_transmitted()
    if rep.tau_0 != 0.0:
        ratios = (rep.tau_T / rep.tau_0, tau_t_oracle / rep.tau_0)
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
        np.column_stack((sig.axis() * 1e9, phi0_trace(sig, run.medium) * 1e6)),
    )
    _write_csv(
        out / "phiT_theory.csv",
        run,
        None,
        ("t_ns", "phi_urad"),
        np.column_stack(
            (weak.axis() * 1e9, conversion_factor(run.medium) * weak.weak * 1e6)
        ),
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
    _, cycles = _campaign(run, args.seed, traces=True)
    _write_log(out / "shots.npz", run, args.seed, cycles, args.truth)
    return 0


def _analyze_cycles(
    run: RunConfig, shapes, cycles, out: Path, seed, gate: bool
) -> int:
    window = integration_window(shapes.phi_T1, run.window_fraction)
    centers = run.shot.sample_times() * 1e9
    if window[0] == window[1]:
        # a one-sample trapezoid has zero width: the ratio would read 0 +- 0
        raise AnalysisError(
            f"the integration window is one bin, at {centers[window[0]]:g} ns: "
            "narrow shot.dt_ns or lower analysis.window_fraction"
        )
    result = accumulate(cycles)
    integral = integral_with_error(
        result.phi_T, result.cov, window, run.shot.dt
    )
    ratio, sigma = ratio_estimate(integral, shapes.phi_01, run.shot.dt)
    if result.n_skipped:
        print(
            f"note: skipped {result.n_skipped} of {run.n_cycles} cycles with "
            "an empty click or no-click class",
            file=sys.stderr,
        )
    _write_csv(
        out / "phiT_measured.csv",
        run,
        seed,
        ("t_ns", "phi_urad", "sigma_urad"),
        np.column_stack(
            (centers, result.phi_T * 1e6, np.sqrt(np.diag(result.cov)) * 1e6)
        ),
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
        shapes = derive_shapes(run.medium, run.pulse, run.shot, run.n_atoms)
        # a damaged sample can be finite yet overflow the statistics
        # before its member's CRC fails at the end
        try:
            with np.errstate(over="raise", invalid="raise"):
                return _analyze_cycles(
                    run, shapes, cycles, out, meta["seed"], gate=False
                )
        except FloatingPointError as exc:
            raise ConfigError(f"cannot read shot log {args.log}: {exc}") from None


def _cmd_nullcheck(run: RunConfig, out: Path, args) -> int:
    shapes, cycles = _campaign(run, args.seed, mode=args.kind)
    return _analyze_cycles(run, shapes, cycles, out, args.seed, gate=True)


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


def _seed(raw: str) -> int:
    """argparse type of ``--seed``: an integer of at least 0."""
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


_seed.__name__ = "int"  # argparse names it in "invalid int value"


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
            p.add_argument("--seed", type=_seed, default=0)
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
        return _COMMANDS[args.command](run, Path(args.out), args)
    except NegdelayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
