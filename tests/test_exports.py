"""Public surface: every ``__all__`` entry resolves and has a caller in
the CLI pipeline or the acceptance gate, names and fields that were
removed from the package stay removed, ``pulse`` imports nothing from
``medium`` and alone holds the grid policy, every FFT in the package is
a real one, and no module imports a name it never uses."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import negdelay
from negdelay.analysis import Accumulator, IntegralResult, PostSelectedResult
from negdelay.config import RunConfig, ShotConfig
from negdelay.excitation import ExcitationReport
from negdelay.medium import MediumSpec
from negdelay.montecarlo import (
    CycleData,
    DetectionCalibration,
    PerPhotonShapes,
    derive_shapes,
    run_campaign,
    simulate_cycle,
)
from negdelay.oracle import build_model, weak_excitation_trace
from negdelay.pulse import PulseSpec, SampledSignal

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "negdelay"

MODULES = ["negdelay"] + [
    f"negdelay.{info.name}" for info in pkgutil.iter_modules(negdelay.__path__)
]

#: deleted public names: no CLI command or acceptance criterion used them
REMOVED = (
    "StarkParams",
    "scattering_probability",
    "ac_stark_shift",
    "single_photon_stark_phase",
    "transmitted_time_from_group_delay",
    "to_spectrum",
    "to_time",
    "propagate",
    "check_slab_convergence",
    "calibrate_phase_scale",
    "phi_integral_prediction",
    "mixed_partial_pair",
    "ShotRecord",
    "simulate_shot",
    "kappa_closed_form",
    "resonant_amplitude",
    "calibration_slope",
    "null_dataset",
    "dump_config",
    "GridError",
    "PostSelectionError",
    "propagate_error",
    "DEFAULT_SIGMA0_OVER_AREA",
    "CollisionModel",
    "fit_gaussian",
    "GaussianFit",
    "transmission_probability",
    "grid_frequencies",
    "mean_excitation_time",
    "transmitted_excitation_time",
    "excited_population",
    "ExcitationTrace",
    "fine_signal",
    "max_step",
)

#: the package root's former re-exports: each lives in its own module
ROOT_REEXPORTS = (
    "NegdelayError",
    "ConfigError",
    "ConvergenceError",
    "AnalysisError",
    "MediumSpec",
    "PulseSpec",
    "SampledSignal",
)

#: deleted fields and methods: stored or computed, but read by nothing
REMOVED_FIELDS = {
    DetectionCalibration: ("kappa", "target_click_prob"),
    MediumSpec: ("omega_probe", "omega_atom", "n_slabs"),
    PulseSpec: ("mean_photons",),
    ShotConfig: ("window",),
    PerPhotonShapes: ("dt", "all_transmitted", "zeroed"),
    PostSelectedResult: ("phi_C", "phi_NC", "n_cycles"),
    IntegralResult: ("window", "jacobian"),
    RunConfig: ("seed",),
    ExcitationReport: ("ratio",),
    CycleData: ("cycle",),
    # the field is stored once, as its real rows
    SampledSignal: ("samples",),
}


def test_all_resolves_and_removed_names_stay_gone():
    missing, stale = [], []
    for name in MODULES:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", ())
        missing += [f"{name}.{n}" for n in exported if not hasattr(module, n)]
        stale += [f"{name}.{n}" for n in REMOVED if hasattr(module, n)]
    assert missing == []
    assert stale == []
    assert negdelay.__all__ == ["__version__"]
    assert [n for n in ROOT_REEXPORTS if hasattr(negdelay, n)] == []
    for cls, names in REMOVED_FIELDS.items():
        fields = {f.name for f in dataclasses.fields(cls)}
        for name in names:
            assert name not in fields and not hasattr(cls, name), (cls, name)
    # the sampler always returns photon fates; the log writer picks
    for fn in (simulate_cycle, run_campaign):
        assert "truth" not in inspect.signature(fn).parameters, fn
    # a campaign yields its cycles in index order: they carry no label
    assert "cycle" not in inspect.signature(simulate_cycle).parameters
    # the benchmark's tracer reads these arguments by name
    assert "config" in inspect.signature(simulate_cycle).parameters
    assert {"sig", "n_atoms"} <= set(
        inspect.signature(weak_excitation_trace).parameters
    )
    # a campaign picks its own fan-out, and its cycles reach one
    # accumulator in index order
    assert "jobs" not in inspect.signature(run_campaign).parameters
    assert not hasattr(Accumulator, "merge")
    # a record takes no quantity that an identity fixes: the scattered
    # shape is solved from the other two
    assert "phi_S1" not in inspect.signature(PerPhotonShapes).parameters
    # config's key table is the one place that knows the default shot
    # and the default emitter count
    assert all(
        f.default is dataclasses.MISSING for f in dataclasses.fields(ShotConfig)
    )
    for fn in (build_model, weak_excitation_trace, derive_shapes):
        param = inspect.signature(fn).parameters["n_atoms"]
        assert param.default is inspect.Parameter.empty, fn


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _named(tree):
    """Every identifier a module names: bare, as an attribute, imported."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _from_root(tree):
    """Names a module imports from the package root itself."""
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module, node.level) in ((None, 1), ("negdelay", 0))
        for alias in node.names
    }


def _script_targets():
    """(module, attribute) of each ``[project.scripts]`` entry point."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r'"([\w.]+):(\w+)"', section))


def test_every_export_has_a_pipeline_caller():
    # a caller is another module of the package (the root's re-exports
    # call nothing), the acceptance gate, or a console-script entry point
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    gate = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text("utf-8"))
    modules = {m: t for m, t in trees.items() if m != "__init__"}
    scripts = _script_targets()
    orphans = []
    for name, tree in trees.items():
        if name == "__init__":
            callers = _from_root(gate).union(*map(_from_root, modules.values()))
        else:
            callers = _named(gate).union(
                *(_named(t) for m, t in modules.items() if m != name)
            )
            callers |= {a for m, a in scripts if m == f"negdelay.{name}"}
        orphans += [f"{name}.{n}" for n in _exports(tree) if n not in callers]
    assert not orphans, f"exported with no pipeline or gate caller: {orphans}"


def test_pulse_grids_do_not_import_the_medium():
    # the spectral route (T, tau_0, tau_T) lives in excitation; pulse
    # only builds grids
    tree = ast.parse((SRC / "pulse.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = "negdelay" if node.level else None
            imported.update(
                ".".join(filter(None, (package, node.module, alias.name)))
                for alias in node.names
            )
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not [m for m in imported if m.startswith("negdelay.medium")]


#: the fine-grid policy's constants, and the modules allowed to name each
GRID_POLICY = {
    "LEAD_SIGMAS": {"pulse"},
    "TAIL_LIFETIMES": {"pulse"},
    "MAX_GRID_POINTS": {"pulse"},
    "STEP_SIGMA_FRACTION": {"pulse"},
    # the collision model refuses a coarser step on any grid
    "STEP_LIFETIME_FRACTION": {"pulse", "oracle"},
}


def test_grid_policy_lives_in_pulse():
    # gaussian_field works out every pulse grid; no other module knows
    # its span, step ceilings or size ceiling
    strays = []
    for path in sorted(SRC.glob("*.py")):
        named = _named(ast.parse(path.read_text(encoding="utf-8")))
        strays += [
            f"{path.stem}.{name}"
            for name, owners in GRID_POLICY.items()
            if name in named and path.stem not in owners
        ]
    assert strays == []


def test_no_module_imports_an_unused_name():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used.update(_exports(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.stem}: {bound}")
    assert unused == []


#: the real transforms on one convention, delta = -2 pi rfftfreq: the
#: field is stored as real rows, so no route needs a complex transform
REAL_FFTS = {"rfft", "irfft", "rfftfreq"}


def test_every_fft_in_src_is_real():
    strays = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and (
                getattr(node.value, "attr", None) == "fft"
            ):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy.fft":
                names = [alias.name for alias in node.names]
            else:
                continue
            strays += [
                f"{path.stem}:{node.lineno} {n}" for n in names if n not in REAL_FFTS
            ]
    assert strays == []
