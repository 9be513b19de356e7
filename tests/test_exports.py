"""Public surface: every ``__all__`` entry resolves, and names and
fields that were removed from the package stay removed."""

import dataclasses
import importlib
import pkgutil

import negdelay
from negdelay.analysis import IntegralResult
from negdelay.excitation import ExcitationTrace
from negdelay.medium import MediumSpec
from negdelay.montecarlo import DetectionCalibration, PerPhotonShapes, ShotConfig
from negdelay.oracle import CollisionModel
from negdelay.pulse import PulseSpec

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
)

#: deleted fields and methods: stored or computed, but read by nothing
REMOVED_FIELDS = {
    DetectionCalibration: ("kappa", "target_click_prob"),
    MediumSpec: ("omega_probe", "omega_atom"),
    PulseSpec: ("mean_photons",),
    ShotConfig: ("window",),
    PerPhotonShapes: ("dt",),
    IntegralResult: ("window", "jacobian"),
    ExcitationTrace: ("axis", "t0"),
    CollisionModel: ("gamma_forward",),
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
    for cls, names in REMOVED_FIELDS.items():
        fields = {f.name for f in dataclasses.fields(cls)}
        for name in names:
            assert name not in fields and not hasattr(cls, name), (cls, name)
    # config's key table is the one place that knows the default shot
    assert all(
        f.default is dataclasses.MISSING for f in dataclasses.fields(ShotConfig)
    )
