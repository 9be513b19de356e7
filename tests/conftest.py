"""Shared fixtures: one default configuration and its derived objects.

Everything heavy (collision-model trace, per-photon shapes) is computed
once per session; tests that need variations use dataclasses.replace on
the frozen specs.
"""

import pytest

from negdelay.config import default_config
from negdelay.montecarlo import calibrate_detection, derive_shapes
from negdelay.oracle import weak_excitation_trace
from negdelay.pulse import gaussian_field


@pytest.fixture(scope="session")
def run():
    return default_config()


@pytest.fixture(scope="session")
def fine_sig(run):
    return gaussian_field(run.pulse, run.medium.gamma)


@pytest.fixture(scope="session")
def weak(run, fine_sig):
    return weak_excitation_trace(fine_sig, run.medium, run.n_atoms)


@pytest.fixture(scope="session")
def shapes(run):
    return derive_shapes(run.medium, run.pulse, run.shot, run.n_atoms)


@pytest.fixture(scope="session")
def cal(run, shapes):
    return calibrate_detection(
        shapes.tbar,
        run.shot.mean_photons,
        run.shot.target_click_prob,
        run.shot.background_click_fraction,
    )
