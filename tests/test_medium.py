import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from negdelay.errors import ConfigError
from negdelay.medium import (
    MediumSpec,
    conversion_factor,
    group_delay,
    lineshape,
    transfer_function,
)

GAMMA = 1.0 / 26e-9
DETUNING = -2.0 * math.pi * 20e6
SIGMA0 = 3.540632886280689e-4


def medium(**kw):
    base = dict(
        od=4.0,
        gamma=GAMMA,
        probe_detuning=DETUNING,
        sigma0_over_area=SIGMA0,
    )
    base.update(kw)
    return MediumSpec(**base)


def test_lineshape_resonance_and_half_width():
    assert lineshape(0.0, GAMMA) == 1.0 + 0.0j
    assert abs(lineshape(GAMMA / 2.0, GAMMA)) ** 2 == pytest.approx(0.5, rel=1e-12)
    assert abs(lineshape(-GAMMA / 2.0, GAMMA)) ** 2 == pytest.approx(0.5, rel=1e-12)


def test_lineshape_real_bounded_imag_signed():
    delta = np.linspace(-40.0 * GAMMA, 40.0 * GAMMA, 4001)
    line = lineshape(delta, GAMMA)
    assert np.all(line.real > 0.0)
    assert np.all(line.real <= 1.0)
    assert np.all(np.sign(line.imag) == np.sign(delta))


@pytest.mark.parametrize("od", [0.0, 0.5, 2.0, 4.0])
def test_resonant_transmission_is_beer_lambert(od):
    power = abs(transfer_function(0.0, od, GAMMA)) ** 2
    assert power == pytest.approx(math.exp(-od), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    delta=st.floats(-5.0 * GAMMA, 5.0 * GAMMA),
    od1=st.floats(0.0, 6.0),
    od2=st.floats(0.0, 6.0),
)
def test_transfer_depth_semigroup(delta, od1, od2):
    """Stacked depths multiply amplitudes and add phases at any detuning."""
    a = transfer_function(delta, od1, GAMMA)
    b = transfer_function(delta, od2, GAMMA)
    c = transfer_function(delta, od1 + od2, GAMMA)
    assert abs(c) == pytest.approx(abs(a) * abs(b), rel=1e-12)
    # per-factor phase magnitude is below (od/2) * max|Im L| = 1.5, no wrap
    assert np.angle(c) == pytest.approx(np.angle(a) + np.angle(b), abs=1e-12)


@pytest.mark.parametrize("delta", [0.0, 0.3 * GAMMA, -1.7 * GAMMA])
def test_group_delay_matches_finite_difference(delta):
    h = 1e-4 * GAMMA
    fd = (
        np.angle(transfer_function(delta + h, 4.0, GAMMA))
        - np.angle(transfer_function(delta - h, 4.0, GAMMA))
    ) / (2.0 * h)
    assert group_delay(delta, 4.0, GAMMA) == pytest.approx(fd, rel=1e-6)


def test_group_delay_resonant_value():
    """od 4 with a 26 ns lifetime pins the resonant group delay at -104 ns."""
    assert group_delay(0.0, 4.0, GAMMA) == pytest.approx(-104e-9, rel=1e-12)


def test_group_delay_sign_structure():
    assert group_delay(0.49 * GAMMA, 3.0, GAMMA) < 0.0
    assert group_delay(0.5 * GAMMA, 3.0, GAMMA) == 0.0
    assert group_delay(0.51 * GAMMA, 3.0, GAMMA) > 0.0
    assert group_delay(0.0, 3.0, GAMMA) == pytest.approx(-3.0 / GAMMA, rel=1e-12)


def test_conversion_factor_frozen_value():
    assert conversion_factor(medium()) == pytest.approx(
        -5.294367646376604e-05, rel=1e-13
    )


def test_conversion_factor_against_symbolic_form():
    """Independent symbolic route for C, plus the probe-at-minus-half-
    linewidth reduction C = -(sigma0/A)/2."""
    g, d, s = sympy.symbols("g d s", positive=True)
    expr = (2 / g) * (-d / (1 + (2 * d / g) ** 2)) * s  # detuning = -d
    num = expr.subs(
        {g: GAMMA, d: 2 * sympy.pi * 20e6, s: sympy.Float("3.540632886280689e-4")}
    )
    assert conversion_factor(medium()) == pytest.approx(float(num), rel=1e-12)
    reduced = expr.subs(d, g / 2)
    assert sympy.simplify(reduced + s / 2) == 0


def test_kramers_kronig_consistency():
    """Hilbert transform of the absorptive part reproduces the dispersive
    part to 1% inside |delta| <= 5 Gamma (wide-grid spot check)."""
    from scipy.signal import hilbert

    n = 1 << 18
    span = 600.0 * GAMMA
    delta = np.linspace(-span / 2.0, span / 2.0, n, endpoint=False)
    line = lineshape(delta, GAMMA)
    transformed = np.imag(hilbert(line.real))
    core = np.abs(delta) <= 5.0 * GAMMA
    dev = np.max(np.abs(transformed[core] - line.imag[core]))
    assert dev / np.max(np.abs(line.imag[core])) < 0.01


@pytest.mark.parametrize(
    "kw,msg",
    [
        (dict(od=-1.0), "optical depth"),
        (dict(gamma=0.0), "linewidth"),
        (dict(sigma0_over_area=0.0), "sigma0_over_area"),
        (dict(sigma0_over_area=1.5), "sigma0_over_area"),
        (dict(od=float("nan")), "optical depth"),
        (dict(gamma=float("nan")), "linewidth"),
        (dict(sigma0_over_area=float("nan")), "sigma0_over_area"),
        (dict(gamma=float("inf")), "linewidth must be finite"),
    ],
)
def test_medium_spec_validation(kw, msg):
    with pytest.raises(ConfigError, match=msg):
        medium(**kw)

