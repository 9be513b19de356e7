"""Linear response of a resonant two-level medium.

A cloud of two-level atoms with natural linewidth ``gamma`` (angular,
rad/s) and resonant optical depth ``od`` acts on a weak field detuned by
``delta`` from resonance through the complex Lorentzian lineshape

    L(delta) = 1 / (1 - 2i*delta/gamma)

and the Beer-Lambert amplitude transfer function

    t(delta) = exp(-(od/2) * L(delta))

so that resonant power transmission is exp(-od). The group delay is the
detuning derivative of the transmission phase; on resonance it is
-od/gamma, i.e. negative and proportional to optical depth.

Also collected here: the probe-based phase conversion. A red-detuned probe
acquires phase in proportion to the instantaneous excited-atom number,
phi(t) = C * N_e(t), with

    C = (2/gamma) * (Delta / (1 + (2*Delta/gamma)^2)) * (sigma0/A)

where Delta is the probe detuning and sigma0/A the ratio of the resonant
atomic cross-section to the probe beam area. All frequencies in this
module are angular (rad/s); times are seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = ["MediumSpec", "transfer_function", "group_delay", "conversion_factor"]


@dataclass(frozen=True)
class MediumSpec:
    """Static parameters of the atomic cloud and probe geometry.

    od: resonant optical depth, >= 0
    gamma: natural linewidth, angular rad/s, finite and > 0
    probe_detuning: probe detuning Delta from atomic resonance, rad/s
    sigma0_over_area: resonant cross-section over probe area, in (0, 1]
    """

    od: float
    gamma: float
    probe_detuning: float
    sigma0_over_area: float

    def __post_init__(self):
        if not self.od >= 0.0:
            raise ConfigError(f"optical depth must be >= 0, got {self.od}")
        if not self.gamma > 0.0:
            raise ConfigError(f"linewidth must be > 0, got {self.gamma}")
        if not math.isfinite(self.gamma):
            raise ConfigError(f"linewidth must be finite, got {self.gamma}")
        if not 0.0 < self.sigma0_over_area <= 1.0:
            raise ConfigError(
                "sigma0_over_area must lie in (0, 1], got "
                f"{self.sigma0_over_area}"
            )


def lineshape(delta, gamma: float):
    """Complex Lorentzian L(delta) = 1/(1 - 2i delta/gamma).

    L(0) = 1; Re L is the absorption profile, Im L the dispersive part.
    """
    return 1.0 / (1.0 - 2j * np.asarray(delta) / gamma)


def transfer_function(delta, od: float, gamma: float):
    """Amplitude transfer t(delta) = exp(-(od/2) L(delta)).

    Depth is multiplicative: t(od1) * t(od2) = t(od1 + od2) at every
    detuning, and |t(0)|^2 = exp(-od).
    """
    return np.exp(-(od / 2.0) * lineshape(delta, gamma))


def group_delay(delta, od: float, gamma: float):
    """Group delay d(arg t)/d(delta) of the medium, in seconds.

    Closed form with x = 2 delta/gamma:

        tau_g(delta) = -(od/gamma) * (1 - x^2) / (1 + x^2)^2

    Negative inside |delta| < gamma/2 (down to -od/gamma on resonance),
    zero at |delta| = gamma/2, positive in the wings.
    """
    x = 2.0 * np.asarray(delta) / gamma
    x2 = x * x
    return -(od / gamma) * (1.0 - x2) / (1.0 + x2) ** 2


def conversion_factor(medium: MediumSpec) -> float:
    """Phase per integrated unit of excited-atom time, C (radians).

    The probe phase tracks the excited population as phi(t) = C * N_e(t)
    with

        C = (2/gamma) * Delta/(1 + (2 Delta/gamma)^2) * (sigma0/A)

    so integral(phi dt) = C * integral(N_e dt). At Delta = -gamma/2 this
    reduces to C = -(sigma0/A)/2. Sign follows the probe detuning.
    """
    x = 2.0 * medium.probe_detuning / medium.gamma
    return (
        (2.0 / medium.gamma)
        * (medium.probe_detuning / (1.0 + x * x))
        * medium.sigma0_over_area
    )
