"""Numerical laboratory for photon excitation times in a resonant cloud.

Propagates pulses through a Lorentzian absorber, computes conditional
(post-selected) excitation traces two independent ways, simulates the
click/no-click cross-phase experiment shot by shot, and runs the full
statistical pipeline from raw shots to excitation-time ratios.
"""

__version__ = "0.5.0"

__all__ = ["__version__"]
