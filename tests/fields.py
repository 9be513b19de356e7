"""The complex field of a ``SampledSignal``, for the test references
that transform it whole: its real row plus i times its imaginary row,
when it has one."""

import numpy as np


def complex_field(sig) -> np.ndarray:
    field = sig.parts[0].astype(np.complex128)
    if len(sig.parts) == 2:
        field.imag = sig.parts[1]
    return field
