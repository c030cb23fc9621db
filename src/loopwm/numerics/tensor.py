"""Dense float64 arrays, the finiteness check each stage runs at entry, and log(2*pi).

All numeric state in this package is plain numpy float64. Each stage checks
its inputs once, with `require_finite`, so non-finite values surface as
errors at module boundaries instead of propagating NaNs into training loops;
the kernels inside (`net_activations`, `net_backward_batch`) check nothing.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import NumericError

Tensor = np.ndarray

# the normalizer of Gaussian log-densities
LOG_2PI = math.log(2.0 * math.pi)


def require_finite(arr: Tensor, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{what} contains non-finite values")
