"""The working dtype, the finiteness check each stage runs at entry, and log(2*pi).

The net's parameters, activations and gradients, the optimizer's moments and
the sampler's states are plain numpy arrays of `DTYPE`, float32. Float64 is
kept only where a sum or a threshold needs it: loss accumulation, transition
log-densities and their ratios, and the critic, which casts its frames up
before it scores them. Random streams draw float64 and are cast once, so a
seed gives the same draws whatever the working dtype. Each stage checks
its inputs once, with `require_finite`, so non-finite values surface as
errors at module boundaries instead of propagating NaNs into training loops;
the kernels inside (`net_activations`, `net_backward_batch`) check nothing.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import NumericError

Tensor = np.ndarray

# the dtype of every parameter, activation, gradient, moment and sampler state
DTYPE = np.float32

# the normalizer of Gaussian log-densities
LOG_2PI = math.log(2.0 * math.pi)


def require_finite(arr: Tensor, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{what} contains non-finite values")
