"""Dense float64 arrays and the few checks every public op runs.

All numeric state in this package is plain numpy float64. The helpers here
exist so shape and finiteness violations surface as errors at module
boundaries instead of propagating NaNs into training loops.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import NumericError

Tensor = np.ndarray


def tensor(data, shape: Sequence[int] | None = None) -> Tensor:
    """Build a float64 array, optionally reshaped, and verify it is finite."""
    arr = np.asarray(data, dtype=np.float64)
    if shape is not None:
        arr = arr.reshape(tuple(shape))
    require_finite(arr, "tensor")
    return arr


def zeros(shape: Sequence[int] | int) -> Tensor:
    return np.zeros(shape, dtype=np.float64)


def require_finite(arr: Tensor, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{what} contains non-finite values")
