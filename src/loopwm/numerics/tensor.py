"""Dense float64 arrays and the few checks every public op runs.

All numeric state in this package is plain numpy float64. The helpers here
exist so shape and finiteness violations surface as errors at module
boundaries instead of propagating NaNs into training loops.
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericError

Tensor = np.ndarray


def require_finite(arr: Tensor, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{what} contains non-finite values")
