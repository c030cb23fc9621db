"""log(2*pi) for Gaussian densities, and the central-difference gradient oracle."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .net import NetParams, clone_params
from .tensor import Tensor

LOG_2PI = math.log(2.0 * math.pi)


def finite_diff_grad(
    fn: Callable[[NetParams], float], params: NetParams, h: float = 1e-5
) -> Tensor:
    """Central differences of a scalar objective over every parameter coordinate.

    Independent oracle for `net_backward_batch`-derived gradients; keep it free of
    any analytic-gradient code. Returns one vector in the layout of
    `params.vector`. O(2 * n_params) objective evaluations, so use small nets
    in tests.
    """
    if h <= 0:
        raise ValueError("step size h must be positive")
    work = clone_params(params)
    flat = work.vector
    grad = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = fn(work)
        flat[i] = orig - h
        f_minus = fn(work)
        flat[i] = orig
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad
