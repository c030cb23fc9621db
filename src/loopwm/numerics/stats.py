"""Gaussian log-densities and the central-difference gradient oracle."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .net import NetParams, clone_params
from .tensor import Tensor

LOG_2PI = math.log(2.0 * math.pi)


def gaussian_logpdf(x: Tensor, mean: Tensor, std: float) -> float:
    """Sum of elementwise normal log-densities with a shared scalar std."""
    x = np.asarray(x, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    if x.shape != mean.shape:
        raise ValueError(f"x shape {x.shape} does not match mean shape {mean.shape}")
    return float(gaussian_logpdf_rows(x.reshape(1, -1), mean.reshape(1, -1), std)[0])


def gaussian_logpdf_rows(x: Tensor, mean: Tensor, std: float) -> Tensor:
    """`gaussian_logpdf` of each row of the (n, L) arrays x and mean, shape (n,)."""
    if not std > 0.0:
        raise ValueError(f"std must be positive, got {std}")
    z = (x - mean) / std
    n = x.shape[1]
    return -0.5 * LOG_2PI * n - n * math.log(std) - 0.5 * np.sum(z * z, axis=1)


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
