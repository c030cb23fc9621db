"""Adaptive-moment gradient descent (Adam with bias correction).

`opt_step` works in place: it updates the parameter arrays and the moment
estimates it is given and returns nothing. Gradients follow the
`params_as_list` ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .net import NetParams, params_as_list
from .tensor import Tensor

DEFAULT_BETA1 = 0.9
DEFAULT_BETA2 = 0.999
DEFAULT_EPS = 1e-8


@dataclass
class OptState:
    """First/second moment estimates per parameter array plus a step counter."""

    m: list[Tensor]
    v: list[Tensor]
    step: int = 0


def opt_init(params: NetParams) -> OptState:
    flat = params_as_list(params)
    return OptState([np.zeros_like(a) for a in flat], [np.zeros_like(a) for a in flat], 0)


def opt_step(
    params: NetParams,
    grads: list[Tensor],
    state: OptState,
    lr: float,
    beta1: float = DEFAULT_BETA1,
    beta2: float = DEFAULT_BETA2,
    eps: float = DEFAULT_EPS,
) -> None:
    """One descent step along `grads`, in place; pass the negated gradient to ascend."""
    flat = params_as_list(params)
    if len(grads) != len(flat):
        raise ValueError(f"got {len(grads)} gradient arrays, expected {len(flat)}")
    for p, g in zip(flat, grads):
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
    state.step += 1
    t = state.step
    for p, g, m, v in zip(flat, grads, state.m, state.v):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
