"""Adaptive-moment gradient descent (Adam with bias correction).

`opt_step` works in place: it updates the parameter vector and the moment
estimates it is given and returns nothing. The gradient, both moments and
the step's scratch are vectors in the layout of `NetParams.vector`, so each
step is a fixed sequence of in-place elementwise operations over the whole
vector, with no per-array loop and no temporaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .net import NetParams
from .tensor import Tensor

DEFAULT_BETA1 = 0.9
DEFAULT_BETA2 = 0.999
DEFAULT_EPS = 1e-8


@dataclass
class OptState:
    """First/second moment estimates, one vector each, plus a step counter."""

    m: Tensor
    v: Tensor
    step: int = 0
    # two work vectors that every step overwrites
    scratch: tuple[Tensor, Tensor] = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))


def opt_init(params: NetParams) -> OptState:
    return OptState(np.zeros_like(params.vector), np.zeros_like(params.vector))


def opt_step(
    params: NetParams,
    grad: Tensor,
    state: OptState,
    lr: float,
    beta1: float = DEFAULT_BETA1,
    beta2: float = DEFAULT_BETA2,
    eps: float = DEFAULT_EPS,
) -> None:
    """One descent step along `grad`, in place; pass the negated gradient to ascend.

    The float operations are the textbook update's, in its order:
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g, and
    p -= lr*m_hat / (sqrt(v_hat) + eps).
    """
    p = params.vector
    shape = getattr(grad, "shape", None)
    if shape != p.shape:
        raise ValueError(f"gradient shape {shape} does not match parameter vector {p.shape}")
    if state.m.shape != p.shape:
        raise ValueError(f"optimizer state of shape {state.m.shape} belongs to another net")
    state.step += 1
    t = state.step
    m, v, (a, b) = state.m, state.v, state.scratch
    m *= beta1
    np.multiply(grad, 1.0 - beta1, out=a)
    m += a
    v *= beta2
    np.multiply(grad, 1.0 - beta2, out=a)
    a *= grad
    v += a
    np.divide(m, 1.0 - beta1**t, out=a)  # m_hat
    a *= lr
    np.divide(v, 1.0 - beta2**t, out=b)  # v_hat
    np.sqrt(b, out=b)
    b += eps
    a /= b
    p -= a
