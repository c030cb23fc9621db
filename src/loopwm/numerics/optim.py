"""Adaptive-moment gradient descent (Adam with bias correction).

`opt_step` works in place: it updates the parameter vector and the moment
estimates it is given and returns nothing. The gradient, both moments and
the step's scratch are `DTYPE` (float32) vectors in the layout of
`NetParams.vector`. Every operation writes in place, so the vectors keep
their dtype whatever the type of the step's scalars (alpha_t, eps_hat). Each
step is a fixed sequence of in-place elementwise operations over the whole
vector, with no per-array loop and no temporaries. The state also owns the
gradient, `OptState.grad`, a `NetParams` over its own vector that training
loops backprop into (`net_backward_batch(..., out=state.grad)`), so no step
allocates a parameter-sized vector or rebuilds the gradient's layer views.
To ascend, negate `lr`, not the gradient: a sign flip commutes with every
operation of the step, so the parameters get the bytes of a descent along
the negated gradient, and only m's sign differs.

The step uses the efficient order of Kingma & Ba (2015, arXiv:1412.6980,
section 2): the bias corrections fold into two scalars, the step size
alpha_t = lr*sqrt(1-b2^t)/(1-b1^t) and eps_hat = eps*sqrt(1-b2^t), so the
vector work is one division and one square root. This is the textbook
update in exact arithmetic; in floating point its bytes may differ from the
textbook order's in the last ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .net import NetParams
from .tensor import Tensor

DEFAULT_BETA1 = 0.9
DEFAULT_BETA2 = 0.999
DEFAULT_EPS = 1e-8


@dataclass
class OptState:
    """First/second moment estimates, one vector each, plus a step counter.

    `grad` is the gradient callers backprop into, laid out as the net's
    parameters; `scratch` is the step's own work vector.
    """

    m: Tensor
    v: Tensor
    grad: NetParams = field(repr=False)
    step: int = 0
    scratch: Tensor = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = np.empty_like(self.m)


def opt_init(params: NetParams) -> OptState:
    return OptState(np.zeros_like(params.vector), np.zeros_like(params.vector),
                    NetParams(params.sizes, np.empty_like(params.vector)))


def opt_step(params: NetParams, grad: Tensor, state: OptState, lr: float) -> None:
    """One descent step along `grad`, in place; pass a negative `lr` to ascend.

    The moments follow the textbook update, m = b1*m + (1-b1)*g and
    v = b2*v + (1-b2)*g*g, in its float order. The parameters take Kingma &
    Ba's efficient order (section 2), p -= alpha_t * (m / (sqrt(v) + eps_hat))
    with alpha_t = lr*sqrt(1-b2^t)/(1-b1^t) and eps_hat = eps*sqrt(1-b2^t):
    the textbook p -= lr*m_hat / (sqrt(v_hat) + eps) in exact arithmetic,
    which it may differ from in the last ulp.
    """
    p = params.vector
    shape = getattr(grad, "shape", None)
    if shape != p.shape:
        raise ValueError(f"gradient shape {shape} does not match parameter vector {p.shape}")
    if state.m.shape != p.shape:
        raise ValueError(f"optimizer state of shape {state.m.shape} belongs to another net")
    beta1, beta2, eps = DEFAULT_BETA1, DEFAULT_BETA2, DEFAULT_EPS
    state.step += 1
    t = state.step
    root = math.sqrt(1.0 - beta2**t)
    alpha = lr * root / (1.0 - beta1**t)
    m, v, a = state.m, state.v, state.scratch
    m *= beta1
    np.multiply(grad, 1.0 - beta1, out=a)
    m += a
    v *= beta2
    np.multiply(grad, 1.0 - beta2, out=a)
    a *= grad
    v += a
    np.sqrt(v, out=a)
    a += eps * root
    np.divide(m, a, out=a)
    a *= alpha
    p -= a
