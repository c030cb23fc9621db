"""A small fully-connected network with hand-written reverse-mode gradients.

The architecture is deliberately plain: affine layers with a smooth
activation on every hidden layer and a linear output layer. One layer loop
serves every forward pass. `net_activations` returns its per-layer outputs,
and `net_backward_batch` takes those activations and runs only the reverse
sweep, so a training step runs the network forward once per gradient.
Gradients are computed by explicit backprop (no autograd framework) so they
can be checked coordinate-by-coordinate against the central-difference oracle
in `stats.finite_diff_grad`, which stays independent of this module's
backward pass.

Checkpoint layout (all integers and floats little-endian):

    bytes 0..7   magic b"LWNET001"
    u8           length of the activation name, then that many ascii bytes
    u32          S, the number of layer sizes
    S * u32      layer sizes, input width first
    per layer    weight matrix (out*in float64, row-major), then bias (out float64)

The loader rejects wrong magic, unknown activations, truncated files, and
trailing bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..errors import CheckpointError
from .rng import RandomSource
from .tensor import Tensor, require_finite

MAGIC = b"LWNET001"

# name -> (forward, derivative-from-activation-value)
# softplus: a = log(1+e^x) so sigma(x) = 1 - e^(-a); smooth, so finite
# differences stay a valid oracle (unlike relu's kink)
_ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "tanh": (np.tanh, lambda a: 1.0 - a * a),
    "softplus": (lambda x: np.logaddexp(0.0, x), lambda a: 1.0 - np.exp(-a)),
}


@dataclass
class NetParams:
    """Ordered affine layers; weights[i] has shape (sizes[i+1], sizes[i])."""

    sizes: tuple[int, ...]
    weights: list[Tensor]
    biases: list[Tensor]
    activation: str = "tanh"

    def n_layers(self) -> int:
        return len(self.weights)


def check_params(params: NetParams) -> None:
    """Raise ValueError unless the activation and every layer shape agree with `sizes`."""
    if params.activation not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {params.activation!r}")
    if len(params.sizes) < 2 or len(params.weights) != len(params.sizes) - 1:
        raise ValueError("layer sizes and weight list disagree")
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        if w.shape != (params.sizes[i + 1], params.sizes[i]) or b.shape != (params.sizes[i + 1],):
            raise ValueError(f"layer {i} has shape {w.shape}/{b.shape}, expected "
                             f"({params.sizes[i + 1]}, {params.sizes[i]})")


def net_init(sizes: Sequence[int], rng: RandomSource, activation: str = "tanh") -> NetParams:
    """Glorot-scaled normal weights, zero biases."""
    sizes = tuple(int(s) for s in sizes)
    if activation not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    gen = rng.generator()
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        scale = np.sqrt(2.0 / (fan_in + fan_out))
        weights.append(gen.standard_normal((fan_out, fan_in)) * scale)
        biases.append(np.zeros(fan_out))
    return NetParams(sizes, weights, biases, activation)


def clone_params(params: NetParams) -> NetParams:
    return NetParams(
        params.sizes,
        [w.copy() for w in params.weights],
        [b.copy() for b in params.biases],
        params.activation,
    )


def params_as_list(params: NetParams) -> list[Tensor]:
    """Canonical flat ordering [W0, b0, W1, b1, ...] shared with OptState and grads."""
    out: list[Tensor] = []
    for w, b in zip(params.weights, params.biases):
        out.append(w)
        out.append(b)
    return out


def zeros_like_grads(params: NetParams) -> list[Tensor]:
    return [np.zeros_like(a) for a in params_as_list(params)]


def net_activations(params: NetParams, x: Tensor) -> list[Tensor]:
    """Validated forward pass returning every layer's output, `[x, h_1, ..., y]`.

    x has shape (n, sizes[0]) and y has shape (n, sizes[-1]). Pass the list
    to `net_backward_batch` to differentiate this forward without rerunning it.
    """
    check_params(params)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.sizes[0]:
        raise ValueError(f"input has shape {x.shape}, expected (n, {params.sizes[0]})")
    require_finite(x, "net input")
    acts = _layer_outputs(params, x)
    require_finite(acts[-1], "net output")
    return acts


def net_forward_batch(params: NetParams, x: Tensor) -> Tensor:
    """Forward pass for a batch of row vectors, shape (n, sizes[0]) -> (n, sizes[-1])."""
    return net_activations(params, x)[-1]


def net_forward_unchecked(params: NetParams, x: Tensor) -> Tensor:
    """`net_forward_batch` without its checks, for loops that validated once.

    The caller guarantees `check_params(params)` passed and that x is a
    float64 array of shape (n, sizes[0]). Non-finite values pass through.
    """
    return _layer_outputs(params, x)[-1]


def _layer_outputs(params: NetParams, x: Tensor) -> list[Tensor]:
    """The one layer loop: post-activation outputs, linear on the last layer."""
    act, _ = _ACTIVATIONS[params.activation]
    acts = [x]
    last = params.n_layers() - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = acts[-1] @ w.T + b
        acts.append(act(h) if i < last else h)
    return acts


def net_backward_batch(
    params: NetParams, acts: Sequence[Tensor], out_grad: Tensor
) -> list[Tensor]:
    """Reverse-mode parameter gradients through a forward already run by `net_activations`.

    The gradients follow the `params_as_list` ordering and are summed over
    the batch. The sweep stops at the first layer's weights: no caller needs
    the gradient with respect to the input.
    """
    if len(acts) != params.n_layers() + 1:
        raise ValueError(f"expected {params.n_layers() + 1} activations, got {len(acts)}")
    out_grad = np.asarray(out_grad, dtype=np.float64)
    if out_grad.shape != acts[-1].shape:
        raise ValueError(f"out_grad has shape {out_grad.shape}, expected {acts[-1].shape}")
    require_finite(out_grad, "out_grad")

    _, dact = _ACTIVATIONS[params.activation]
    last = params.n_layers() - 1
    grads = zeros_like_grads(params)
    g = out_grad  # gradient w.r.t. the current layer's pre-activation (output layer is linear)
    for i in range(last, -1, -1):
        if i < last:
            g = g * dact(acts[i + 1])
        grads[2 * i] += g.T @ acts[i]
        grads[2 * i + 1] += g.sum(axis=0)
        if i > 0:
            g = g @ params.weights[i]
    return grads


def save_checkpoint(path: str | Path, params: NetParams) -> None:
    """Write the documented binary layout. Deterministic bytes for equal params."""
    check_params(params)
    name = params.activation.encode("ascii")
    parts = [MAGIC, struct.pack("<B", len(name)), name,
             struct.pack("<I", len(params.sizes)),
             struct.pack(f"<{len(params.sizes)}I", *params.sizes)]
    for w, b in zip(params.weights, params.biases):
        parts.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_checkpoint(path: str | Path) -> NetParams:
    blob = Path(path).read_bytes()
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise CheckpointError(f"{path}: truncated at byte {off}")
        out = blob[off:off + n]
        off += n
        return out

    if take(len(MAGIC)) != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a network checkpoint")
    (name_len,) = struct.unpack("<B", take(1))
    activation = take(name_len).decode("ascii")
    if activation not in _ACTIVATIONS:
        raise CheckpointError(f"{path}: unknown activation {activation!r}")
    (n_sizes,) = struct.unpack("<I", take(4))
    if n_sizes < 2 or n_sizes > 64:
        raise CheckpointError(f"{path}: implausible layer count {n_sizes}")
    sizes = struct.unpack(f"<{n_sizes}I", take(4 * n_sizes))
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = np.frombuffer(take(8 * fan_in * fan_out), dtype="<f8").reshape(fan_out, fan_in)
        b = np.frombuffer(take(8 * fan_out), dtype="<f8")
        weights.append(w.astype(np.float64))
        biases.append(b.astype(np.float64))
    if off != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - off} trailing bytes")
    return NetParams(tuple(int(s) for s in sizes), weights, biases, activation)
