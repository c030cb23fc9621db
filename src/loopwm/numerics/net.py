"""A small fully-connected network with hand-written reverse-mode gradients.

The architecture is deliberately plain: affine layers with tanh on every
hidden layer and a linear output layer. One layer loop is the one forward
pass: `net_activations` returns its per-layer outputs, and callers that need
only the output take the last one. `net_backward_batch` takes those
activations and runs only the reverse sweep, so a training step runs the
network forward once per gradient.

The forward runs feature-major: it transposes its (rows, width) input once
into a contiguous (width, rows) block, and each layer is one product
`w @ h` of the (out, in) weight and that block, with the bias added and
tanh applied in place. The weight is the left operand so that neither
operand of the product is transposed: BLAS must repack a transposed operand
before its kernel runs, and at the benchmark's net (129-128-128-128-96)
one hidden layer over 32 rows takes about 23 us as `h @ w.T` and 9.5 us as
`w @ h` (16 rows: 16 us and 7 us; OpenBLAS 0.3.31, Haswell kernels, one
thread). Each layer's output is handed out as the (rows, width) transpose
of its block, a view, so callers that only read the output pay no copy.
The backward copies each layer's output once into a row-major array and
reads it twice, for that layer's weight gradient `g.T @ a` and for the
tanh derivative of the layer below; its other products (`g @ w`) read only
row-major arrays. Neither pass checks its inputs:
each stage validates once, at entry, and only these kernels run inside.
Gradients are computed by explicit backprop (no autograd framework) so they
can be checked coordinate-by-coordinate against a central-difference oracle
that the tests keep independent of this module's backward pass.

Every parameter of a net lives in one contiguous vector of `DTYPE`
(float32), `NetParams.vector`, in checkpoint order: W0 row-major, b0, W1,
b1, ... `weights[i]` and `biases[i]` are views into it. A gradient is one
vector of the same layout and dtype, so the optimizer updates a net with
whole-vector operations, and the in-memory vector is the checkpoint payload.
`net_backward_batch` writes a gradient through the layer views of a
`NetParams` over its vector, which a training loop makes once
(`OptState.grad`), not per call.
Both passes run in the dtype of their inputs: the callers hand them `DTYPE`
arrays, since one float64 operand would make numpy compute the whole layer
in float64.

Checkpoint layout (all integers and floats little-endian):

    bytes 0..7   magic b"LWNET002"
    u8           length of the activation name, then that many ascii bytes:
                 the net is tanh throughout, so these are always b"tanh"
    u32          S, the number of layer sizes
    S * u32      layer sizes, input width first
    payload      the parameter vector: per layer the weight matrix
                 (out*in float32, row-major), then the bias (out float32)

The loader also reads the float64 layout, magic b"LWNET001" with 8-byte
payload entries, and casts its vector to float32, so older checkpoints keep
loading. It rejects wrong magic, unknown activations, truncated files, and
trailing bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from ..errors import CheckpointError
from .rng import RandomSource
from .tensor import DTYPE, Tensor

MAGIC = b"LWNET002"
# magic -> payload entry type; LWNET001 is the float64 layout, cast on load
_PAYLOADS = {MAGIC: np.dtype("<f4"), b"LWNET001": np.dtype("<f8")}
# the checkpoint header names the activation; a file naming another is refused
_ACTIVATION = "tanh"


def _tanh(h: Tensor) -> None:
    np.tanh(h, out=h)


def _tanh_grad(a: Tensor) -> Tensor:
    """The derivative 1 - a^2 of tanh, from its value a."""
    d = a * a
    return np.subtract(1.0, d, out=d)


def _n_params(sizes: Sequence[int]) -> int:
    return sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))


@dataclass(frozen=True, eq=False)
class NetParams:
    """Ordered affine layers over one parameter vector.

    `vector` holds every parameter in checkpoint order; weights[i], of shape
    (sizes[i+1], sizes[i]), and biases[i] are views into it, so a write
    through either is a write to the other. Construction checks the
    vector's layout and length, so every NetParams is consistent.
    """

    sizes: tuple[int, ...]
    vector: Tensor
    weights: tuple[Tensor, ...] = field(init=False, repr=False)
    biases: tuple[Tensor, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.sizes) < 2:
            raise ValueError(f"a net needs at least 2 layer sizes, got {self.sizes}")
        vector = self.vector
        if not (isinstance(vector, np.ndarray) and vector.dtype == DTYPE
                and vector.ndim == 1 and vector.flags.c_contiguous):
            raise ValueError(f"parameters must be one contiguous {np.dtype(DTYPE)} vector")
        if vector.size != _n_params(self.sizes):
            raise ValueError(f"parameter vector has {vector.size} entries, layer sizes "
                             f"{self.sizes} need {_n_params(self.sizes)}")
        weights, biases, off = [], [], 0
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            end = off + fan_out * fan_in
            weights.append(vector[off:end].reshape(fan_out, fan_in))
            biases.append(vector[end:end + fan_out])
            off = end + fan_out
        object.__setattr__(self, "weights", tuple(weights))
        object.__setattr__(self, "biases", tuple(biases))

    def n_layers(self) -> int:
        return len(self.weights)


def net_init(sizes: Sequence[int], rng: RandomSource) -> NetParams:
    """Glorot-scaled normal weights, zero biases.

    The weights are float64 draws, scaled and then cast to `DTYPE`.
    """
    sizes = tuple(int(s) for s in sizes)
    params = NetParams(sizes, np.zeros(_n_params(sizes), dtype=DTYPE))
    gen = rng.generator()
    for w, fan_in, fan_out in zip(params.weights, sizes[:-1], sizes[1:]):
        scale = np.sqrt(2.0 / (fan_in + fan_out))
        w[...] = gen.standard_normal((fan_out, fan_in)) * scale
    return params


def clone_params(params: NetParams) -> NetParams:
    return NetParams(params.sizes, params.vector.copy())


def net_activations(params: NetParams, x: Tensor) -> list[Tensor]:
    """The forward pass, returning every layer's output, `[x, h_1, ..., y]`.

    x is a `DTYPE` array of shape (n, sizes[0]) and y has shape
    (n, sizes[-1]): tanh outputs, linear on the last layer. The layers run
    feature-major: x is transposed once into a contiguous (sizes[0], n)
    block, and each layer is one product `w @ h` into a new (width, n)
    block, whose bias is added and whose tanh is applied in place. Each
    `h_i` and y is returned as the (n, width) transpose of its block, a
    view, not a row-major array; x is returned as passed. Pass the list
    to `net_backward_batch` to differentiate this forward without rerunning
    it. Nothing is checked here: each stage validates its inputs once, at
    entry, and non-finite values pass through.
    """
    acts = [x]
    h = np.ascontiguousarray(x.T)
    last = params.n_layers() - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = w @ h
        h += b[:, None]
        if i < last:
            _tanh(h)
        acts.append(h.T)
    return acts


def net_backward_batch(params: NetParams, acts: Sequence[Tensor], out_grad: Tensor,
                       out: NetParams | None = None) -> Tensor:
    """Reverse-mode parameter gradient through a forward already run by `net_activations`.

    The gradient is one vector in the layout of `params.vector`, summed over
    the batch. It is written through the layer views of `out` when that is
    given, a `NetParams` of the parameters' sizes, and its vector is
    returned; otherwise it goes into a copy of `params` over a new vector.
    The sweep stops at the first layer's weights: no caller needs the
    gradient with respect to the input. `acts` is the forward's list, whose
    layers below the output are read here: each once, as a row-major copy
    (none when it already is, as x usually is), which serves that layer's
    weight gradient and the tanh derivative of the layer below. `out_grad`
    is a `DTYPE` array of the output's shape and is not modified;
    like the forward, the sweep checks nothing.
    """
    last = params.n_layers() - 1
    if out is None:
        out = replace(params, vector=np.empty_like(params.vector))
    grad_w, grad_b = out.weights, out.biases
    g = out_grad  # gradient w.r.t. the current layer's pre-activation (output layer is linear)
    a = None
    for i in range(last, -1, -1):
        if i < last:
            # below the output layer g is a product made here, not the caller's
            # out_grad, so it may be scaled in place; a is layer i + 1's output
            g *= _tanh_grad(a)
        # one row-major copy of a feature-major layer, read by this layer's
        # weight gradient and by the tanh derivative one layer down
        a = np.ascontiguousarray(acts[i])
        np.matmul(g.T, a, out=grad_w[i])
        np.add.reduce(g, axis=0, out=grad_b[i])
        if i > 0:
            g = g @ params.weights[i]
    return out.vector


def save_checkpoint(path: str | Path, params: NetParams) -> None:
    """Write the documented binary layout. Deterministic bytes for equal params."""
    name = _ACTIVATION.encode("ascii")
    Path(path).write_bytes(b"".join([
        MAGIC, struct.pack("<B", len(name)), name,
        struct.pack("<I", len(params.sizes)),
        struct.pack(f"<{len(params.sizes)}I", *params.sizes),
        np.ascontiguousarray(params.vector, dtype=_PAYLOADS[MAGIC]).tobytes(),
    ]))


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

    payload = _PAYLOADS.get(take(len(MAGIC)))
    if payload is None:
        raise CheckpointError(f"{path}: bad magic, not a network checkpoint")
    (name_len,) = struct.unpack("<B", take(1))
    activation = take(name_len).decode("ascii")
    if activation != _ACTIVATION:
        raise CheckpointError(f"{path}: unknown activation {activation!r}")
    (n_sizes,) = struct.unpack("<I", take(4))
    if n_sizes < 2 or n_sizes > 64:
        raise CheckpointError(f"{path}: implausible layer count {n_sizes}")
    sizes = tuple(int(s) for s in struct.unpack(f"<{n_sizes}I", take(4 * n_sizes)))
    n_bytes = payload.itemsize * _n_params(sizes)
    vector = np.frombuffer(take(n_bytes), dtype=payload).astype(DTYPE)
    if off != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - off} trailing bytes")
    return NetParams(sizes, vector)
