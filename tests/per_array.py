"""Per-array references for the flat parameter vector, over plain arrays.

The package keeps every parameter of a net in one float32 vector and updates
it with whole-vector operations (`opt_step`) and one gradient vector
(`net_backward_batch`). These are the versions that work one (W, b) array at
a time, as the package did before the vector, on a `PlainNet`: the layer
sizes and one parameter vector of any dtype, tanh throughout. A `NetParams`
reads the same way, so each reference runs on the package's own float32
parameters, or in float64 on `PlainNet.float64(params)` as an oracle:

- `layer_arrays` lists a vector as its arrays [W0, b0, W1, b1, ...];
- `forward_per_array` is the feature-major layer loop with fresh arrays per
  operation, each layer's output copied out row-major, which is how the
  package's backward reads it;
- `backward_per_array` zero-fills one gradient array per parameter array and
  adds each layer's product into it;
- `opt_step_per_array` runs Adam's update array by array, with temporaries,
  in the efficient order the package uses: the bias corrections folded into
  the step size lr*sqrt(1-b2^t)/(1-b1^t) and eps*sqrt(1-b2^t).

Each does the same float operations in the same order as the package, so in
the package's dtype results must be equal bit for bit, not merely close.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

def layer_arrays(sizes, vector) -> list[np.ndarray]:
    """[W0, b0, W1, b1, ...] as views of `vector`, laid out as a checkpoint."""
    out, off = [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        end = off + fan_out * fan_in
        out.extend((vector[off:end].reshape(fan_out, fan_in), vector[end:end + fan_out]))
        off = end + fan_out
    return out


@dataclass(frozen=True)
class PlainNet:
    """A net as plain arrays: layer sizes and a parameter vector of any dtype."""

    sizes: tuple[int, ...]
    vector: np.ndarray

    @classmethod
    def float64(cls, params) -> "PlainNet":
        """A float64 copy of a net's parameters, for an oracle."""
        return cls(tuple(params.sizes), params.vector.astype(np.float64))

    @property
    def weights(self) -> list[np.ndarray]:
        return layer_arrays(self.sizes, self.vector)[0::2]

    @property
    def biases(self) -> list[np.ndarray]:
        return layer_arrays(self.sizes, self.vector)[1::2]

    def n_layers(self) -> int:
        return len(self.sizes) - 1


def forward_per_array(params, x: np.ndarray) -> list[np.ndarray]:
    """Each layer as `w @ h` over a contiguous (width, rows) h, kept as a row-major copy."""
    acts = [x]
    last = params.n_layers() - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = w @ np.ascontiguousarray(acts[-1].T) + b[:, None]
        acts.append((np.tanh(h) if i < last else h).T.copy())
    return acts


def backward_per_array(params, acts, out_grad) -> np.ndarray:
    """The parameter gradient as one vector in the layout of `params.vector`."""
    last = params.n_layers() - 1
    grads = [np.zeros_like(a) for a in layer_arrays(params.sizes, params.vector)]
    g = out_grad
    for i in range(last, -1, -1):
        if i < last:
            g = g * (1.0 - acts[i + 1] * acts[i + 1])
        grads[2 * i] += g.T @ acts[i]
        grads[2 * i + 1] += g.sum(axis=0)
        if i > 0:
            g = g @ params.weights[i]
    return np.concatenate([a.ravel() for a in grads])


def opt_step_per_array(arrays, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Step `t` (from 1) of Adam over parallel lists, updating arrays, m and v in place."""
    for p, g, m_i, v_i in zip(arrays, grads, m, v):
        m_i *= beta1
        m_i += (1.0 - beta1) * g
        v_i *= beta2
        v_i += (1.0 - beta2) * g * g
        root = math.sqrt(1.0 - beta2**t)
        p -= lr * root / (1.0 - beta1**t) * (m_i / (np.sqrt(v_i) + eps * root))
