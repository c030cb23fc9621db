"""A fixed computation that measures how fast the host runs at the moment.

On a shared host the same invocation can take 1.6 times as long from one
second to the next, as co-tenants come and go; runs a minute apart then
differ by 20-40%, more than any bound could absorb. The benchmark therefore
runs this reference right before and right after every timed invocation and
scales the invocation's wall time by `REFERENCE_SECONDS` over the mean of the
two. Reported times are what the invocation would take on a host where the
reference takes `REFERENCE_SECONDS`; the raw times stay in `result.json`.

The reference does what the program's inner loops do: single-row and batched
float64 matmuls with a tanh, a finiteness check, and small Python objects. It
imports nothing from the program, so no change to the program moves it.
"""

from __future__ import annotations

import time

import numpy as np

# what the reference takes on an idle 2-core host; any constant would do,
# since bounds compare a change with its parent under the same scaling
REFERENCE_SECONDS = 0.05

_rng = np.random.default_rng(0)
_WEIGHTS = [_rng.standard_normal((128, 113)) * 0.1, _rng.standard_normal((128, 128)) * 0.1,
            _rng.standard_normal((96, 128)) * 0.1]
_BIASES = [np.zeros(128), np.zeros(128), np.zeros(96)]
_INPUTS = _rng.standard_normal((64, 113))


def reference_seconds() -> float:
    """Wall time of one pass of the reference computation."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(2500):
        h = _INPUTS[i % 64][None, :]
        for w, b in zip(_WEIGHTS, _BIASES):
            h = np.tanh(h @ w.T + b)
        if not np.all(np.isfinite(h)):
            raise ArithmeticError("reference computation went non-finite")
        acc += float(h[0, 0]) + len({"step": i, "acc": acc})
    return time.perf_counter() - start


class HostMeter:
    """Brackets consecutive timed invocations with the reference computation."""

    def __init__(self):
        self.last = reference_seconds()
        self.samples = [self.last]

    def scale(self) -> float:
        """Factor for the invocation that just ended, measured since the last call."""
        before, self.last = self.last, reference_seconds()
        self.samples.append(self.last)
        return REFERENCE_SECONDS / (0.5 * (before + self.last))
