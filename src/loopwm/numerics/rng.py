"""Counter-based, splittable randomness.

Every stochastic component takes a RandomSource instead of touching global
state. A source is identified by (seed, stream); the same pair always
replays the same value sequence, and `split` derives statistically
independent child streams without consuming draws from the parent. A
stream only moves forward: a consumer that needs n blocks of normals draws
them as one (n, ...) array, whose rows equal n successive draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    # Standard splitmix64 finalizer; bijective on 64-bit ints.
    x = (x + _GOLDEN) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass
class RandomSource:
    """A (seed, stream) pair backed by the Philox counter-based generator."""

    seed: int
    stream: int = 0
    _gen: np.random.Generator | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.seed = int(self.seed) & _MASK64
        self.stream = int(self.stream) & _MASK64

    def generator(self) -> np.random.Generator:
        if self._gen is None:
            key = np.array([self.seed, self.stream], dtype=np.uint64)
            self._gen = np.random.Generator(np.random.Philox(key=key))
        return self._gen

    def split(self, index: int) -> "RandomSource":
        """Child source for slot `index`; deterministic, parent unchanged."""
        if index < 0:
            raise ValueError("split index must be non-negative")
        child = _splitmix64((self.stream + _GOLDEN * (index + 1)) & _MASK64)
        return RandomSource(self.seed, child)

    # Draw helpers. These consume from the stream in call order.

    def normal(self, shape=None) -> np.ndarray | float:
        out = self.generator().standard_normal(shape)
        return out

    def uniform(self, low: float = 0.0, high: float = 1.0, shape=None):
        return self.generator().uniform(low, high, shape)

    def integers(self, low: int, high: int, shape=None):
        return self.generator().integers(low, high, size=shape)

    def choice(self, n: int) -> int:
        return int(self.generator().integers(0, n))

    def shuffle(self, items: list) -> None:
        self.generator().shuffle(items)
