"""Segment-generating policies the loop engine can drive.

A policy is anything with `fulfil(requests)`, and a segment it draws is its
(F, C) frames. The world-model policy lives next to its sampler; the oracle
here emits reference segments for oracle runs.
"""

from __future__ import annotations

from typing import Callable, Protocol

import numpy as np

from ..memory import WorldMemory
from ..microworld import DomainSpec, reference_segment
from ..numerics import RandomSource
from ..planner import PlanStep


class Policy(Protocol):
    """What the loop engine drives.

    ``fulfil(requests)`` serves a list of `Request`s (n candidates for
    (step, memory) from one episode's stream each) at once and returns one
    draw per request: a callable, taking no arguments, that the episode
    calls once per candidate it takes. A draw returns finite (F, C) frames
    over the domain's C channels or raises a `LoopwmError`: the policy owns
    its frames' finiteness, and nothing downstream checks it again. A
    failure that belongs to one request, such as a non-finite condition or
    a diverged row, is raised by that request's draw, at the candidate it
    concerns, and by no other.
    """

    def fulfil(self, requests: list) -> list[Callable[[], np.ndarray]]:
        ...


# the pose jitter of the oracle's reference segments
ORACLE_JITTER = 0.005


class OraclePolicy:
    """Emits idealized reference segments from the memory's simulated state frame."""

    def __init__(self, spec: DomainSpec, n_frames: int = 16):
        self.spec = spec
        self.n_frames = n_frames

    def generate(self, step: PlanStep, memory: WorldMemory, rng: RandomSource) -> np.ndarray:
        return reference_segment(self.spec, memory.state, step.op,
                                 n_frames=self.n_frames, rng=rng, jitter=ORACLE_JITTER)

    def fulfil(self, requests: list) -> list[Callable[[], np.ndarray]]:
        """One `generate` call for the request's step per candidate taken, when it is taken."""
        return [lambda r=r: self.generate(r.step, r.memory, r.rng) for r in requests]
