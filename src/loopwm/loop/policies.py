"""Segment-generating policies the loop engine can drive.

Anything with generate(step, memory, rng) -> Segment works; the world-model
policy lives next to its sampler and also serves batched requests, and the
two here exist for oracle runs and adversarial tests.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from ..memory import WorldMemory
from ..microworld import DomainSpec, Segment, reference_segment
from ..numerics import RandomSource
from ..planner import PlanStep


class Policy(Protocol):
    """What the loop engine drives.

    A policy may also offer ``fulfil(requests)``, which serves a list of
    `Request`s (n candidates for (step, memory) from one episode's stream
    each) at once and returns one draw per request: a callable that the
    episode calls once per candidate it takes, with the step that candidate
    is for. Offer it only if the output ignores ``step.instruction``, since
    a retry's revised instruction is known only after the previous candidate
    is scored. A request's draws must be those of n successive ``generate``
    calls on its stream, candidate-major (all of candidate j's draws before
    candidate j+1's), and when candidate j is taken the stream must stand
    where j+1 ``generate`` calls leave it, so the episode may stop at any
    candidate without changing later draws. A failure that belongs to one
    request, such as a non-finite condition or a diverged row, is raised by
    that request's draw, at the candidate it concerns, and by no other.
    Without ``fulfil`` every candidate is one ``generate`` call.
    """

    def generate(self, step: PlanStep, memory: WorldMemory, rng: RandomSource) -> Segment:
        ...


class OraclePolicy:
    """Emits idealized reference segments from the memory's simulated state."""

    def __init__(self, spec: DomainSpec, n_frames: int = 16, jitter: float = 0.005):
        self.spec = spec
        self.n_frames = n_frames
        self.jitter = jitter

    def generate(self, step: PlanStep, memory: WorldMemory, rng: RandomSource) -> Segment:
        return reference_segment(self.spec, memory.state, step.actions[0],
                                 n_frames=self.n_frames, rng=rng, jitter=self.jitter)


class FrozenPolicy:
    """Adversarial stub: repeats the current conditioning frame F times.

    Preconditions hold at frame 0 but nothing ever changes, so post literals
    stay unmet and the critic rejects every attempt.
    """

    def __init__(self, spec: DomainSpec, n_frames: int = 16):
        self.spec = spec
        self.n_frames = n_frames

    def generate(self, step: PlanStep, memory: WorldMemory, rng: RandomSource) -> Segment:
        frame = memory.context_frame()
        return Segment(frames=np.tile(frame, (self.n_frames, 1)))
