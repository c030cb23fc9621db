"""What an episode has accepted so far: the simulated state and the last frame.

The memory is the bridge between an episode's symbolic bookkeeping and the
generative policy's conditioning. Both are frames in the domain's channel
layout. Each accepted (step, segment) pair advances the simulated state by
applying the step's operator to it, while the segment's raw final frame
becomes the conditioning context for the next step. The simulated state
therefore always equals the chain application of the accepted operators to
the initial frame, even when generated frames carry imperfections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .microworld import DomainSpec, apply_operator
from .planner import PlanStep


@dataclass
class WorldMemory:
    """World state accumulated over an episode: what conditioning reads of it."""

    spec: DomainSpec
    # the simulated state: predicate channels exactly 0.0 or 1.0, then poses
    state: np.ndarray
    # final frame of the most recent accepted segment; the initial frame until one is
    frame: np.ndarray

    @classmethod
    def fresh(cls, spec: DomainSpec) -> "WorldMemory":
        return cls(spec=spec, state=spec.initial_frame, frame=spec.initial_frame)

    def advance(self, step: PlanStep, frames: np.ndarray) -> None:
        """Accept a segment's (F, C) `frames` for `step`: apply the step's operator."""
        self.state = apply_operator(self.spec, self.state, step.op)
        self.frame = frames[-1]
