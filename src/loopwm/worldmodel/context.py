"""Conditioning vector assembly for the generative policy.

A condition concatenates four blocks:

  1. the memory's context frame: the last accepted segment's final frame,
     or the initial frame before any is accepted — width d,
  2. a one-hot over the domain's operators (declaration order) — width n_ops,
  3. an object-slot channel mask marking which channels the step is expected
     to touch: the post-literal predicate channels plus the pose channels of
     every moving entity — width d,
  4. the step index, capped and normalized — width 1.

The width is therefore fixed per domain: 2*d + n_ops + 1. Blocks 2-4 depend
only on (operator, capped sid), so `DomainSpec` builds them once as the
condition tails; `embed_condition` concatenates the memory frame with the
cached tail.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError, NumericError
from ..microworld import DomainSpec
from ..microworld.types import MAX_NORM_SID
from ..planner import PlanStep


def context_width(spec: DomainSpec) -> int:
    return 2 * len(spec.channels) + len(spec.operators) + 1


def embed_condition(spec: DomainSpec, step: PlanStep, memory) -> np.ndarray:
    """Deterministic conditioning vector for one plan step.

    ``memory`` must expose ``frame: ndarray``, as `WorldMemory` does.
    """
    frame = np.asarray(memory.frame, dtype=np.float64)
    if frame.shape != (len(spec.channels),):
        raise DomainError(
            f"context frame has width {frame.shape}, expected ({len(spec.channels)},)"
        )
    tail = spec.condition_tails[step.op, min(step.sid, MAX_NORM_SID) - 1]
    cond = np.concatenate([frame, tail])
    if not np.isfinite(cond).all():
        raise NumericError("non-finite values in condition vector")
    return cond
