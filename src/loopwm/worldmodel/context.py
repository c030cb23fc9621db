"""Conditioning vector assembly for the generative policy.

A condition concatenates four blocks:

  1. the last accepted segment's final frame (or the encoded initial state
     when memory is empty) — width d,
  2. a one-hot over the domain's operators (declaration order) — width n_ops,
  3. an object-slot channel mask marking which channels the step is expected
     to touch: the post-literal predicate channels plus the pose channels of
     every moving entity — width d,
  4. the step index, capped and normalized — width 1.

The width is therefore fixed per domain: 2*d + n_ops + 1.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError, NumericError
from ..microworld import DomainSpec, encode_state
from ..planner import PlanStep

# sid cap before normalization; plans longer than this share the top value
MAX_NORM_SID = 16


def context_width(spec: DomainSpec) -> int:
    return 2 * len(spec.channels) + len(spec.operators) + 1


def operator_index(spec: DomainSpec, step: PlanStep) -> int:
    """Index of the step's primary action in the domain's operator list."""
    binding = step.actions[0]
    for i, op in enumerate(spec.operators):
        if op.verb == binding.verb and tuple(op.objects) == tuple(binding.objects):
            return i
    raise DomainError(f"no operator for action {binding}")


def channel_mask(spec: DomainSpec, step: PlanStep) -> np.ndarray:
    """1.0 on channels the step should change: post predicates and moving poses."""
    mask = np.zeros(len(spec.channels), dtype=np.float64)
    op = spec.find_operator(step.actions[0])
    for lit in op.post:
        mask[spec.channel_index[lit.pred]] = 1.0
    if op.motion is not None:
        for name in op.motion.moves:
            for axis in ("x", "y"):
                key = f"{name}.{axis}"
                if key in spec.channel_index:
                    mask[spec.channel_index[key]] = 1.0
    return mask


def embed_condition(spec: DomainSpec, step: PlanStep, memory) -> np.ndarray:
    """Deterministic conditioning vector for one plan step.

    ``memory`` must expose ``last_frame() -> ndarray | None``; the encoded
    initial state stands in when no segment has been accepted yet.
    """
    frame = memory.last_frame() if memory is not None else None
    if frame is None:
        frame = encode_state(spec, spec.initial_state())
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape != (len(spec.channels),):
        raise DomainError(
            f"context frame has width {frame.shape}, expected ({len(spec.channels)},)"
        )
    one_hot = np.zeros(len(spec.operators), dtype=np.float64)
    one_hot[operator_index(spec, step)] = 1.0
    mask = channel_mask(spec, step)
    sid_norm = np.array([min(step.sid, MAX_NORM_SID) / MAX_NORM_SID], dtype=np.float64)
    cond = np.concatenate([frame, one_hot, mask, sid_norm])
    if not np.all(np.isfinite(cond)):
        raise NumericError("non-finite values in condition vector")
    return cond
