"""Operator semantics on world-state frames, and the demonstration-segment generator.

Both read the operator's `OperatorTable`: applying an operator writes its
post values and its moving entities' poses into a copy of the frame, and a
reference segment runs from a state to its successor.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import PreconditionError
from ..numerics.rng import RandomSource
from .types import DEFAULT_CONTACT, DomainSpec

MAX_JITTER = 0.02


def apply_operator(spec: DomainSpec, state: np.ndarray, op: int) -> np.ndarray:
    """The successor of the state frame `state` under `spec.operators[op]`, a new frame.

    Post literals are written as 0.0/1.0 and every moving entity lands on
    the target's position, read from `state` before any entity moves; all
    other channels carry over. Raises PreconditionError naming every
    violated literal.
    """
    operator = spec.operators[op]
    if not spec.holds(state, operator.pre):
        failed = [lit for lit in operator.pre if not spec.holds(state, (lit,))]
        raise PreconditionError(
            f"{operator} not applicable: unmet " + ", ".join(str(lit) for lit in failed)
        )
    table = spec.operator_tables[op]
    result = state.copy()
    cols, values = table.writes
    result[cols] = values
    if table.motion is not None:
        _, moving, target, target_moves, _ = table.motion
        result[moving] = state[target] if target_moves else target
    return result


def contact_window_frames(contact: tuple[float, float], n_frames: int) -> tuple[int, int]:
    """Inclusive frame index range [w0, w1] covered by a fractional window."""
    lo, hi = contact
    w0 = math.ceil(lo * (n_frames - 1))
    w1 = math.floor(hi * (n_frames - 1))
    if w1 < w0:
        w1 = w0
    return w0, w1


def reference_segment(
    spec: DomainSpec,
    state: np.ndarray,
    op: int,
    n_frames: int = 16,
    rng: RandomSource | None = None,
    jitter: float = 0.0,
) -> np.ndarray:
    """Idealized demonstration of one application of `spec.operators[op]`: (F, C) frames.

    Frame 0 is the state frame `state` and frame F-1 its successor, both
    exactly. Pose channels and unchanged predicates interpolate linearly
    across the whole segment (so the per-frame delta is span/(F-1), the
    smallest achievable maximum). Predicate channels that flip do so along a
    linear ramp inside the operator's contact window. Optional pose jitter
    (amplitude <= 0.02) perturbs interior frames only.
    """
    if n_frames < 2:
        raise ValueError("a reference segment needs at least 2 frames")
    if jitter < 0 or jitter > MAX_JITTER:
        raise ValueError(f"jitter must lie in [0, {MAX_JITTER}]")
    if jitter > 0 and rng is None:
        raise ValueError("jitter requires a RandomSource")

    end = apply_operator(spec, state, op)
    motion = spec.operators[op].motion
    contact = motion.contact if motion is not None else DEFAULT_CONTACT
    w0, w1 = contact_window_frames(contact, n_frames)
    index = np.arange(n_frames)
    ts = index / (n_frames - 1)
    if w1 == w0:
        ramp = (index >= w0).astype(np.float64)
    else:
        ramp = np.clip((index - w0) / (w1 - w0), 0.0, 1.0)
    n_pred = spec.n_predicates
    flipped = np.zeros(spec.n_channels, dtype=bool)
    flipped[:n_pred] = state[:n_pred] != end[:n_pred]
    frames = state + (end - state) * np.where(flipped, ramp[:, None], ts[:, None])

    if jitter > 0 and n_frames > 2:
        pose_cols = np.arange(n_pred, spec.n_channels)
        noise = rng.uniform(-jitter, jitter, (n_frames - 2, pose_cols.size))
        frames[1:-1, pose_cols] = np.clip(frames[1:-1, pose_cols] + noise, 0.0, 1.0)

    return frames
