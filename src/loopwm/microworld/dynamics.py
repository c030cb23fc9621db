"""Operator semantics and the demonstration-segment generator."""

from __future__ import annotations

import math

import numpy as np

from ..errors import PreconditionError
from ..numerics.rng import RandomSource
from .frames import encode_state
from .types import DEFAULT_CONTACT, DomainSpec, Segment, SymbolicState

MAX_JITTER = 0.02


def apply_operator(spec: DomainSpec, state: SymbolicState, op: int) -> SymbolicState:
    """Apply `spec.operators[op]`: rewrite post literals, drag moving entities to the target.

    Raises PreconditionError naming every violated literal. Untouched
    predicates and poses carry over unchanged. The target position is read
    before any entity moves.
    """
    operator = spec.operators[op]
    failed = [lit for lit in operator.pre if not lit.holds_in(state.predicates)]
    if failed:
        raise PreconditionError(
            f"{operator} not applicable: unmet " + ", ".join(str(lit) for lit in failed)
        )
    preds = dict(state.predicates)
    for lit in operator.post:
        preds[lit.pred] = lit.value
    poses = dict(state.poses)
    if operator.motion is not None:
        tx, ty = spec.entity_position(state, operator.motion.target)
        for ent in operator.motion.moves:
            poses[f"{ent}.x"] = tx
            poses[f"{ent}.y"] = ty
    return SymbolicState(preds, poses)


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
    state: SymbolicState,
    op: int,
    n_frames: int = 16,
    rng: RandomSource | None = None,
    jitter: float = 0.0,
) -> Segment:
    """Idealized demonstration of one application of `spec.operators[op]`.

    Frame 0 encodes `state` exactly and frame F-1 encodes the successor
    state exactly. Pose channels interpolate linearly across the whole
    segment (so the per-frame delta is span/(F-1), the smallest achievable
    maximum). Predicate channels that flip do so along a linear ramp inside
    the operator's contact window. Optional pose jitter (amplitude <= 0.02)
    perturbs interior frames only.
    """
    if n_frames < 2:
        raise ValueError("a reference segment needs at least 2 frames")
    if jitter < 0 or jitter > MAX_JITTER:
        raise ValueError(f"jitter must lie in [0, {MAX_JITTER}]")
    if jitter > 0 and rng is None:
        raise ValueError("jitter requires a RandomSource")

    result = apply_operator(spec, state, op)
    start = encode_state(spec, state)
    end = encode_state(spec, result)

    frames = np.empty((n_frames, spec.n_channels))
    ts = np.arange(n_frames) / (n_frames - 1)
    motion = spec.operators[op].motion
    contact = motion.contact if motion is not None else DEFAULT_CONTACT
    w0, w1 = contact_window_frames(contact, n_frames)

    n_pred = spec.n_predicates
    for ch in range(spec.n_channels):
        a, b = start[ch], end[ch]
        if ch >= n_pred or a == b:
            # pose channels and unchanged predicates: full-segment linear path
            frames[:, ch] = a + (b - a) * ts
        else:
            # flipped predicate: ramp inside the contact window
            ramp = np.clip((np.arange(n_frames) - w0) / max(w1 - w0, 1), 0.0, 1.0)
            if w1 == w0:
                ramp = (np.arange(n_frames) >= w0).astype(np.float64)
            frames[:, ch] = a + (b - a) * ramp

    if jitter > 0 and n_frames > 2:
        pose_cols = np.arange(n_pred, spec.n_channels)
        noise = rng.uniform(-jitter, jitter, (n_frames - 2, pose_cols.size))
        frames[1:-1, pose_cols] = np.clip(frames[1:-1, pose_cols] + noise, 0.0, 1.0)

    return Segment(frames)
