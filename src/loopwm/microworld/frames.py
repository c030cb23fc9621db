"""Symbolic state <-> frame vector codec."""

from __future__ import annotations

import numpy as np

from .types import DomainSpec, SymbolicState

DECODE_THRESHOLD = 0.5


def encode_state(spec: DomainSpec, state: SymbolicState) -> np.ndarray:
    """Frame vector: 1.0/0.0 per predicate channel, raw values per pose channel."""
    frame = np.zeros(spec.n_channels)
    for i, (pred, _) in enumerate(spec.predicates):
        frame[i] = 1.0 if state.predicates[pred] else 0.0
    for name, value in state.poses.items():
        frame[spec.channel_index[name]] = value
    return frame


def decode_frame(spec: DomainSpec, frame: np.ndarray) -> SymbolicState:
    """Threshold predicates at 0.5 (ties decode to true); clip poses into [0, 1]."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape != (spec.n_channels,):
        raise ValueError(f"frame has shape {frame.shape}, expected ({spec.n_channels},)")
    preds = {pred: bool(frame[i] >= DECODE_THRESHOLD) for i, (pred, _) in enumerate(spec.predicates)}
    poses = {}
    for obj in spec.movable_entities():
        for axis in ("x", "y"):
            ch = f"{obj}.{axis}"
            poses[ch] = float(np.clip(frame[spec.channel_index[ch]], 0.0, 1.0))
    return SymbolicState(preds, poses)


def state_summary(spec: DomainSpec, state: SymbolicState) -> str:
    """Deterministic one-line text rendering."""
    parts = []
    for pred, _ in spec.predicates:
        parts.append(pred if state.predicates[pred] else f"not {pred}")
    pose_bits = []
    for obj in spec.movable_entities():
        x = state.poses[f"{obj}.x"]
        y = state.poses[f"{obj}.y"]
        pose_bits.append(f"{obj} at ({x:.3f}, {y:.3f})")
    return "; ".join([", ".join(parts)] + pose_bits)
