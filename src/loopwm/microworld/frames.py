"""Symbolic state -> frame vector encoding, and the predicate decode threshold."""

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

