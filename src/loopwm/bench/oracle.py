"""Exhaustive minimal-length oracle, kept independent of the planner.

This is a blunt breadth-first enumeration over operator *sequences*: no
visited-state pruning, no ordering tricks, nothing shared with
`loopwm.planner.search` or the plan graph it reads. It steps state frames
with the dynamics, `apply_operator`. Exponential in depth, which is fine at
microworld scale and is exactly what makes it a trustworthy cross-check for
the planner and for suite difficulty bands.
"""

from __future__ import annotations

import numpy as np

from ..microworld.dynamics import apply_operator
from ..microworld.types import MAX_PLAN_LEN, DomainSpec, Literal


def minimal_plan_length(
    spec: DomainSpec,
    state: np.ndarray,
    literals: tuple[Literal, ...],
    max_len: int = MAX_PLAN_LEN,
) -> int | None:
    """Length of the shortest operator sequence from the state frame `state` reaching `literals`.

    Returns 0 when the literals already hold, and None when no sequence of
    at most `max_len` operators reaches them.
    """
    if spec.holds(state, literals):
        return 0
    frontier = [state]
    for depth in range(1, max_len + 1):
        nxt: list[np.ndarray] = []
        for current in frontier:
            for i, op in enumerate(spec.operators):
                if not spec.holds(current, op.pre):
                    continue
                successor = apply_operator(spec, current, i)
                if spec.holds(successor, literals):
                    return depth
                nxt.append(successor)
        if not nxt:
            return None
        frontier = nxt
    return None
