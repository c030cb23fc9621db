"""Exhaustive minimal-length oracle, kept independent of the planner.

This is a blunt breadth-first enumeration over operator *sequences*: no
visited-state pruning, no ordering tricks, nothing shared with
`loopwm.planner.search` or the plan graph it reads. Exponential in depth,
which is fine at microworld scale and is exactly what makes it a trustworthy
cross-check for the planner and for suite difficulty bands.
"""

from __future__ import annotations

from ..microworld.dynamics import apply_operator
from ..microworld.types import MAX_PLAN_LEN, DomainSpec, Literal, SymbolicState


def minimal_plan_length(
    spec: DomainSpec,
    state: SymbolicState,
    literals: tuple[Literal, ...],
    max_len: int = MAX_PLAN_LEN,
) -> int | None:
    """Length of the shortest operator sequence reaching `literals`, or None.

    Returns 0 when the literals already hold.
    """
    if state.satisfies(literals):
        return 0
    frontier = [state]
    for depth in range(1, max_len + 1):
        nxt: list[SymbolicState] = []
        for current in frontier:
            for i, op in enumerate(spec.operators):
                if not current.satisfies(op.pre):
                    continue
                successor = apply_operator(spec, current, i)
                if successor.satisfies(literals):
                    return depth
                nxt.append(successor)
        if not nxt:
            return None
        frontier = nxt
    return None
