"""Breadth-first symbolic planning over grounded operator applications.

Poses never gate operators, so search runs over predicate bitmasks alone: a
state is one int with bit i set when predicate i holds, and each operator is
the four masks `DomainSpec` compiles once (pre-true, pre-false, post-true,
post-false). Successors expand in (verb, objects) order, which makes the
returned plan the lexicographically smallest among the minimal-length
candidates and keeps every run deterministic. Unreachable goals and exhausted
budgets raise NoPlanError; plans are never silently truncated.
"""

from __future__ import annotations

from collections import deque

from ..errors import DomainError, NoPlanError
from ..microworld.types import DomainSpec, SymbolicState
from .types import Goal, PlanStep

DEFAULT_NODE_BUDGET = 100_000


def _check_goal(spec: DomainSpec, goal: Goal) -> None:
    known = {p for p, _ in spec.predicates}
    for lit in goal.literals:
        if lit.pred not in known:
            raise DomainError(f"goal references unknown predicate {lit.pred!r}")


def _search(
    spec: DomainSpec,
    goal: Goal,
    state: SymbolicState,
    node_budget: int,
) -> tuple[int, ...]:
    goal_true, goal_false = spec.literal_masks(goal.literals)
    start = spec.state_key(state)
    if start & goal_true == goal_true and not start & goal_false:
        return ()
    queue: deque[tuple[int, tuple[int, ...]]] = deque([(start, ())])
    visited = {start}
    expanded = 0
    while queue:
        current, path = queue.popleft()
        expanded += 1
        if expanded > node_budget:
            raise NoPlanError(
                f"no plan within node budget {node_budget} for goal {goal.text!r}"
            )
        for index, pre_true, pre_false, post_true, post_false in spec.search_order:
            if current & pre_true != pre_true or current & pre_false:
                continue
            nxt = (current & ~post_false) | post_true
            if nxt in visited:
                continue
            new_path = path + (index,)
            if nxt & goal_true == goal_true and not nxt & goal_false:
                return new_path
            visited.add(nxt)
            queue.append((nxt, new_path))
    raise NoPlanError(f"goal {goal.text!r} is unreachable from the given state")


def plan(
    spec: DomainSpec,
    goal: Goal,
    state: SymbolicState,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[PlanStep, ...]:
    """Minimal plan for `goal` from `state`, sids from 1; empty if already satisfied."""
    _check_goal(spec, goal)
    return tuple(PlanStep(sid, op)
                 for sid, op in enumerate(_search(spec, goal, state, node_budget), 1))
