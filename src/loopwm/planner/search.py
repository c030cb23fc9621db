"""Plans read off the domain's plan graph.

Poses never gate operators, so planning runs over predicate states alone.
`DomainSpec.plan_graph` holds every predicate state within MAX_PLAN_LEN
steps of the initial state, numbered in the order one breadth-first pass,
expanding operators in (verb, objects) order, first reaches them. `nearest`
finds the first node where some literals hold, which is the shallowest;
`plan` walks that node's parent chain back to the initial state. The plan
is therefore the lexicographically smallest among the minimal-length
candidates, and every run is deterministic. A goal that no state within
MAX_PLAN_LEN steps satisfies raises NoPlanError; plans are never silently
truncated.
"""

from __future__ import annotations

from ..errors import DomainError, NoPlanError
from ..microworld.types import MAX_PLAN_LEN, DomainSpec, Literal
from .types import Goal, PlanStep


def nearest(spec: DomainSpec, literals: tuple[Literal, ...]) -> int | None:
    """Index in `spec.plan_graph` of the first node where all `literals` hold, or None."""
    true, false = spec.literal_masks(literals)
    return next((n for n, node in enumerate(spec.plan_graph)
                 if node.key & true == true and not node.key & false), None)


def plan(spec: DomainSpec, goal: Goal) -> tuple[PlanStep, ...]:
    """Minimal plan for `goal` from the initial state, sids from 1; empty if already satisfied."""
    known = {p for p, _ in spec.predicates}
    for lit in goal.literals:
        if lit.pred not in known:
            raise DomainError(f"goal references unknown predicate {lit.pred!r}")
    n = nearest(spec, goal.literals)
    if n is None:
        raise NoPlanError(f"goal {goal.text!r} is unreachable within {MAX_PLAN_LEN} steps "
                          "of the initial state")
    ops = []
    while n:
        node = spec.plan_graph[n]
        ops.append(node.op)
        n = node.parent
    return tuple(PlanStep(sid, op) for sid, op in enumerate(reversed(ops), 1))
