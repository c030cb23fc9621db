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
from ..microworld.dynamics import apply_operator
from ..microworld.types import ActionBinding, DomainSpec, Operator, SymbolicState
from .types import FailureContext, Goal, PlanSequence, PlanStep, ValidationReport

DEFAULT_NODE_BUDGET = 100_000
RETRY_SAME_TAG = "retry-same"


def _check_goal(spec: DomainSpec, goal: Goal) -> None:
    known = {p for p, _ in spec.predicates}
    for lit in goal.literals:
        if lit.pred not in known:
            raise DomainError(f"goal references unknown predicate {lit.pred!r}")


def _steps_from_operators(ops: tuple[Operator, ...], first_sid: int) -> tuple[PlanStep, ...]:
    return tuple(
        PlanStep(first_sid + i, op.instruction, (op.binding,), op.pre, op.post)
        for i, op in enumerate(ops)
    )


def _search(
    spec: DomainSpec,
    goal: Goal,
    state: SymbolicState,
    node_budget: int,
    forbidden_first: ActionBinding | None = None,
) -> tuple[Operator, ...]:
    goal_true, goal_false = spec.literal_masks(goal.literals)
    start = spec.state_key(state)
    if start & goal_true == goal_true and not start & goal_false:
        return ()
    forbidden = None
    if forbidden_first is not None:
        forbidden = next((i for i, op in enumerate(spec.operators)
                          if op.binding == forbidden_first), None)
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
            if not path and index == forbidden:
                continue
            nxt = (current & ~post_false) | post_true
            if nxt in visited:
                continue
            new_path = path + (index,)
            if nxt & goal_true == goal_true and not nxt & goal_false:
                return tuple(spec.operators[i] for i in new_path)
            visited.add(nxt)
            queue.append((nxt, new_path))
    raise NoPlanError(f"goal {goal.text!r} is unreachable from the given state")


def plan(
    spec: DomainSpec,
    goal: Goal,
    state: SymbolicState,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> PlanSequence:
    """Minimal plan for `goal` from `state`; empty if already satisfied."""
    _check_goal(spec, goal)
    path = _search(spec, goal, state, node_budget)
    return PlanSequence(_steps_from_operators(path, 1), goal)


def validate_plan(
    spec: DomainSpec,
    sequence: PlanSequence,
    state: SymbolicState,
    check_goal: bool = True,
) -> ValidationReport:
    """Simulate the plan symbolically and report the first violated literal."""
    current = state
    for step in sequence.steps:
        for binding in step.actions:
            op = spec.find_operator(binding)
            for lit in op.pre:
                if not lit.holds_in(current.predicates):
                    return ValidationReport(False, (step.sid, lit), None, current)
            current = apply_operator(spec, current, binding)
    goal_ok = current.satisfies(sequence.goal.literals) if check_goal else None
    ok = goal_ok is not False
    return ValidationReport(ok, None, goal_ok, current)


def replan(
    spec: DomainSpec,
    goal: Goal,
    failure: FailureContext,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> PlanSequence:
    """Recovery plan from the failure's memory state.

    The new sequence starts at the failed step's sid. Unless the feedback
    carries the retry-same tag, the failed (operator, binding) is excluded
    as the first action. With retry-same, a still-valid remaining draft is
    returned unchanged (identity recovery); executed steps are never
    revisited because search starts from the current memory state.
    """
    _check_goal(spec, goal)
    start_sid = failure.failed_step.sid
    retry_same = RETRY_SAME_TAG in failure.tags
    if retry_same:
        draft = PlanSequence((failure.failed_step,) + tuple(failure.remaining), goal)
        report = validate_plan(spec, draft, failure.state)
        if report.ok and report.goal_satisfied:
            return draft
    forbidden = None if retry_same else failure.failed_step.actions[0]
    path = _search(spec, goal, failure.state, node_budget, forbidden_first=forbidden)
    return PlanSequence(_steps_from_operators(path, start_sid), goal)
