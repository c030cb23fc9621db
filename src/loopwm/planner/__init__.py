from .search import (
    DEFAULT_NODE_BUDGET,
    RETRY_SAME_TAG,
    plan,
    replan,
    validate_plan,
)
from .types import (
    FailureContext,
    Goal,
    PlanSequence,
    PlanStep,
    ValidationReport,
    describe_literals,
    parse_goal_literal,
)

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "FailureContext",
    "Goal",
    "PlanSequence",
    "PlanStep",
    "RETRY_SAME_TAG",
    "ValidationReport",
    "describe_literals",
    "parse_goal_literal",
    "plan",
    "replan",
    "validate_plan",
]
