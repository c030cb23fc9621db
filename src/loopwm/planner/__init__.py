from .search import DEFAULT_NODE_BUDGET, plan
from .types import (
    Goal,
    PlanStep,
    describe_literals,
    parse_goal_literal,
)

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "Goal",
    "PlanStep",
    "describe_literals",
    "parse_goal_literal",
    "plan",
]
