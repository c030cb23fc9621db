from .search import nearest, plan
from .types import (
    Goal,
    PlanStep,
    describe_literals,
    parse_goal_literal,
)

__all__ = [
    "Goal",
    "PlanStep",
    "describe_literals",
    "nearest",
    "parse_goal_literal",
    "plan",
]
