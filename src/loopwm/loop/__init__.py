"""Closed-loop think-act-reflect engine."""

from ..memory import Transition, WorldMemory
from .engine import (
    STATUS_BUDGET,
    STATUS_PLAN_FAILURE,
    STATUS_SUCCESS,
    AttemptRecord,
    EpisodeLog,
    LoopConfig,
    ReplanEvent,
    Request,
    SearchPlanner,
    default_critic,
    episode,
    fulfil,
    inner_refine,
    run_episode,
    write_episode_logs,
)
from .policies import FrozenPolicy, OraclePolicy, Policy

__all__ = [
    "AttemptRecord",
    "EpisodeLog",
    "FrozenPolicy",
    "LoopConfig",
    "OraclePolicy",
    "Policy",
    "ReplanEvent",
    "Request",
    "STATUS_BUDGET",
    "STATUS_PLAN_FAILURE",
    "STATUS_SUCCESS",
    "SearchPlanner",
    "Transition",
    "WorldMemory",
    "default_critic",
    "episode",
    "fulfil",
    "inner_refine",
    "run_episode",
    "write_episode_logs",
]
