"""Closed-loop think-act-reflect engine."""

from ..memory import WorldMemory
from .engine import (
    STATUS_PLAN_FAILURE,
    STATUS_SUCCESS,
    AttemptRecord,
    Critique,
    EpisodeLog,
    LoopConfig,
    ReplanEvent,
    Request,
    episode,
    inner_refine,
)
from .policies import OraclePolicy, Policy

__all__ = [
    "AttemptRecord",
    "Critique",
    "EpisodeLog",
    "LoopConfig",
    "OraclePolicy",
    "Policy",
    "ReplanEvent",
    "Request",
    "STATUS_PLAN_FAILURE",
    "STATUS_SUCCESS",
    "WorldMemory",
    "episode",
    "inner_refine",
]
