"""Pluggable agent backends: builtin planner/critic or JSON-over-HTTP."""

from .backend import (
    AgentBackend,
    RemoteClient,
    WireRecord,
    canonical_bytes,
    payload_hash,
    remote_backend,
)
from .mock import MockRule, MockServerHandle, load_mock_script, run_mock_server, subset_match
from .remote import (
    CRITIC_ENDPOINT,
    PLAN_ENDPOINT,
    REPLAN_ENDPOINT,
    RemotePlanner,
    remote_critic,
    remote_critic_fn,
    remote_plan,
    remote_replan,
    segment_summary,
)
from .wire import (
    WIRE_DIMENSIONS,
    encode_step,
    parse_critic_response,
    parse_plan_response,
    parse_wire_literal,
    parse_wire_step,
)

__all__ = [
    "AgentBackend",
    "CRITIC_ENDPOINT",
    "MockRule",
    "MockServerHandle",
    "PLAN_ENDPOINT",
    "REPLAN_ENDPOINT",
    "RemoteClient",
    "RemotePlanner",
    "WIRE_DIMENSIONS",
    "WireRecord",
    "canonical_bytes",
    "encode_step",
    "load_mock_script",
    "parse_critic_response",
    "parse_plan_response",
    "parse_wire_literal",
    "parse_wire_step",
    "payload_hash",
    "remote_backend",
    "remote_critic",
    "remote_critic_fn",
    "remote_plan",
    "remote_replan",
    "run_mock_server",
    "segment_summary",
    "subset_match",
]
