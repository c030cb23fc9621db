"""Wire schemas, remote backends, and the scripted mock server.

The integration tests drive real HTTP over loopback. Wire parsing is also
covered without a server so schema failures localize.
"""

import json
import threading
from pathlib import Path

import pytest

from loopwm.critic import CriticWeights, DEFAULT_WEIGHTS, evaluate
from loopwm.errors import LoopwmError, RemoteError, WireError
from loopwm.gateway import (
    AgentBackend,
    MockRule,
    RemoteClient,
    RemotePlanner,
    canonical_bytes,
    encode_step,
    parse_critic_response,
    parse_plan_response,
    parse_wire_literal,
    parse_wire_step,
    payload_hash,
    remote_backend,
    remote_critic_fn,
    remote_replan,
    run_mock_server,
    segment_summary,
)
from loopwm.loop import LoopConfig, OraclePolicy, SearchPlanner, run_episode
from loopwm.microworld import reference_segment
from loopwm.microworld.types import Literal
from loopwm.numerics import RandomSource
from loopwm.planner import FailureContext, Goal, plan

DATA = Path(__file__).parent / "data"

JAR_STEP = {
    "sid": 1,
    "action instruction": "open the jar and set the lid aside",
    "actions": [{"verb": "open", "objects": ["jar"], "tool": "hand"}],
    "pre": ["jar closed"],
    "post": ["lid removed", "not jar.closed"],
}


def jar_goal():
    return Goal((Literal("jar.lid_removed", True),))


def all_ones_scores():
    return {
        "scores": {
            "action_adherence": {"score": 1.0, "reason": "a"},
            "object_interaction": {"score": 1.0, "reason": "b"},
            "goal_achievement": {"score": 1.0, "reason": "c"},
            "temporal_coherence": {"score": 1.0, "reason": "d"},
            "visual_physics_realism": {"score": 1.0, "reason": "e"},
        }
    }


def open_step(kitchen):
    return plan(kitchen, jar_goal(), kitchen.initial_state()).steps[0]


# ---------------------------------------------------------------- backends


def test_backend_validation():
    assert AgentBackend("builtin").kind == "builtin"
    remote = remote_backend("http://127.0.0.1:1", timeout=1.0, retries=0)
    assert remote.kind == "remote"
    with pytest.raises(LoopwmError):
        AgentBackend("psychic")
    with pytest.raises(LoopwmError):
        AgentBackend("remote", base_url="ftp://nope")
    with pytest.raises(LoopwmError):
        remote_backend("http://x", timeout=0.0)
    with pytest.raises(LoopwmError):
        remote_backend("http://x", retries=-1)
    with pytest.raises(LoopwmError):
        RemoteClient(AgentBackend("builtin"))


def test_bearer_token_from_environment(monkeypatch):
    with run_mock_server([MockRule("/plan", {"ok": True})]) as handle:
        monkeypatch.setenv("GATEWAY_TOKEN", "sekrit")
        client = RemoteClient(
            remote_backend(handle.base_url, timeout=2.0, token_env="GATEWAY_TOKEN")
        )
        client.post("/plan", {"x": 1})
        assert handle.seen[0]["authorization"] == "Bearer sekrit"

        monkeypatch.delenv("GATEWAY_TOKEN")
        with pytest.raises(LoopwmError, match="GATEWAY_TOKEN"):
            RemoteClient(
                remote_backend(handle.base_url, timeout=2.0, token_env="GATEWAY_TOKEN")
            )


# -------------------------------------------------------------- wire: plan


def test_wire_literal_forms(kitchen):
    assert parse_wire_literal(kitchen, "jar.closed") == Literal("jar.closed", True)
    assert parse_wire_literal(kitchen, "not jar.closed") == Literal("jar.closed", False)
    assert parse_wire_literal(kitchen, "jar closed") == Literal("jar.closed", True)
    assert parse_wire_literal(kitchen, "lid removed") == Literal("jar.lid_removed", True)
    assert parse_wire_literal(kitchen, "kettle grasped") == Literal("kettle.grasped", True)
    # "grasped" is a suffix of two predicates, so it must be rejected
    with pytest.raises(WireError, match="grasped"):
        parse_wire_literal(kitchen, "grasped")
    with pytest.raises(WireError):
        parse_wire_literal(kitchen, "cup levitating")
    with pytest.raises(WireError):
        parse_wire_literal(kitchen, "")


def test_parse_plan_jar_example(kitchen):
    sequence = parse_plan_response(kitchen, {"steps": [JAR_STEP]}, jar_goal())
    step = sequence.steps[0]
    assert step.sid == 1
    assert step.pre == (Literal("jar.closed", True),)
    assert Literal("jar.lid_removed", True) in step.post
    assert step.actions[0].verb == "open"
    assert step.actions[0].objects == ("jar",)
    assert step.actions[0].tool == "hand"


def test_parse_plan_accepts_text_alias(kitchen):
    step = dict(JAR_STEP)
    step["text"] = step.pop("action instruction")
    sequence = parse_plan_response(kitchen, {"steps": [step]}, jar_goal())
    assert sequence.steps[0].instruction == "open the jar and set the lid aside"


def test_parse_plan_schema_errors(kitchen):
    goal = jar_goal()
    with pytest.raises(WireError, match="steps"):
        parse_plan_response(kitchen, {"plan": []}, goal)
    with pytest.raises(WireError):
        parse_plan_response(kitchen, {"steps": []}, goal)
    bad_sid = dict(JAR_STEP, sid="one")
    with pytest.raises(WireError, match="sid"):
        parse_plan_response(kitchen, {"steps": [bad_sid]}, goal)
    no_actions = dict(JAR_STEP, actions=[])
    with pytest.raises(WireError, match="actions"):
        parse_plan_response(kitchen, {"steps": [no_actions]}, goal)
    with pytest.raises(WireError, match="increasing"):
        parse_plan_response(kitchen, {"steps": [JAR_STEP, JAR_STEP]}, goal)
    wordy = dict(JAR_STEP)
    wordy["action instruction"] = "very " * 40 + "long"
    with pytest.raises(WireError):
        parse_plan_response(kitchen, {"steps": [wordy]}, goal)


def test_encode_step_round_trip(kitchen):
    step = open_step(kitchen)
    back = parse_wire_step(kitchen, encode_step(step), 0)
    assert back == step


# ------------------------------------------------------------ wire: critic


def test_critic_all_ones_scalar_under_any_simplex_weights(kitchen):
    step = open_step(kitchen)
    report = parse_critic_response(all_ones_scores(), step)
    assert report.scalar == 1.0
    lopsided = CriticWeights(0.6, 0.1, 0.1, 0.1, 0.1)
    assert parse_critic_response(all_ones_scores(), step, weights=lopsided).scalar == 1.0
    assert report.tags == ()
    assert report.revised_instruction == step.instruction


def test_critic_clamps_and_tags(kitchen):
    step = open_step(kitchen)
    payload = all_ones_scores()
    payload["scores"]["visual_physics_realism"]["score"] = 1.3
    payload["scores"]["temporal_coherence"]["score"] = -0.2
    report = parse_critic_response(payload, step)
    assert report.scores["physical_realism"] == 1.0
    assert report.scores["temporal_coherence"] == 0.0
    assert "clamped:physical_realism" in report.tags
    assert "clamped:temporal_coherence" in report.tags


def test_critic_scalar_recomputed_not_trusted(kitchen):
    step = open_step(kitchen)
    payload = all_ones_scores()
    payload["scalar"] = 0.01  # a lying wire scalar must be ignored
    report = parse_critic_response(payload, step)
    assert report.scalar == 1.0


def test_critic_per_item_arrays_average(kitchen):
    step = open_step(kitchen)
    payload = all_ones_scores()
    payload["scores"]["object_interaction"] = {
        "reason": "",
        "per_action": [{"score": 1.0}, {"score": 0.5}],
    }
    report = parse_critic_response(payload, step)
    assert report.scores["object_interaction"] == pytest.approx(0.75)


def test_critic_low_scores_get_tags(kitchen):
    step = open_step(kitchen)
    payload = all_ones_scores()
    payload["scores"]["action_adherence"]["score"] = 0.1
    payload["scores"]["goal_achievement"]["score"] = 0.0
    report = parse_critic_response(payload, step, tau=0.7)
    assert report.scalar < 0.7
    assert report.tags[0] == "low-score:goal_achievement"
    assert "low-score:action_adherence" in report.tags


def test_critic_schema_errors(kitchen):
    step = open_step(kitchen)
    with pytest.raises(WireError, match="scores"):
        parse_critic_response({"score": 1.0}, step)
    missing = all_ones_scores()
    del missing["scores"]["temporal_coherence"]
    with pytest.raises(WireError, match="temporal_coherence"):
        parse_critic_response(missing, step)
    nan = all_ones_scores()
    nan["scores"]["action_adherence"]["score"] = float("nan")
    with pytest.raises(WireError, match="finite"):
        parse_critic_response(nan, step)
    stringy = all_ones_scores()
    stringy["scores"]["action_adherence"]["score"] = "great"
    with pytest.raises(WireError, match="number"):
        parse_critic_response(stringy, step)


def test_critic_golden_example_parsed_without_loss(kitchen):
    payload = json.loads((DATA / "critic_example.json").read_text())
    step = open_step(kitchen)
    report = parse_critic_response(payload, step)
    assert report.details["wire_scores"] == payload["scores"]
    assert report.details["per_action"] == payload["scores"]["object_interaction"]["per_action"]
    assert report.details["per_event"] == payload["scores"]["goal_achievement"]["per_event"]
    assert report.scores["action_adherence"] == 0.85
    assert report.scores["physical_realism"] == 0.8
    assert report.scores["object_interaction"] == 1.0


# ------------------------------------------------------------- mock server


def test_mock_unmatched_is_404_with_echo():
    with run_mock_server([]) as handle:
        client = RemoteClient(remote_backend(handle.base_url, timeout=2.0, retries=0))
        with pytest.raises(RemoteError, match="404"):
            client.post("/plan", {"marker": 7})
        assert handle.seen[0]["payload"] == {"marker": 7}
        assert len(handle.seen) == 1  # 4xx is not retried


def test_mock_retry_on_500_then_success():
    rules = [
        MockRule("/plan", {"error": "flaky"}, status=500, once=True),
        MockRule("/plan", {"ok": True}),
    ]
    with run_mock_server(rules) as handle:
        client = RemoteClient(remote_backend(handle.base_url, timeout=2.0, retries=1))
        assert client.post("/plan", {}) == {"ok": True}
        assert client.transcript[0].attempts == 2


def test_mock_timeout_then_success_logs_retry():
    rules = [
        MockRule("/plan", {"ok": 1}, delay_ms=900, once=True),
        MockRule("/plan", {"ok": 2}),
    ]
    with run_mock_server(rules) as handle:
        client = RemoteClient(remote_backend(handle.base_url, timeout=0.3, retries=1))
        assert client.post("/plan", {}) == {"ok": 2}
        assert client.transcript[0].attempts == 2


def test_mock_exhausted_retries():
    with run_mock_server([MockRule("/plan", {}, delay_ms=700)]) as handle:
        client = RemoteClient(remote_backend(handle.base_url, timeout=0.2, retries=1))
        with pytest.raises(RemoteError, match="unreachable"):
            client.post("/plan", {})


def test_mock_port_busy():
    with run_mock_server([]) as handle:
        with pytest.raises(LoopwmError, match="bind"):
            run_mock_server([], port=handle.port)


def test_mock_concurrent_matchers_are_order_insensitive():
    rules = [
        MockRule("/critic", {"who": "a"}, match={"id": "a"}),
        MockRule("/critic", {"who": "b"}, match={"id": "b"}),
    ]
    with run_mock_server(rules) as handle:
        client = RemoteClient(remote_backend(handle.base_url, timeout=2.0))
        results = {}

        def call(tag):
            results[tag] = client.post("/critic", {"id": tag})

        threads = [threading.Thread(target=call, args=(t,)) for t in ("b", "a")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == {"a": {"who": "a"}, "b": {"who": "b"}}


# ------------------------------------------------------------- remote plan


def test_remote_plan_via_bundled_script(kitchen):
    with run_mock_server(DATA / "mock_script.json") as handle:
        client = RemoteClient(remote_backend(handle.base_url, timeout=2.0))
        planner = RemotePlanner(client)
        sequence = planner.plan(kitchen, jar_goal(), kitchen.initial_state())
        assert len(sequence.steps) == 1
        assert sequence.steps[0].pre == (Literal("jar.closed", True),)


def test_remote_plan_revalidates_and_rerequests(kitchen):
    # first answer pours before opening; the re-request must carry the
    # violation and the second answer is accepted
    bad = {
        "steps": [
            {
                "sid": 1,
                "action instruction": "pour tea leaves from the jar into the cup",
                "actions": [{"verb": "pour", "objects": ["jar", "cup"], "tool": "hand"}],
                "pre": [],
                "post": ["cup.has_tea"],
            }
        ]
    }
    rules = [
        MockRule("/plan", bad, once=True),
        MockRule("/plan", {"steps": [JAR_STEP]}),
    ]
    with run_mock_server(rules) as handle:
        client = RemoteClient(remote_backend(handle.base_url, timeout=2.0))
        sequence = RemotePlanner(client).plan(kitchen, jar_goal(), kitchen.initial_state())
        assert sequence.steps[0].actions[0].verb == "open"
        assert len(handle.seen) == 2
        assert "violation" in handle.seen[1]["payload"]
        assert "lid removed" in handle.seen[1]["payload"]["violation"]


def test_remote_plan_invalid_twice_errors(kitchen):
    bad = {
        "steps": [
            {
                "sid": 1,
                "action instruction": "pour tea leaves from the jar into the cup",
                "actions": [{"verb": "pour", "objects": ["jar", "cup"], "tool": "hand"}],
                "pre": [],
                "post": ["cup.has_tea"],
            }
        ]
    }
    with run_mock_server([MockRule("/plan", bad)]) as handle:
        client = RemoteClient(remote_backend(handle.base_url, timeout=2.0))
        with pytest.raises(RemoteError, match="invalid plan twice"):
            RemotePlanner(client).plan(kitchen, jar_goal(), kitchen.initial_state())


def test_remote_plan_missing_steps_is_schema_error(kitchen):
    with run_mock_server([MockRule("/plan", {"thoughts": "hmm"})]) as handle:
        client = RemoteClient(remote_backend(handle.base_url, timeout=2.0))
        with pytest.raises(WireError, match="steps"):
            RemotePlanner(client).plan(kitchen, jar_goal(), kitchen.initial_state())


def test_remote_replan_resumes_at_failed_sid(kitchen):
    step = open_step(kitchen)
    failure = FailureContext(
        goal=jar_goal(),
        failed_step=step,
        tags=("low-score:action_adherence",),
        feedback_text="step 1 peaked below tau",
        remaining=(),
        state=kitchen.initial_state(),
    )
    with run_mock_server([MockRule("/replan", {"steps": [JAR_STEP]})]) as handle:
        client = RemoteClient(remote_backend(handle.base_url, timeout=2.0))
        sequence = remote_replan(client, kitchen, failure.goal, failure)
        assert sequence.steps[0].sid == step.sid
        payload = handle.seen[0]["payload"]
        assert payload["critic_feedback"] == "step 1 peaked below tau"
        assert payload["failed_attempt"]["sid"] == 1
        assert payload["remaining_steps"] == []
        assert "state_summary" in payload

    wrong = dict(JAR_STEP, sid=3)
    with run_mock_server([MockRule("/replan", {"steps": [wrong]})]) as handle:
        client = RemoteClient(remote_backend(handle.base_url, timeout=2.0))
        with pytest.raises(RemoteError, match="resume at sid 1"):
            remote_replan(client, kitchen, failure.goal, failure)


# ------------------------------------------------------------- integration


def test_builtin_and_remote_are_interchangeable(kitchen):
    goal = jar_goal()
    config = LoopConfig()

    builtin_log = run_episode(
        kitchen, goal, OraclePolicy(kitchen), config=config,
        rng=RandomSource(5), planner=SearchPlanner(),
    )
    assert builtin_log.succeeded

    with run_mock_server(DATA / "mock_script.json") as handle:
        client = RemoteClient(remote_backend(handle.base_url, timeout=3.0))
        remote_log = run_episode(
            kitchen, goal, OraclePolicy(kitchen), config=config,
            rng=RandomSource(5), planner=RemotePlanner(client),
            critic=remote_critic_fn(client),
        )
    assert remote_log.succeeded
    assert remote_log.plan_length == builtin_log.plan_length == 1


def test_transcript_replays_byte_identical(tmp_path, kitchen):
    goal = jar_goal()
    with run_mock_server(DATA / "mock_script.json") as handle:
        client = RemoteClient(remote_backend(handle.base_url, timeout=3.0))
        log = run_episode(
            kitchen, goal, OraclePolicy(kitchen), config=LoopConfig(),
            rng=RandomSource(5), planner=RemotePlanner(client),
            critic=remote_critic_fn(client),
        )
        assert log.succeeded
        fresh = client.write_transcript(tmp_path / "transcript.jsonl")
    golden = DATA / "golden_transcript.jsonl"
    assert fresh.read_bytes() == golden.read_bytes()
    for line in golden.read_text().splitlines():
        record = json.loads(line)
        assert record["request_sha256"] == payload_hash(record["request"])
        assert record["response_sha256"] == payload_hash(record["response"])


def test_remote_critic_matches_builtin_shape(kitchen):
    # the remote report drives the same code paths as the builtin one
    step = open_step(kitchen)
    segment = reference_segment(
        kitchen, kitchen.initial_state(), step.actions[0], rng=RandomSource(1)
    )
    builtin_report = evaluate(kitchen, segment, step)
    with run_mock_server(DATA / "mock_script.json") as handle:
        client = RemoteClient(remote_backend(handle.base_url, timeout=2.0))
        remote_report = remote_critic_fn(client)(kitchen, segment, step)
    assert set(remote_report.scores) == set(builtin_report.scores)
    assert remote_report.scalar == 1.0
    text = segment_summary(kitchen, segment)
    assert text.startswith("start: ") and "| end: " in text and "frames:" in text


def test_canonical_bytes_stable():
    a = canonical_bytes({"b": 1, "a": [1, 2]})
    b = canonical_bytes({"a": [1, 2], "b": 1})
    assert a == b == b'{"a":[1,2],"b":1}'
    assert payload_hash({"b": 1, "a": [1, 2]}) == payload_hash({"a": [1, 2], "b": 1})
