"""The agent seam: what an outside planner or critic plugs into.

`run_episode` and `evaluate_policy` take any object with `plan`/`replan` and
any critic callable. An outside agent reaches the loop through its own
adapter, so these tests pin what such an adapter gets and must hand back:
plan steps that pass the value-type checks, replans that resume at the
failed sid, and reports shaped like the builtin critic's. A run config
written while a remote backend existed is rejected by name.
"""

import numpy as np
import pytest
import yaml

from loopwm.bench import evaluate_policy, generate_suite
from loopwm.cli.config import DEFAULTS, RunConfig, UsageError, resolve_config
from loopwm.critic import CriticReport, CriticWeights, aggregate, evaluate
from loopwm.critic.scoring import DIMENSIONS, MAX_FRAME_DELTA, VALUE_BOX
from loopwm.loop import FrozenPolicy, LoopConfig, OraclePolicy, SearchPlanner, run_episode
from loopwm.microworld import Segment, reference_segment
from loopwm.microworld.types import ActionBinding, Literal, MAX_INSTRUCTION_WORDS
from loopwm.numerics import RandomSource
from loopwm.planner import (
    Goal,
    PlanSequence,
    PlanStep,
    parse_goal_literal,
    plan,
    replan,
)


def jar_goal():
    return Goal((Literal("jar.lid_removed", True),))


def open_step(kitchen):
    return plan(kitchen, jar_goal(), kitchen.initial_state()).steps[0]


def step_to_plain(step):
    return {
        "sid": step.sid,
        "instruction": step.instruction,
        "actions": [[a.verb, list(a.objects), a.tool] for a in step.actions],
        "pre": [str(lit) for lit in step.pre],
        "post": [str(lit) for lit in step.post],
    }


def step_from_plain(spec, plain):
    return PlanStep(
        plain["sid"],
        plain["instruction"],
        tuple(ActionBinding(verb, tuple(objects), tool) for verb, objects, tool in plain["actions"]),
        tuple(parse_goal_literal(spec, text) for text in plain["pre"]),
        tuple(parse_goal_literal(spec, text) for text in plain["post"]),
    )


class PlainDataPlanner:
    """An outside planner's adapter: its answers arrive as plain data.

    The plans come from the builtin search, flattened to plain values and
    rebuilt, the way an adapter over an outside agent would rebuild them.
    """

    def __init__(self):
        self.failures = []

    def _rebuild(self, spec, sequence):
        steps = tuple(step_from_plain(spec, step_to_plain(s)) for s in sequence.steps)
        return PlanSequence(steps, sequence.goal)

    def plan(self, spec, goal, state):
        return self._rebuild(spec, plan(spec, goal, state))

    def replan(self, spec, goal, failure):
        self.failures.append(failure)
        return self._rebuild(spec, replan(spec, goal, failure))


def plain_data_critic(tau):
    """An outside critic's adapter: scores and reasons arrive as plain data."""

    def critic(spec, segment, step):
        builtin = evaluate(spec, segment, step, tau=tau)
        scores = {d: float(builtin.scores[d]) for d in DIMENSIONS}
        return CriticReport(scores, dict(builtin.reasons), tuple(builtin.tags),
                            builtin.revised_instruction, aggregate(scores))

    return critic


# ---------------------------------------------------------------- config


def test_backend_validation(tmp_path):
    # run directories saved while the remote agent backend existed carry a
    # backend section; it is rejected by name instead of silently ignored
    assert "backend" not in DEFAULTS
    assert not hasattr(RunConfig, "agent_backend")
    path = tmp_path / "config.yaml"
    tree = {**DEFAULTS, "backend": {"kind": "builtin", "base_url": None, "timeout": 5.0,
                                    "retries": 2, "token_env": None}}
    path.write_text(yaml.safe_dump(tree, sort_keys=True))
    with pytest.raises(UsageError, match="unknown config key 'backend'"):
        resolve_config(path)
    path.write_text(yaml.safe_dump({"backend": {}}))
    with pytest.raises(UsageError, match="unknown config key 'backend'"):
        resolve_config(path)


# ---------------------------------------------------------------- plans


def test_parse_plan_jar_example(kitchen):
    # the path `loopwm plan "lid removed"` takes: goal text, then the search
    goal = Goal((parse_goal_literal(kitchen, "lid removed"),))
    assert goal == jar_goal()
    sequence = plan(kitchen, goal, kitchen.initial_state())
    step = sequence.steps[0]
    assert len(sequence.steps) == 1
    assert step.sid == 1
    assert step.pre == (Literal("jar.closed", True),)
    assert Literal("jar.lid_removed", True) in step.post
    assert step.actions[0].verb == "open"
    assert step.actions[0].objects == ("jar",)
    assert step.actions[0].tool == "hand"
    assert step_from_plain(kitchen, step_to_plain(step)) == step


def test_parse_plan_schema_errors(kitchen):
    # the checks every plan handed to the loop passes, whoever wrote it
    step = open_step(kitchen)
    with pytest.raises(ValueError, match="sid"):
        PlanStep(0, step.instruction, step.actions, step.pre, step.post)
    with pytest.raises(ValueError, match="action"):
        PlanStep(1, step.instruction, (), step.pre, step.post)
    wordy = " ".join(["very"] * MAX_INSTRUCTION_WORDS + ["long"])
    with pytest.raises(ValueError, match="instruction"):
        PlanStep(1, wordy, step.actions, step.pre, step.post)
    with pytest.raises(ValueError, match="instruction"):
        step.with_instruction("   ")
    with pytest.raises(ValueError, match="increasing"):
        PlanSequence((step, step), jar_goal())
    with pytest.raises(ValueError, match="literal"):
        Goal(())


def test_remote_replan_resumes_at_failed_sid(kitchen):
    # a policy that never moves exhausts the inner retries, so the loop asks
    # the planner to replan; the recovery plan resumes at the failed sid
    planner = PlainDataPlanner()
    config = LoopConfig(max_outer_replans=1)
    goal = Goal((Literal("cup.stirred", True),))
    log = run_episode(kitchen, goal, FrozenPolicy(kitchen), config=config,
                      rng=RandomSource(4), planner=planner)
    assert len(planner.failures) == 1
    failure = planner.failures[0]
    assert failure.failed_step.sid == 1
    assert failure.goal == goal
    assert failure.feedback_text.startswith("step 1 ")
    assert failure.state == kitchen.initial_state()
    assert [event.at_sid for event in log.replans] == [1]
    recovery = planner.replan(kitchen, goal, failure)
    assert recovery.steps[0].sid == failure.failed_step.sid


# ---------------------------------------------------------------- critic


def test_critic_all_ones_scalar_under_any_simplex_weights():
    ones = {d: 1.0 for d in DIMENSIONS}
    assert aggregate(ones) == 1.0
    for weights in (CriticWeights(0.6, 0.1, 0.1, 0.1, 0.1),
                    CriticWeights(1.0, 0.0, 0.0, 0.0, 0.0),
                    CriticWeights(0.2, 0.2, 0.2, 0.2, 0.2)):
        assert aggregate(ones, weights) == pytest.approx(1.0)


def test_critic_clamps_and_tags(kitchen):
    # the realism severity factor is clamped at 0: a frame far outside the
    # value box zeroes the dimension instead of driving it negative
    step = open_step(kitchen)
    seg = reference_segment(kitchen, kitchen.initial_state(), step.actions[0], 16)
    frames = seg.frames.copy()
    frames[8, kitchen.channel_index["hand.x"]] = VALUE_BOX[1] + 4 * MAX_FRAME_DELTA
    report = evaluate(kitchen, Segment(frames), step, tau=0.95)
    assert report.scores["physical_realism"] == 0.0
    assert all(0.0 <= report.scores[d] <= 1.0 for d in DIMENSIONS)
    assert report.scalar < 0.95
    assert "physics-violation" in report.tags
    # aggregate takes scores already in [0, 1] and does not clamp them itself
    with pytest.raises(ValueError, match="outside"):
        aggregate({**report.scores, "physical_realism": 1.3})


def test_critic_low_scores_get_tags(kitchen):
    # a segment with no specific fault still gets a tag when its scalar is
    # below tau: the weakest dimension, as a low-score tag
    step = open_step(kitchen)
    seg = reference_segment(kitchen, kitchen.initial_state(), step.actions[0], 16)
    passing = evaluate(kitchen, seg, step)
    assert passing.tags == ()
    strict = evaluate(kitchen, seg, step, tau=1.5)
    worst = min(DIMENSIONS, key=lambda d: (strict.scores[d], d))
    assert strict.scalar == passing.scalar
    assert strict.tags == (f"low-score:{worst}",)
    assert strict.revised_instruction != step.instruction


def test_remote_critic_matches_builtin_shape(kitchen):
    # what a critic adapter must hand back: the builtin report's shape
    step = open_step(kitchen)
    segment = reference_segment(
        kitchen, kitchen.initial_state(), step.actions[0], rng=RandomSource(1)
    )
    builtin = evaluate(kitchen, segment, step)
    assert set(builtin.scores) == set(builtin.reasons) == set(DIMENSIONS)
    assert builtin.scalar == aggregate(builtin.scores)
    assert set(builtin.details) == {"contact_applicable"}
    outside = plain_data_critic(0.7)(kitchen, segment, step)
    assert outside.scores == builtin.scores
    assert outside.scalar == builtin.scalar
    assert outside.details == {}


# ---------------------------------------------------------------- loop


def test_builtin_and_remote_are_interchangeable(kitchen):
    goal = jar_goal()
    config = LoopConfig()
    builtin_log = run_episode(
        kitchen, goal, OraclePolicy(kitchen), config=config,
        rng=RandomSource(5), planner=SearchPlanner(),
    )
    outside_log = run_episode(
        kitchen, goal, OraclePolicy(kitchen), config=config,
        rng=RandomSource(5), planner=PlainDataPlanner(),
        critic=plain_data_critic(config.tau),
    )
    assert builtin_log.succeeded and outside_log.succeeded
    assert outside_log.plan_length == builtin_log.plan_length == 1
    assert [a.report.scalar for a in outside_log.attempts] == \
        [a.report.scalar for a in builtin_log.attempts]
    assert np.array_equal(outside_log.attempts[0].segment.frames,
                          builtin_log.attempts[0].segment.frames)

    suite = generate_suite(kitchen, seed=11, counts=(3, 2, 1))
    builtin_report = evaluate_policy(OraclePolicy(kitchen), suite, config=config,
                                     rng=RandomSource(3))
    outside_report = evaluate_policy(OraclePolicy(kitchen), suite, config=config,
                                     rng=RandomSource(3), planner=PlainDataPlanner(),
                                     critic=plain_data_critic(config.tau))
    assert outside_report.to_dict() == builtin_report.to_dict()
