import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopwm.critic import (
    CriticReport,
    CriticWeights,
    aggregate,
    evaluate,
    revise_instruction,
)
from loopwm.microworld import Segment, apply_operator, load_domain, reference_segment
from loopwm.planner import Goal, plan
from loopwm.microworld import parse_literal


def first_step(kitchen, *goal_lits):
    seq = plan(kitchen, Goal(tuple(parse_literal(t) for t in goal_lits)),
               kitchen.initial_state())
    return seq.steps[0]


def open_jar_step(kitchen):
    return first_step(kitchen, "jar.lid_removed")


def test_reference_segment_scores_high(kitchen):
    step = open_jar_step(kitchen)
    seg = reference_segment(kitchen, kitchen.initial_state(), step.actions[0], 16)
    report = evaluate(kitchen, seg, step)
    assert report.scores["action_adherence"] >= 0.9
    assert report.scores["goal_achievement"] == 1.0
    assert report.scores["object_interaction"] == 1.0
    assert report.scores["physical_realism"] == 1.0
    assert report.scalar >= 0.8
    assert report.tags == ()
    assert report.revised_instruction == step.instruction


@pytest.mark.parametrize("domain_name,goal_lits", [
    ("kitchen", ("cup.stirred",)),
    ("workshop", ("board.drilled", "board.sanded")),
])
def test_chained_references_score_high_everywhere(domain_name, goal_lits):
    spec = load_domain(domain_name)
    seq = plan(spec, Goal(tuple(parse_literal(t) for t in goal_lits)), spec.initial_state())
    state = spec.initial_state()
    for step in seq.steps:
        seg = reference_segment(spec, state, step.actions[0], 16)
        report = evaluate(spec, seg, step)
        assert report.scalar >= 0.8, (step.instruction, report.scores)
        assert report.scores["action_adherence"] >= 0.9
        assert min(report.scores.values()) >= 0.875
        state = apply_operator(spec, state, step.actions[0])


def test_frozen_segment_fails_with_post_condition_tags(kitchen):
    step = open_jar_step(kitchen)
    first = reference_segment(kitchen, kitchen.initial_state(), step.actions[0], 16).frames[0]
    frozen = Segment(np.tile(first, (16, 1)))
    report = evaluate(kitchen, frozen, step)
    assert report.scores["goal_achievement"] == 0.0
    assert report.scores["action_adherence"] == pytest.approx(2.0 / 3.0)
    assert report.scores["action_adherence"] < 0.7
    assert report.scalar < 0.7
    assert any(t.startswith("post-condition-unmet:") for t in report.tags)
    assert report.revised_instruction != step.instruction
    assert "Ensure post-condition" in report.revised_instruction


def test_teleporting_pose_tanks_realism(kitchen):
    step = open_jar_step(kitchen)
    seg = reference_segment(kitchen, kitchen.initial_state(), step.actions[0], 16)
    frames = seg.frames.copy()
    hx = kitchen.channel_index["hand.x"]
    hy = kitchen.channel_index["hand.y"]
    # teleport the hand to a far corner for the middle of the contact window
    frames[5:11, hx] = 0.95
    frames[5:11, hy] = 0.95
    report = evaluate(kitchen, Segment(frames), step)
    assert report.scores["physical_realism"] < 0.5
    assert report.scalar < 0.7
    assert "physics-violation" in report.tags
    assert "interaction-missed" in report.tags


def test_aggregate_is_weighted_mean():
    scores = {d: 0.6 for d in
              ("action_adherence", "object_interaction", "goal_achievement",
               "temporal_coherence", "physical_realism")}
    assert aggregate(scores) == pytest.approx(0.6)
    weights = CriticWeights(1.0, 0.0, 0.0, 0.0, 0.0)
    scores["action_adherence"] = 0.25
    assert aggregate(scores, weights) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        aggregate({"action_adherence": 1.0})
    with pytest.raises(ValueError):
        CriticWeights(-1.0, 0.2, 0.2, 0.2, 0.2)


def test_scalar_equals_weighted_mean_on_reports(kitchen):
    step = open_jar_step(kitchen)
    seg = reference_segment(kitchen, kitchen.initial_state(), step.actions[0], 16)
    weights = CriticWeights(0.2, 0.2, 0.2, 0.2, 0.2)
    report = evaluate(kitchen, seg, step, weights=weights)
    assert report.scalar == pytest.approx(aggregate(report.scores, weights))


def test_revise_instruction_empty_tags_is_identity(kitchen):
    step = open_jar_step(kitchen)
    report = CriticReport({d: 1.0 for d in
                           ("action_adherence", "object_interaction", "goal_achievement",
                            "temporal_coherence", "physical_realism")},
                          {}, (), step.instruction, 1.0)
    assert revise_instruction(step, report) == step.instruction


def test_revise_instruction_orders_by_severity(kitchen):
    step = open_jar_step(kitchen)
    scores = {
        "action_adherence": 0.9,
        "object_interaction": 0.9,
        "goal_achievement": 0.5,
        "temporal_coherence": 0.9,
        "physical_realism": 0.1,
    }
    # tags arrive severity-ordered from evaluate: realism (0.1) before goal (0.5)
    tags = ("physics-violation", "post-condition-unmet:jar.lid_removed")
    report = CriticReport(scores, {}, tags, step.instruction, 0.55)
    text = revise_instruction(step, report)
    physics_pos = text.find("Keep every per-frame motion")
    post_pos = text.find("Ensure post-condition 'lid removed'")
    assert 0 < physics_pos < post_pos


def test_revise_instruction_idempotent(kitchen):
    step = open_jar_step(kitchen)
    tags = ("post-condition-unmet:jar.lid_removed",)
    scores = {d: 0.5 for d in
              ("action_adherence", "object_interaction", "goal_achievement",
               "temporal_coherence", "physical_realism")}
    report = CriticReport(scores, {}, tags, step.instruction, 0.5)
    once = revise_instruction(step, report)
    twice = revise_instruction(step.with_instruction(once), report)
    assert once == twice
    assert len(once.split()) <= 36


def test_interaction_not_applicable_scores_one():
    from loopwm.microworld import domain_from_dict
    from loopwm.planner import PlanStep
    from loopwm.microworld.types import ActionBinding

    raw = {
        "name": "static",
        "actor": "hand",
        "objects": {"hand": {"position": [0.5, 0.5], "movable": True},
                    "lamp": {"position": [0.5, 0.6]}},
        "predicates": {"lamp.on": False},
        "operators": [{
            "verb": "toggle", "objects": ["lamp"],
            "pre": ["not lamp.on"], "post": ["lamp.on"],
        }],
    }
    spec = domain_from_dict(raw)
    state = spec.initial_state()
    seg = reference_segment(spec, state, ActionBinding("toggle", ("lamp",)), 16)
    step = PlanStep(1, "toggle the lamp", (ActionBinding("toggle", ("lamp",)),),
                    spec.operators[0].pre, spec.operators[0].post)
    report = evaluate(spec, seg, step)
    assert report.scores["object_interaction"] == 1.0
    assert report.details["contact_applicable"] is False
    assert report.details["per_action"][0]["match"] is False


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_scores_bounded_and_tags_match_threshold(data):
    kitchen = load_domain("kitchen")
    step = open_jar_step(kitchen)
    frames = data.draw(
        st.lists(
            st.lists(st.floats(-0.1, 1.1, allow_nan=False), min_size=12, max_size=12),
            min_size=2, max_size=10,
        )
    )
    report = evaluate(kitchen, Segment(np.array(frames)), step)
    for d, s in report.scores.items():
        assert 0.0 <= s <= 1.0, d
    assert 0.0 <= report.scalar <= 1.0
    assert (len(report.tags) > 0) == (report.scalar < 0.7)
