from dataclasses import FrozenInstanceError, fields
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopwm.bench import generate_suite
from loopwm.critic import (
    CriticReport,
    CriticWeights,
    evaluate_rows,
    score_group,
)
from loopwm.critic import scoring
from loopwm.critic.scoring import (
    COHERENCE_SCALE,
    CONTACT_RADIUS,
    DIMENSIONS,
    MAX_FRAME_DELTA,
    VALUE_BOX,
    _second_difference_msd,
    coherence_score,
)
from loopwm.microworld import (
    apply_operator,
    canonical_dict,
    contact_window_frames,
    domain_from_dict,
    load_domain,
    reference_segment,
)
from loopwm.numerics import RandomSource
from loopwm.planner import Goal, PlanStep, plan
from loopwm.microworld import parse_literal
from oracles import (
    aggregate,
    decode_frame,
    evaluate,
    reference_rows,
    reference_score_group,
)


def first_step(kitchen, *goal_lits):
    return plan(kitchen, Goal(tuple(parse_literal(t) for t in goal_lits)))[0]


def open_jar_step(kitchen):
    return first_step(kitchen, "jar.lid_removed")


def test_reference_segment_scores_high(kitchen):
    step = open_jar_step(kitchen)
    seg = reference_segment(kitchen, kitchen.initial_frame, step.op, 16)
    report = evaluate(kitchen, seg, step)
    assert report.scores["action_adherence"] >= 0.9
    assert report.scores["goal_achievement"] == 1.0
    assert report.scores["object_interaction"] == 1.0
    assert report.scores["physical_realism"] == 1.0
    assert report.scalar >= 0.8
    assert report.tags == ()


@pytest.mark.parametrize("domain_name,goal_lits", [
    ("kitchen", ("cup.stirred",)),
    ("workshop", ("board.drilled", "board.sanded")),
])
def test_chained_references_score_high_everywhere(domain_name, goal_lits):
    spec = load_domain(domain_name)
    seq = plan(spec, Goal(tuple(parse_literal(t) for t in goal_lits)))
    state = spec.initial_frame
    for step in seq:
        seg = reference_segment(spec, state, step.op, 16)
        report = evaluate(spec, seg, step)
        assert report.scalar >= 0.8, (str(spec.operators[step.op]), report.scores)
        assert report.scores["action_adherence"] >= 0.9
        assert min(report.scores.values()) >= 0.875
        state = apply_operator(spec, state, step.op)


def test_frozen_segment_fails_with_post_condition_tags(kitchen):
    step = open_jar_step(kitchen)
    first = reference_segment(kitchen, kitchen.initial_frame, step.op, 16)[0]
    frozen = np.tile(first, (16, 1))
    report = evaluate(kitchen, frozen, step)
    assert report.scores["goal_achievement"] == 0.0
    assert report.scores["action_adherence"] == pytest.approx(2.0 / 3.0)
    assert report.scores["action_adherence"] < 0.7
    assert report.scalar < 0.7
    assert any(t.startswith("post-condition-unmet:") for t in report.tags)


def test_teleporting_pose_tanks_realism(kitchen):
    step = open_jar_step(kitchen)
    seg = reference_segment(kitchen, kitchen.initial_frame, step.op, 16)
    frames = seg.copy()
    hx = kitchen.channel_index["hand.x"]
    hy = kitchen.channel_index["hand.y"]
    # teleport the hand to a far corner for the middle of the contact window
    frames[5:11, hx] = 0.95
    frames[5:11, hy] = 0.95
    report = evaluate(kitchen, frames, step)
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
    seg = reference_segment(kitchen, kitchen.initial_frame, step.op, 16)
    weights = CriticWeights(0.2, 0.2, 0.2, 0.2, 0.2)
    report = evaluate(kitchen, seg, step, weights=weights)
    assert report.scalar == pytest.approx(aggregate(report.scores, weights))


def test_interaction_not_applicable_scores_one():
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
    seg = reference_segment(spec, spec.initial_frame, 0, 16)
    report = evaluate(spec, seg, PlanStep(1, 0))
    assert report.scores["object_interaction"] == 1.0
    assert report.contact_applicable is False


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
    report = evaluate(kitchen, np.array(frames), step)
    for d, s in report.scores.items():
        assert 0.0 <= s <= 1.0, d
    assert 0.0 <= report.scalar <= 1.0
    assert (len(report.tags) > 0) == (report.scalar < 0.7)


# batch scoring


@cache
def pinned_suite_steps():
    """Every step of every plan in the pinned kitchen suite (seed 0, 20/20/10)."""
    kitchen = load_domain("kitchen")
    suite = generate_suite(kitchen, 0, counts=(20, 20, 10))
    steps = [step for task in suite.tasks
             for step in plan(kitchen, task.goal)]
    return kitchen, steps


def reference_scores(spec, frames, step):
    """The five scores of one (F, C) segment from decoded frames, segment by segment."""
    op = spec.operators[step.op]
    first, _ = decode_frame(spec, frames[0])
    final, _ = decode_frame(spec, frames[-1])
    post = {lit: final[lit.pred] == lit.value for lit in op.post}
    pre = {lit: first[lit.pred] == lit.value for lit in op.pre}
    goal = float(np.mean(list(post.values()))) if post else 1.0
    pre_frac = float(np.mean(list(pre.values()))) if pre else 1.0
    cols = [spec.channel_index[lit.pred] for lit in op.post]
    targets = np.array([1.0 if lit.value else 0.0 for lit in op.post])
    mono = float(np.mean(np.diff(np.abs(frames[:, cols] - targets).sum(axis=1)) <= 1e-9))
    adherence = (pre_frac + goal + (1.0 if mono >= 0.8 else mono / 0.8)) / 3.0

    def position(name):
        if spec.objects[name].movable:
            return (frames[:, spec.channel_index[f"{name}.x"]],
                    frames[:, spec.channel_index[f"{name}.y"]])
        return spec.objects[name].position

    actor = spec.acting_entity(op)
    interaction = 1.0
    if actor is not None:
        w0, w1 = contact_window_frames(op.motion.contact, frames.shape[0])
        (ax, ay), (tx, ty) = position(actor), position(op.motion.target)
        window = np.hypot(ax - tx, ay - ty)[w0 : w1 + 1]
        interaction = float(np.mean(window <= CONTACT_RADIUS))
    msd = 0.0
    if frames.shape[0] >= 3:
        second = frames[2:] - 2.0 * frames[1:-1] + frames[:-2]
        msd = float(np.mean(second * second))
    lo, hi = VALUE_BOX
    excess = np.maximum(np.maximum(frames - hi, lo - frames).max(axis=1), 0.0)
    excess[1:] = np.maximum(excess[1:],
                            np.abs(np.diff(frames, axis=0)).max(axis=1) - MAX_FRAME_DELTA)
    severity = min(max(1.0 - float(excess.max()) / MAX_FRAME_DELTA, 0.0), 1.0)
    return {
        "action_adherence": adherence,
        "object_interaction": interaction,
        "goal_achievement": goal,
        "temporal_coherence": coherence_score(msd),
        "physical_realism": float(np.mean(excess <= 0.0)) * severity,
    }


def assert_reports_equal(got: CriticReport, want: CriticReport) -> None:
    for f in fields(CriticReport):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


@settings(max_examples=10, deadline=None)
@given(
    rows=st.sampled_from([1, 3, 8]),
    n_frames=st.sampled_from([2, 3, 8, 16]),
    # per-frame steps below, near and far beyond the 0.25 delta bound; the
    # walks leave the [-0.05, 1.05] box at the larger scales
    scale=st.sampled_from([0.01, 0.1, 0.3, 1.0]),
    snap=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_rows_equal_one_row_calls(rows, n_frames, scale, snap, seed):
    kitchen, steps = pinned_suite_steps()
    rng = np.random.default_rng(seed)
    for step in steps:
        start = rng.uniform(0.0, 1.0, size=(1, 1, kitchen.n_channels))
        frames = start + np.cumsum(
            rng.normal(0.0, scale, size=(rows, n_frames, kitchen.n_channels)), axis=1)
        if snap:
            # predicate channels on and around the decode threshold
            frames[:, :, :kitchen.n_predicates] = rng.choice(
                [0.0, 0.5 - 1e-12, 0.5, 1.0], size=(rows, n_frames, kitchen.n_predicates))
        reports = evaluate_rows(kitchen, frames, [step] * rows)
        assert len(reports) == rows
        for row, report in zip(frames, reports):
            assert_reports_equal(report, evaluate(kitchen, row, step))
            assert report.scores == reference_scores(kitchen, row, step)


def test_batch_rejects_bad_shapes(kitchen):
    step = open_jar_step(kitchen)
    width = kitchen.n_channels
    with pytest.raises(ValueError, match="2-D"):
        evaluate_rows(kitchen, np.zeros((4, width)), [step] * 4)
    with pytest.raises(ValueError, match="channels"):
        evaluate_rows(kitchen, np.zeros((2, 4, width + 1)), [step] * 2)
    with pytest.raises(ValueError, match="at least 2 frames"):
        evaluate_rows(kitchen, np.zeros((2, 1, width)), [step] * 2)
    with pytest.raises(ValueError, match="steps"):
        evaluate_rows(kitchen, np.zeros((2, 4, width)), [step])
    with pytest.raises(ValueError, match="at least 2 frames"):
        evaluate(kitchen, np.zeros((1, width)), step)
    # a pass is one stack, so its rows share one frame count
    with pytest.raises(ValueError):
        evaluate_rows(kitchen, [np.zeros((4, width)), np.zeros((3, width))], [step] * 2)


def test_a_pass_of_mixed_operators_is_scored_as_one_stack(monkeypatch):
    spec, every = every_operator("kitchen")
    frames = [reference_segment(spec, state, step.op, 8) for step, state in every]
    steps = [step for step, _ in every]
    want = evaluate_rows(spec, frames, steps)
    checked, stacks = scoring._checked, []

    def spy(spec, stack):
        stacks.append(stack.shape)
        return checked(spec, stack)

    monkeypatch.setattr(scoring, "_checked", spy)
    assert evaluate_rows(spec, frames, steps) == want
    assert stacks == [(len(steps), 8, spec.n_channels)]


def bits(x: float) -> str:
    return float(x).hex()


@settings(max_examples=15, deadline=None)
@given(data=st.data(), domain=st.sampled_from(["kitchen", "workshop"]),
       seed=st.integers(0, 2**32 - 1))
def test_rows_carry_their_own_steps(data, domain, seed):
    # rows of mixed operators at one frame count, as a run's rows are, some
    # sharing a step, some under a step of the same operator at another sid;
    # every report is the one-row call's, in order, and no score reads the sid
    spec, every = every_operator(domain)
    pool = data.draw(st.lists(st.sampled_from([step for step, _ in every]),
                              min_size=1, max_size=4))
    n_frames = data.draw(st.sampled_from([2, 3, 8]))
    picks = data.draw(st.lists(st.tuples(st.sampled_from(pool), st.booleans()),
                               min_size=1, max_size=12))
    rng = np.random.default_rng(seed)
    frames, steps = [], []
    for step, resequenced in picks:
        start = rng.uniform(0.0, 1.0, size=(1, spec.n_channels))
        row = start + np.cumsum(rng.normal(0.0, 0.1, size=(n_frames, spec.n_channels)),
                                axis=0)
        row[:, :spec.n_predicates] = rng.choice([0.0, 1.0],
                                                size=(n_frames, spec.n_predicates))
        if resequenced:
            original = step
            step = PlanStep(step.sid + 7, step.op)
            assert_reports_equal(evaluate(spec, row, step),
                                 evaluate(spec, row, original))
            got, want = (score_group(spec, row[None], s) for s in (step, original))
            assert bits(got.scalar[0]) == bits(want.scalar[0])
            assert all(np.array_equal(got.scores[d], want.scores[d]) for d in DIMENSIONS)
        frames.append(row)
        steps.append(step)
    reports = evaluate_rows(spec, frames, steps)
    assert len(reports) == len(steps)
    for row, step, report in zip(frames, steps, reports):
        want = evaluate(spec, row, step)
        assert_reports_equal(report, want)
        assert bits(report.scalar) == bits(want.scalar)
        assert {d: bits(v) for d, v in report.scores.items()} == \
            {d: bits(v) for d, v in want.scores.items()}


# ------------------------------------------------- scalar, clamps and tags


def test_aggregate_of_all_ones_is_one_under_any_simplex_weights():
    ones = {d: 1.0 for d in DIMENSIONS}
    assert aggregate(ones) == 1.0
    for weights in (CriticWeights(0.6, 0.1, 0.1, 0.1, 0.1),
                    CriticWeights(1.0, 0.0, 0.0, 0.0, 0.0),
                    CriticWeights(0.2, 0.2, 0.2, 0.2, 0.2)):
        assert aggregate(ones, weights) == pytest.approx(1.0)


def test_realism_clamps_at_zero_and_tags_physics_violation(kitchen):
    # the realism severity factor is clamped at 0: a frame far outside the
    # value box zeroes the dimension instead of driving it negative
    step = open_jar_step(kitchen)
    seg = reference_segment(kitchen, kitchen.initial_frame, step.op, 16)
    frames = seg.copy()
    frames[8, kitchen.channel_index["hand.x"]] = VALUE_BOX[1] + 4 * MAX_FRAME_DELTA
    report = evaluate(kitchen, frames, step, tau=0.95)
    assert report.scores["physical_realism"] == 0.0
    assert all(0.0 <= report.scores[d] <= 1.0 for d in DIMENSIONS)
    assert report.scalar < 0.95
    assert "physics-violation" in report.tags
    # aggregate takes scores already in [0, 1] and does not clamp them itself
    with pytest.raises(ValueError, match="outside"):
        aggregate({**report.scores, "physical_realism": 1.3})


def test_scalar_below_tau_without_a_fault_tags_the_weakest_dimension(kitchen):
    # a segment with no specific fault still gets a tag when its scalar is
    # below tau: the weakest dimension, as a low-score tag
    step = open_jar_step(kitchen)
    seg = reference_segment(kitchen, kitchen.initial_frame, step.op, 16)
    passing = evaluate(kitchen, seg, step)
    assert passing.tags == ()
    strict = evaluate(kitchen, seg, step, tau=1.5)
    worst = min(DIMENSIONS, key=lambda d: (strict.scores[d], d))
    assert strict.scalar == passing.scalar
    assert strict.tags == (f"low-score:{worst}",)


def test_reports_have_one_score_per_dimension(kitchen):
    # a report's scalar is the checked weighted mean of its scores, the
    # contact check applies to a step with a motion profile, and a report is
    # a record that nothing changes after the critic builds it
    step = open_jar_step(kitchen)
    segment = reference_segment(
        kitchen, kitchen.initial_frame, step.op, rng=RandomSource(1)
    )
    report = evaluate(kitchen, segment, step)
    assert set(report.scores) == set(DIMENSIONS)
    assert report.scalar == aggregate(report.scores)
    assert report.contact_applicable is True
    with pytest.raises(FrozenInstanceError):
        report.tags = ("physics-violation",)



@settings(max_examples=15, deadline=None)
@given(
    rows=st.integers(1, 8),
    n_frames=st.sampled_from([2, 3, 8]),
    scale=st.sampled_from([0.01, 0.1, 1.0]),
    weighted=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_reports_are_rows_of_the_scoring_core(rows, n_frames, scale, weighted, seed):
    # the array core scores a whole group into columns; every report the
    # loop gets carries its row of those columns, bit for bit
    kitchen, steps = pinned_suite_steps()
    rng = np.random.default_rng(seed)
    weights = (CriticWeights(*rng.uniform(0.0, 1.0, size=len(DIMENSIONS))) if weighted
               else CriticWeights())
    for step in steps[::3]:
        start = rng.uniform(0.0, 1.0, size=(1, 1, kitchen.n_channels))
        frames = start + np.cumsum(
            rng.normal(0.0, scale, size=(rows, n_frames, kitchen.n_channels)), axis=1)
        frames[:, :, :kitchen.n_predicates] = rng.choice(
            [0.0, 1.0], size=(rows, n_frames, kitchen.n_predicates))
        scored = score_group(kitchen, frames, step, weights)
        reports = evaluate_rows(kitchen, frames, [step] * rows, weights)
        for i, report in enumerate(reports):
            assert {d: bits(v) for d, v in report.scores.items()} == \
                {d: bits(scored.scores[d][i]) for d in DIMENSIONS}
            assert bits(report.scalar) == bits(scored.scalar[i])


def frames_with_msd(spec, msd, exact=True):
    """Three frames whose mean squared second difference is `msd`, to the bit if `exact`."""
    frames = np.zeros((3, spec.n_channels))
    s = float(np.sqrt(msd * spec.n_channels))
    for _ in range(64):
        frames[2, -1] = s
        got = _second_difference_msd(frames[None])[0]
        if got == msd or not exact:
            return frames
        s = np.nextafter(s, np.inf if got < msd else -np.inf)
    raise AssertionError(f"no three frames give msd {msd}")


def test_core_coherence_equals_coherence_score(kitchen):
    # at msd 0, below, at and above COHERENCE_SCALE, the core's column is
    # coherence_score of the row's msd
    frames = np.stack([frames_with_msd(kitchen, 0.0),
                       frames_with_msd(kitchen, 0.5 * COHERENCE_SCALE, exact=False),
                       frames_with_msd(kitchen, COHERENCE_SCALE),
                       frames_with_msd(kitchen, 2.0 * COHERENCE_SCALE, exact=False),
                       frames_with_msd(kitchen, 1.0, exact=False)])
    scored = score_group(kitchen, frames, open_jar_step(kitchen))
    msds = _second_difference_msd(frames).tolist()
    assert msds[0] == 0.0 and msds[2] == COHERENCE_SCALE
    assert msds[1] < COHERENCE_SCALE < msds[3] < msds[4]
    column = scored.scores["temporal_coherence"].tolist()
    assert column == [coherence_score(m) for m in msds]
    assert column[0] == 1.0 and 0.0 < column[1] < 1.0
    assert column[2] == column[3] == column[4] == 0.0


# ------------------------------------------------------ tables, pinned bits


@cache
def every_operator(name):
    """(spec, (step, state) pairs): a step of each of the domain's operators, in
    declaration order at sids 1, 2, ..., with the first state of a breadth-first
    walk from the initial state where the operator applies."""
    spec = load_domain(name)
    found, seen, queue = {}, set(), [spec.initial_frame]
    for state in queue:
        key = state[:spec.n_predicates].tobytes()
        if key in seen:
            continue
        seen.add(key)
        for op, operator in enumerate(spec.operators):
            if spec.holds(state, operator.pre):
                found.setdefault(op, state)
                queue.append(apply_operator(spec, state, op))
    assert len(found) == len(spec.operators)
    return spec, tuple((PlanStep(op + 1, op), found[op]) for op in range(len(spec.operators)))


def critique_row(spec, state, step, n_frames, kind, rng):
    """One segment in [-0.1, 1.1] with some entries snapped to 0 or 1: a jittered
    demonstration of the step, a random walk, or noise."""
    if kind == "reference":
        row = reference_segment(spec, state, step.op, n_frames,
                                RandomSource(int(rng.integers(1 << 31))), 0.02)
    elif kind == "walk":
        start = rng.uniform(0.0, 1.0, size=(1, spec.n_channels))
        row = start + np.cumsum(rng.normal(0.0, 0.1, size=(n_frames, spec.n_channels)), axis=0)
    else:
        row = rng.uniform(-0.1, 1.1, size=(n_frames, spec.n_channels))
    row = np.clip(row, -0.1, 1.1)
    snap = rng.random(row.shape) < (0.05 if kind == "reference" else 0.3)
    row[snap] = rng.choice([0.0, 1.0], size=int(snap.sum()))
    return row


def assert_pass_equals_reference(spec, frames, steps, tau=0.7):
    """The pass's reports, and the columns of each operator's rows, equal the
    reference scorer's bit for bit; returns the reports."""
    reports = evaluate_rows(spec, frames, steps, tau=tau)
    wants = reference_rows(spec, frames, steps, tau=tau)
    assert len(reports) == len(wants) == len(steps)
    for got, want in zip(reports, wants):
        assert_reports_equal(got, want)
        assert bits(got.scalar) == bits(want.scalar)
        assert {d: bits(v) for d, v in got.scores.items()} == \
            {d: bits(v) for d, v in want.scores.items()}
    groups = {}
    for row, step in zip(frames, steps):
        groups.setdefault(step.op, []).append(row)
    for op, rows in groups.items():
        step = PlanStep(1, op)
        got = score_group(spec, np.stack(rows), step)
        want = reference_score_group(spec, np.stack(rows), step)
        for d in DIMENSIONS:
            assert np.array_equal(got.scores[d], want.scores[d]), d
        assert np.array_equal(got.scalar, want.scalar)
    return reports


@settings(max_examples=25, deadline=None)
@given(data=st.data(), domain=st.sampled_from(["kitchen", "workshop"]),
       tau=st.sampled_from([0.3, 0.7, 0.95]), seed=st.integers(0, 2**32 - 1))
def test_critique_passes_equal_the_reference_scorer(data, domain, tau, seed):
    # a pass mixes every operator of the domain, clean and broken rows at
    # one frame count; the tables give the reference's reports and columns
    spec, pool = every_operator(domain)
    n_frames = data.draw(st.sampled_from([2, 3, 8, 16]))
    picks = data.draw(st.lists(
        st.tuples(st.sampled_from(pool), st.sampled_from(["reference", "walk", "noise"])),
        min_size=1, max_size=16))
    rng = np.random.default_rng(seed)
    frames, steps = [], []
    for (step, state), kind in picks:
        row = critique_row(spec, state, step, n_frames, kind, rng)
        frames.append(row)
        steps.append(step)
    assert_pass_equals_reference(spec, frames, steps, tau)


def relaid_kitchen() -> dict:
    """Kitchen's operators over another channel layout: predicates and objects reversed."""
    raw = canonical_dict(load_domain("kitchen"))
    raw["name"] = "kitchen-relaid"
    raw["predicates"] = dict(reversed(raw["predicates"].items()))
    raw["objects"] = dict(reversed(raw["objects"].items()))
    for op in raw["operators"]:
        for key in ("tool", "motion"):
            if op[key] is None:
                del op[key]
    return raw


def test_tables_never_leak_across_specs_or_frame_counts():
    # two domains in one process share every operator, at the same index,
    # but not its channels; scored in turn at F = 8, 16, 8, each gives the
    # reports of a freshly loaded spec and leaves the spec's tables as they are
    kitchen, pairs = every_operator("kitchen")
    relaid = domain_from_dict(relaid_kitchen())
    assert relaid.channels != kitchen.channels
    assert list(map(str, relaid.operators)) == list(map(str, kitchen.operators))
    step, state = pairs[0]
    steps = [s for s, _ in pairs]
    tables = {spec.name: spec.operator_tables for spec in (kitchen, relaid)}
    globals_before = set(vars(scoring))
    rng = np.random.default_rng(5)
    for n_frames in (8, 16, 8):
        frames = [critique_row(kitchen, state, step, n_frames, kind, rng)
                  for kind in ("reference", "walk", "noise") for _ in range(len(steps) // 3 + 1)]
        frames = frames[:len(steps)]
        by_spec = {}
        for spec, fresh in ((kitchen, load_domain("kitchen")),
                            (relaid, domain_from_dict(relaid_kitchen()))):
            by_spec[spec.name] = assert_pass_equals_reference(spec, frames, steps)
            assert by_spec[spec.name] == evaluate_rows(fresh, frames, steps)
        assert by_spec[kitchen.name] != by_spec[relaid.name]
    for spec in (kitchen, relaid):
        assert spec.operator_tables is tables[spec.name]
        assert len(spec.operator_tables) == len(spec.operators)
    assert set(vars(scoring)) == globals_before
