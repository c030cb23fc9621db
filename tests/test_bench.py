"""Suite generation, evaluation metrics, comparisons, and curve emission.

The generator's plan lengths, node depths in the domain's plan graph, are
cross-checked two ways: the exhaustive sequence enumerator behind
`verify_suite`, which shares nothing with the graph, and the planner's plan
lengths. Oracle-policy and frozen-policy evaluations pin the
upper and lower ends of the metric scales.
"""

import json

import numpy as np
import pytest

from loopwm.bench import (
    BANDS,
    DIFFICULTIES,
    MODES,
    compare,
    emit_curves,
    evaluate_policy,
    generate_suite,
    minimal_plan_length,
    mode_config,
    save_suite,
    verify_suite,
)
from loopwm.bench.metrics import load_report
from loopwm.bench.suite import _sample_literals
from loopwm.critic import DIMENSIONS, CriticReport
from loopwm.errors import LoopwmError, SuiteError
from loopwm.grpo import TrainingLog, TrainingRecord
from loopwm.loop import LoopConfig, OraclePolicy, Request
from loopwm.microworld import Literal, load_domain
from loopwm.numerics import RandomSource, net_init, require_finite
from loopwm.planner import nearest, plan
from loopwm.worldmodel import SamplerConfig, WorldModelPolicy, velocity_net_sizes
from oracles import load_suite
from sequential import FrozenPolicy, GeneratePolicy, SequentialPolicy


def small_suite(spec, seed=7, counts=(3, 2, 1)):
    return generate_suite(spec, seed, counts)


def oracle_report(spec, suite, seed=3, **kwargs):
    return evaluate_policy(OraclePolicy(spec), suite, rng=RandomSource(seed), **kwargs)


# ---------------------------------------------------------------- suites


def test_generate_suite_counts_and_bands(kitchen):
    suite = generate_suite(kitchen, seed=7, counts=(10, 10, 5))
    assert len(suite) == 25
    assert suite.counts() == {"simple": 10, "medium": 10, "hard": 5}
    for task in suite.tasks:
        lo, hi = BANDS[task.difficulty]
        m = minimal_plan_length(kitchen, kitchen.initial_frame, task.goal.literals)
        assert m == task.min_steps
        assert lo <= m <= hi


def test_band_lengths_match_planner_shortest_path(kitchen):
    # the plan is the goal's parent chain in the graph, so its length is a
    # second reading of every task's recorded depth
    suite = generate_suite(kitchen, seed=11, counts=(4, 3, 2))
    for task in suite.tasks:
        assert len(plan(kitchen, task.goal)) == task.min_steps


def test_generate_suite_deterministic(kitchen):
    a = generate_suite(kitchen, seed=7, counts=(5, 4, 2))
    b = generate_suite(kitchen, seed=7, counts=(5, 4, 2))
    assert a.digest == b.digest
    assert [t.goal.literals for t in a.tasks] == [t.goal.literals for t in b.tasks]
    c = generate_suite(kitchen, seed=8, counts=(5, 4, 2))
    assert c.digest != a.digest


@pytest.mark.parametrize("name", ["kitchen", "workshop"])
def test_reachable_state_lengths_match_the_oracle(name):
    spec = load_domain(name)
    start = spec.initial_frame
    rng = RandomSource(0)

    def depth(literals):
        node = nearest(spec, literals)
        return None if node is None else spec.plan_graph[node].depth

    for _ in range(300):
        literals = _sample_literals(spec, rng)
        assert depth(literals) == minimal_plan_length(spec, start, literals)
    # goals off the sampled walks too, unreachable ones included
    for _ in range(100):
        picks = rng.integers(0, 2, shape=len(spec.predicates))
        chosen = [i for i in range(len(spec.predicates)) if rng.choice(3) == 0][:3]
        literals = tuple(Literal(spec.predicates[i][0], bool(picks[i])) for i in chosen)
        assert depth(literals) == minimal_plan_length(spec, start, literals)


def test_pinned_kitchen_suite_digest(kitchen):
    suite = generate_suite(kitchen, seed=0, counts=(20, 20, 10))
    assert suite.digest == "fd42ea1610686572211a1615997f5dada7ea4a9310a97a2025fc07fa074c3865"


def test_generate_suite_zero_counts_is_empty(kitchen):
    suite = generate_suite(kitchen, seed=1, counts=(0, 0, 0))
    assert len(suite) == 0
    verify_suite(suite)


def test_generate_suite_default_counts(kitchen):
    suite = generate_suite(kitchen, seed=3)
    assert suite.counts() == {"simple": 20, "medium": 20, "hard": 10}


def test_goals_are_deduplicated(kitchen):
    suite = generate_suite(kitchen, seed=5, counts=(15, 10, 5))
    keys = [t.key() for t in suite.tasks]
    assert len(keys) == len(set(keys))


def test_workshop_fills_all_levels(workshop):
    suite = generate_suite(workshop, seed=2, counts=(4, 4, 2))
    verify_suite(suite)
    assert suite.counts() == {"simple": 4, "medium": 4, "hard": 2}


def test_unproducible_level_names_the_level(tmp_path):
    # two operators, so no goal needs more than two steps: hard is out of reach
    (tmp_path / "shallow.yaml").write_text(
        """
name: shallow
actor: hand
objects:
  jar:  {position: [0.44, 0.56]}
  hand: {position: [0.49, 0.52], movable: true}
predicates:
  jar.closed: true
  jar.lid_removed: false
  jar.grasped: false
operators:
  - verb: open
    objects: [jar]
    tool: hand
    instruction: open the jar and set the lid aside
    pre: [jar.closed]
    post: [not jar.closed, jar.lid_removed]
    motion: {moves: [hand], target: jar}
  - verb: grasp
    objects: [jar]
    tool: hand
    instruction: grasp the jar
    pre: [not jar.grasped]
    post: [jar.grasped]
    motion: {moves: [hand], target: jar}
"""
    )
    from loopwm.microworld import load_domain

    shallow = load_domain(tmp_path / "shallow.yaml")
    suite = generate_suite(shallow, seed=1, counts=(2, 0, 0))
    assert suite.counts()["simple"] == 2
    with pytest.raises(SuiteError, match="hard"):
        generate_suite(shallow, seed=1, counts=(2, 0, 1))


def test_negative_counts_rejected(kitchen):
    with pytest.raises(SuiteError):
        generate_suite(kitchen, seed=1, counts=(1, -1, 0))


def test_suite_roundtrip(tmp_path, kitchen):
    suite = small_suite(kitchen)
    path = save_suite(suite, tmp_path / "suite.json")
    payload = json.loads(path.read_text())
    assert payload["format"] == "loopwm-suite-v1"
    back = load_suite(path)
    assert back.digest == suite.digest
    assert [t.goal.literals for t in back.tasks] == [t.goal.literals for t in suite.tasks]
    verify_suite(back)


def test_load_suite_domain_mismatch(tmp_path, kitchen, workshop):
    path = save_suite(small_suite(kitchen), tmp_path / "suite.json")
    with pytest.raises(SuiteError, match="domain"):
        load_suite(path, workshop)


def test_load_suite_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(SuiteError):
        load_suite(path)


def test_verify_catches_mislabeled_tasks(kitchen):
    from loopwm.bench.suite import PromptSuite, SuiteTask

    suite = small_suite(kitchen)
    easy = next(t for t in suite.tasks if t.difficulty == "simple")
    forged = SuiteTask(easy.goal, "hard", easy.min_steps)
    with pytest.raises(SuiteError, match="hard"):
        verify_suite(PromptSuite(kitchen, (forged,)))


# ------------------------------------------------------------- evaluation


def test_oracle_policy_tops_the_scales(kitchen):
    suite = small_suite(kitchen)
    report = oracle_report(kitchen, suite)
    assert report.overall.action_completeness == 1.0
    assert report.overall.success_rate == 1.0
    for metric in ("motion_smoothness", "object_interaction", "physical_fidelity"):
        value = getattr(report.overall, metric)
        assert value is not None and value >= 4.5
    assert set(report.by_difficulty) == set(DIFFICULTIES)
    for row in report.by_difficulty.values():
        assert row.action_completeness == 1.0


def test_frozen_policy_completes_nothing(kitchen):
    suite = small_suite(kitchen)
    report = evaluate_policy(FrozenPolicy(kitchen), suite, rng=RandomSource(3))
    assert report.overall.action_completeness == 0.0
    assert report.overall.success_rate == 0.0
    oracle = oracle_report(kitchen, suite)
    assert report.overall.action_completeness <= oracle.overall.action_completeness


class NanOnOneStep(GeneratePolicy):
    """Oracle segments, except that the steps of one operator get NaN from `bad`."""

    def __init__(self, spec, op, bad):
        self.oracle = OraclePolicy(spec)
        self.op = op
        self.bad = bad

    def generate(self, step, memory, rng):
        if step.op == self.op:
            return self.bad(step, memory, rng)
        return self.oracle.generate(step, memory, rng)


def nan_frames(step, memory, rng):
    # a policy owns its frames' finiteness: a draw of NaN frames raises
    frames = np.full((16, memory.spec.n_channels), np.nan)
    require_finite(frames, f"frames of step {step.sid}")
    return frames


def nan_net(spec):
    config = SamplerConfig(n_frames=4)
    theta = net_init(velocity_net_sizes(spec, config, hidden=8, depth=1), RandomSource(2))
    theta.biases[-1][0] = np.nan
    policy = SequentialPolicy(WorldModelPolicy(theta, spec, config))
    return lambda step, memory, rng: policy.serve(Request(step, memory, rng, 1))()


@pytest.mark.parametrize("source", ["frames", "net"])
def test_numeric_failure_fails_only_its_episodes(kitchen, source):
    # NaN frames raise NumericError, a NaN net DivergenceError; either way
    # the episode fails and the rest of the 50-task report stands
    suite = generate_suite(kitchen, seed=7)
    op = plan(kitchen, suite.tasks[0].goal)[0].op
    bad = nan_frames if source == "frames" else nan_net(kitchen)
    report = evaluate_policy(NanOnOneStep(kitchen, op, bad), suite,
                             rng=RandomSource(3))
    assert report.overall.n_tasks == 50
    assert 0.0 < report.overall.action_completeness < 1.0
    assert report.overall.success_rate < 1.0


def test_evaluation_reproducible(kitchen):
    suite = small_suite(kitchen)
    a = oracle_report(kitchen, suite)
    b = oracle_report(kitchen, suite)
    assert a.to_dict() == b.to_dict()


def test_empty_suite_rejected(kitchen):
    empty = generate_suite(kitchen, seed=1, counts=(0, 0, 0))
    with pytest.raises(SuiteError):
        evaluate_policy(OraclePolicy(kitchen), empty, rng=RandomSource(0))


def test_scale_rows_cover_only_present_difficulties(kitchen):
    suite = generate_suite(kitchen, seed=7, counts=(2, 0, 0))
    report = oracle_report(kitchen, suite)
    assert list(report.by_difficulty) == ["simple"]
    assert report.overall.n_tasks == 2


def test_interaction_not_applicable_reports_none(kitchen, monkeypatch):
    # a critique pass that marks the contact check inapplicable on every
    # segment must surface as an N/A (None) interaction column, not a fake score
    suite = generate_suite(kitchen, seed=7, counts=(1, 0, 0))

    def rows(spec, frames, steps, weights, tau):
        scores = {d: 1.0 for d in DIMENSIONS}
        return [CriticReport(scores=scores, tags=(), scalar=1.0, contact_applicable=False)
                for step in steps]

    monkeypatch.setattr("loopwm.bench.metrics.evaluate_rows", rows)
    report = evaluate_policy(OraclePolicy(kitchen), suite, rng=RandomSource(0))
    assert report.overall.object_interaction is None
    assert report.overall.action_completeness == 1.0
    table = compare([("x", report)])
    assert "n/a" in table.text


def test_boundary_jump_drags_smoothness_down(kitchen):
    # an otherwise perfect policy whose segments do not join up should
    # score below one that hands over continuously
    suite = generate_suite(kitchen, seed=13, counts=(0, 1, 0))

    class TeleportPolicy(OraclePolicy):
        def generate(self, step, memory, rng):
            frames = super().generate(step, memory, rng)
            frames[0] = frames[0] + 0.4
            return frames

    smooth = oracle_report(kitchen, suite)
    jumpy = evaluate_policy(TeleportPolicy(kitchen), suite, rng=RandomSource(3))
    assert jumpy.overall.motion_smoothness < smooth.overall.motion_smoothness


def test_report_roundtrip(tmp_path, kitchen):
    report = oracle_report(kitchen, small_suite(kitchen))
    path = report.write_json(tmp_path / "report.json")
    back = load_report(path)
    assert back.to_dict() == report.to_dict()


def test_mode_presets():
    loop = LoopConfig()
    assert mode_config("open-loop", loop).k_retries == 0
    assert mode_config("open-loop", loop).max_outer_replans == 0
    assert mode_config("inner-only", loop).k_retries > 0
    assert mode_config("inner-only", loop).max_outer_replans == 0
    assert mode_config("full", loop).max_outer_replans > 0
    assert mode_config("open-loop", LoopConfig(tau=0.5)).tau == 0.5
    assert mode_config("full", loop) == loop
    with pytest.raises(SuiteError):
        mode_config("closed-loop", loop)
    assert MODES == ("open-loop", "inner-only", "full")


# ------------------------------------------------------------- comparison


def test_compare_deltas_against_first(kitchen):
    suite = small_suite(kitchen)
    oracle = oracle_report(kitchen, suite)
    frozen = evaluate_policy(FrozenPolicy(kitchen), suite, rng=RandomSource(3))
    table = compare([("oracle", oracle), ("frozen", frozen)])
    assert table.rows[0][0] == "oracle"
    by_name = dict(zip(table.header, table.rows[1]))
    assert by_name["name"] == "frozen"
    assert by_name["d_completeness"] == "-1.000"
    assert by_name["d_success"] == "-1.000"
    # baseline row carries no deltas
    assert dict(zip(table.header, table.rows[0]))["d_completeness"] == ""


def test_compare_single_report_has_no_delta_columns(kitchen):
    table = compare([("only", oracle_report(kitchen, small_suite(kitchen)))])
    assert all(not h.startswith("d_") for h in table.header)
    assert len(table.rows) == 1


def test_compare_identical_reports_zero_deltas(kitchen):
    report = oracle_report(kitchen, small_suite(kitchen))
    table = compare([("a", report), ("b", report)])
    deltas = [
        cell
        for name, cell in zip(table.header, table.rows[1])
        if name.startswith("d_") and cell
    ]
    assert deltas and all(float(d) == 0.0 for d in deltas)


def test_compare_suite_mismatch(kitchen):
    a = oracle_report(kitchen, small_suite(kitchen))
    b = oracle_report(kitchen, generate_suite(kitchen, seed=9, counts=(1, 1, 1)))
    with pytest.raises(SuiteError, match="different suite"):
        compare([("a", a), ("b", b)])
    with pytest.raises(SuiteError):
        compare([])


def test_compare_csv_roundtrip(tmp_path, kitchen):
    report = oracle_report(kitchen, small_suite(kitchen))
    table = compare([("a", report), ("b", report)])
    path = table.write_csv(tmp_path / "cmp.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "name"
    assert len(lines) == 3


def test_completeness_never_beats_oracle(kitchen):
    # dominance over a mid-quality policy, not just the frozen stub: drop
    # every third segment's final frame accuracy by freezing it
    suite = small_suite(kitchen, seed=21, counts=(2, 1, 0))

    class FlakyPolicy(OraclePolicy):
        def __init__(self, spec):
            super().__init__(spec)
            self.calls = 0

        def generate(self, step, memory, rng):
            self.calls += 1
            if self.calls % 3 == 0:
                return FrozenPolicy(self.spec).generate(step, memory, rng)
            return super().generate(step, memory, rng)

    oracle = oracle_report(kitchen, suite)
    flaky = evaluate_policy(FlakyPolicy(kitchen), suite, rng=RandomSource(3))
    assert flaky.overall.action_completeness <= oracle.overall.action_completeness


# ----------------------------------------------------------------- curves


def make_log(n):
    log = TrainingLog()
    for i in range(1, n + 1):
        log.records.append(
            TrainingRecord(i, 0.1 * i, 0.5 + 0.01 * i, 0.3, 0.02, 0.1, 1 + (i > 2))
        )
    return log


def test_emit_curves_writes_csv_and_svg_per_metric(tmp_path):
    paths = emit_curves(make_log(5), tmp_path)
    names = sorted(p.name for p in paths)
    metrics = (
        "adherence_mean",
        "clip_fraction",
        "coherence_mean",
        "curriculum_level",
        "kl_mean",
        "mean_reward",
    )
    assert names == sorted([f"{m}.csv" for m in metrics] + [f"{m}.svg" for m in metrics])
    reward_csv = (tmp_path / "mean_reward.csv").read_text().strip().splitlines()
    assert reward_csv[0] == "iteration,mean_reward"
    assert len(reward_csv) == 6
    svg = (tmp_path / "mean_reward.svg").read_text()
    assert "<polyline" in svg


def test_emit_curves_deterministic_bytes(tmp_path):
    log = make_log(4)
    first = {p.name: p.read_bytes() for p in emit_curves(log, tmp_path / "a")}
    second = {p.name: p.read_bytes() for p in emit_curves(log, tmp_path / "b")}
    assert first == second


def test_emit_curves_single_row_draws_marker(tmp_path):
    emit_curves(make_log(1), tmp_path)
    svg = (tmp_path / "mean_reward.svg").read_text()
    assert "<circle" in svg
    assert "<polyline" not in svg


def test_emit_curves_empty_log_rejected(tmp_path):
    with pytest.raises(LoopwmError):
        emit_curves(TrainingLog(), tmp_path)


def test_emit_curves_unwritable_target(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    with pytest.raises(OSError):
        emit_curves(make_log(2), blocker / "sub")


def test_svg_x_axis_monotone(tmp_path):
    emit_curves(make_log(6), tmp_path)
    svg = (tmp_path / "mean_reward.svg").read_text()
    start = svg.index('points="') + len('points="')
    points = svg[start : svg.index('"', start)].split()
    xs = [float(p.split(",")[0]) for p in points]
    assert xs == sorted(xs)
    assert len(xs) == 6
