"""Episode engine: acceptance gating, inner retries, outer replans, budgets."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import loopwm.worldmodel.policy as policy_module
from loopwm.bench import evaluate_policy, generate_suite, run_suite
from loopwm.errors import DivergenceError, NoPlanError, NumericError
from loopwm.loop import (
    STATUS_BUDGET,
    STATUS_PLAN_FAILURE,
    STATUS_SUCCESS,
    LoopConfig,
    OraclePolicy,
    SearchPlanner,
    WorldMemory,
    default_critic,
)
from loopwm.microworld import Literal, apply_operator, parse_literal, reference_segment
from loopwm.numerics import RandomSource, net_init
from loopwm.planner import RETRY_SAME_TAG, Goal, plan
from loopwm.critic import evaluate
from loopwm.worldmodel import SamplerConfig, WorldModelPolicy, velocity_net_sizes
from outside import PlainDataPlanner, plain_data_critic
from sequential import FrozenPolicy, GeneratePolicy, SequentialPolicy, run_episode


def goal_of(*texts):
    return Goal(tuple(parse_literal(t) for t in texts))


def random_solvable_goal(spec, rng, max_walk=5):
    """Random walk from the initial state; goal literals sampled from the end state."""
    state = spec.initial_state()
    for _ in range(int(rng.integers(1, max_walk + 1))):
        applicable = [op for op in spec.operators if state.satisfies(op.pre)]
        if not applicable:
            break
        op = applicable[int(rng.integers(0, len(applicable)))]
        state = apply_operator(spec, state, op.binding)
    preds = sorted(state.predicates)
    k = int(rng.integers(1, 4))
    picks = [preds[int(rng.integers(0, len(preds)))] for _ in range(k)]
    literals = tuple(sorted({
        parse_literal(p if state.predicates[p] else f"not {p}") for p in picks
    }, key=str))
    return Goal(literals)


def test_trivially_satisfied_goal(kitchen):
    log = run_episode(kitchen, goal_of("jar.closed"), OraclePolicy(kitchen),
                      rng=RandomSource(1))
    assert log.status == STATUS_SUCCESS
    assert log.segments_generated == 0
    assert log.plan_length == 0
    assert log.attempts == []


def test_oracle_policy_full_chain(kitchen):
    log = run_episode(kitchen, goal_of("cup.stirred"), OraclePolicy(kitchen),
                      rng=RandomSource(2))
    assert log.status == STATUS_SUCCESS
    assert log.plan_length == 6
    assert log.accepted_steps == 6
    assert log.segments_generated == 6
    assert all(a.accepted and a.attempt == 0 for a in log.attempts)
    assert log.replans == []


def test_oracle_policy_hundred_random_goals(kitchen):
    rng = RandomSource(3)
    for i in range(100):
        goal = random_solvable_goal(kitchen, rng.split(i))
        log = run_episode(kitchen, goal, OraclePolicy(kitchen), rng=rng.split(1000 + i))
        assert log.status == STATUS_SUCCESS, (goal.text, log.status)


def test_frozen_policy_exhausts_retries_and_replans(kitchen):
    config = LoopConfig()
    log = run_episode(kitchen, goal_of("jar.lid_removed"), FrozenPolicy(kitchen),
                      config=config, rng=RandomSource(4))
    assert log.status == STATUS_PLAN_FAILURE
    # 1 + k_retries generations per plan version, 1 + max_outer_replans versions
    assert len(log.attempts) == (1 + config.k_retries) * (1 + config.max_outer_replans)
    assert log.accepted_steps == 0
    assert log.segments_generated == len(log.attempts)
    assert len(log.replans) == config.max_outer_replans
    for event in log.replans:
        assert event.outcome == "replanned"
        assert RETRY_SAME_TAG in event.tags  # step stays symbolically valid
    # inner retries must carry a revised instruction once tags are present
    originals = [a for a in log.attempts if a.attempt == 0]
    retries = [a for a in log.attempts if a.attempt > 0]
    assert retries and all(r.instruction != originals[0].instruction for r in retries)


def test_zero_retry_config_generates_once_per_version(kitchen):
    config = LoopConfig(k_retries=0, max_outer_replans=0)
    log = run_episode(kitchen, goal_of("jar.lid_removed"), FrozenPolicy(kitchen),
                      config=config, rng=RandomSource(5))
    assert log.status == STATUS_PLAN_FAILURE
    assert len(log.attempts) == 1
    assert log.replans == []


def test_segment_budget_exhaustion(kitchen):
    config = LoopConfig(max_total_segments=2)
    log = run_episode(kitchen, goal_of("jar.lid_removed"), FrozenPolicy(kitchen),
                      config=config, rng=RandomSource(6))
    assert log.status == STATUS_BUDGET
    assert log.segments_generated == 2


def test_retry_then_accept_counts_two_generations(kitchen):
    class FlakyOracle(GeneratePolicy):
        """Fails exactly once per step, then behaves like the oracle."""

        def __init__(self, spec):
            self.spec = spec
            self.failed_once = set()

        def generate(self, step, memory, rng):
            if step.sid not in self.failed_once:
                self.failed_once.add(step.sid)
                return FrozenPolicy(self.spec).generate(step, memory, rng)
            return OraclePolicy(self.spec).generate(step, memory, rng)

    log = run_episode(kitchen, goal_of("jar.lid_removed"), FlakyOracle(kitchen),
                      rng=RandomSource(7))
    assert log.status == STATUS_SUCCESS
    assert log.segments_generated == 2
    assert [a.attempt for a in log.attempts] == [0, 1]
    assert not log.attempts[0].accepted and log.attempts[1].accepted
    assert log.attempts[1].instruction != log.attempts[0].instruction


def test_recovery_after_replan(kitchen):
    class StubbornThenFine(GeneratePolicy):
        """Rejects every segment until the first replan, then accepts oracle output."""

        def __init__(self, spec):
            self.spec = spec
            self.unlocked = False

        def generate(self, step, memory, rng):
            if not self.unlocked:
                return FrozenPolicy(self.spec).generate(step, memory, rng)
            return OraclePolicy(self.spec).generate(step, memory, rng)

    policy = StubbornThenFine(kitchen)

    class UnlockingPlanner:
        def __init__(self):
            self.inner = SearchPlanner()

        def plan(self, spec, goal, state):
            return self.inner.plan(spec, goal, state)

        def replan(self, spec, goal, failure):
            policy.unlocked = True
            return self.inner.replan(spec, goal, failure)

    log = run_episode(kitchen, goal_of("jar.lid_removed"), policy,
                      rng=RandomSource(8), planner=UnlockingPlanner())
    assert log.status == STATUS_SUCCESS
    assert len(log.replans) == 1
    assert log.replans[0].outcome == "replanned"
    assert log.accepted_steps == 1


def test_outside_planner_replan_resumes_at_failed_sid(kitchen):
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


def test_outside_planner_and_critic_match_the_builtin_ones(kitchen):
    # plans and reports rebuilt from plain data drive the same episode and
    # the same report as the builtin search and critic
    goal = Goal((Literal("jar.lid_removed", True),))
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


def test_unsolvable_goal_raises(kitchen):
    with pytest.raises(NoPlanError):
        run_episode(kitchen, goal_of("not jar.closed", "not jar.lid_removed"),
                    OraclePolicy(kitchen), rng=RandomSource(9))


def test_memory_advance_chain_replay(kitchen):
    memory = WorldMemory.fresh(kitchen)
    goal = goal_of("cup.full")
    from loopwm.planner import plan
    seq = plan(kitchen, goal, kitchen.initial_state())
    rng = RandomSource(10)
    state = kitchen.initial_state()
    for step in seq.steps:
        seg = reference_segment(kitchen, memory.state, step.actions[0], rng=rng)
        memory.advance(step, seg)
        state = apply_operator(kitchen, state, step.actions[0])
        assert np.array_equal(memory.last_frame(), seg.final_frame)
    assert memory.state.predicates == state.predicates
    assert memory.state.poses == state.poses


# ------------------------------------------------- batched and lockstep sampling


def learned_policy(spec, seed=0, eta_scale=0.3):
    config = SamplerConfig(k_steps=3, eta_scale=eta_scale, n_frames=4,
                           frame_width=len(spec.channels))
    theta = net_init(velocity_net_sizes(spec, config, hidden=8, depth=1), RandomSource(seed))
    return WorldModelPolicy(theta, spec, config)


def diverging_policy(spec):
    """A learned policy whose rows go NaN or not depending on their own noise."""
    policy = learned_policy(spec)
    # hidden unit 0 sums max/1.8 * z[0] and -inf * t: NaN once a row's first
    # latent coordinate passes 1.8, so whether a row diverges rests on its noise
    weights = policy.theta.weights[0]
    weights[0, :] = 0.0
    weights[0, 0] = np.finfo(np.float64).max / 1.8
    weights[0, policy.config.latent_width] = -np.inf
    return policy


def assert_same_episode(log, reference):
    summary = [
        ([(a.sid, a.attempt, a.instruction, a.accepted, a.report.scalar) for a in run.attempts],
         run.replans, run.status)
        for run in (log, reference)
    ]
    assert summary[0] == summary[1]
    for got, want in zip(log.attempts, reference.attempts):
        np.testing.assert_allclose(got.segment.frames, want.segment.frames, rtol=0, atol=1e-12)


def test_batched_retries_match_sequential_generate(kitchen):
    # each retry request is one batch; the reference samples the candidates
    # one row at a time, only as the episode takes them
    policy = learned_policy(kitchen)
    config = LoopConfig(tau=0.4)
    rng = RandomSource(3)
    early = exhausted = 0
    for i in range(6):
        goal = random_solvable_goal(kitchen, rng.split(i))
        for seed in range(2):
            batched, sequential = (
                run_episode(kitchen, goal, p, config, rng=rng.split(1000 + 10 * i + seed))
                for p in (policy, SequentialPolicy(policy))
            )
            assert_same_episode(batched, sequential)
            early += sum(a.accepted for a in batched.attempts if 0 < a.attempt < config.k_retries)
            exhausted += sum(not a.accepted for a in batched.attempts
                             if a.attempt == config.k_retries)
    # both ways out of a batch occur: a retry accepted early, and a budget spent
    assert early > 0 and exhausted > 0


def first_retry_critic():
    """Rejects each step's first try and accepts its first retry."""
    tries = Counter()

    def critic(spec, segment, step):
        tries[step.sid] += 1
        return replace(evaluate(spec, segment, step), scalar=float(tries[step.sid] == 2))

    return critic


def test_divergence_in_an_untaken_batch_row_keeps_the_episode(kitchen, monkeypatch):
    policy = diverging_policy(kitchen)
    batches = []
    sample_rows = policy_module.sample_rows

    def recording_sample_rows(*args):
        rows = sample_rows(*args)
        batches.append([row is None for row in rows])
        return rows

    monkeypatch.setattr(policy_module, "sample_rows", recording_sample_rows)
    kept = 0
    for seed in range(12):
        batches.clear()
        outcomes = []
        with np.errstate(over="ignore", invalid="ignore"):
            for p in (policy, SequentialPolicy(policy)):
                try:
                    outcomes.append(run_episode(kitchen, goal_of("cup.full"), p,
                                                rng=RandomSource(seed),
                                                critic=first_retry_critic()))
                except DivergenceError:
                    outcomes.append(None)
        batched, sequential = outcomes
        # a taken row that diverges fails the episode on both paths alike
        assert (batched is None) == (sequential is None)
        if batched is None:
            continue
        assert_same_episode(batched, sequential)
        # a row of a retry batch diverged after the accepted first retry
        if [False, False, True] in batches or [False, True, False] in batches:
            assert batched.status == STATUS_SUCCESS
            kept += 1
    assert kept > 0


def run_alone(spec, suite, policy, config, rng, critic=None):
    """Each task's episode by itself, one row at a time; None where it failed."""
    logs = []
    for i, task in enumerate(suite.tasks):
        try:
            logs.append(run_episode(spec, task.goal, SequentialPolicy(policy), config,
                                    rng=rng.split(i), critic=critic))
        except (NoPlanError, DivergenceError, NumericError):
            logs.append(None)
    return logs


@pytest.mark.parametrize("eta_scale", [0.3, 0.0])
def test_lockstep_suite_matches_each_episode_alone(kitchen, eta_scale):
    suite = generate_suite(kitchen, seed=7)
    policy = learned_policy(kitchen, eta_scale=eta_scale)
    config = LoopConfig(tau=0.4)
    rng = RandomSource(3)
    lockstep = run_suite(policy, suite, config, rng=rng)
    alone = run_alone(kitchen, suite, policy, config, rng)
    assert len(lockstep) == len(alone) == 50
    for log, reference in zip(lockstep, alone):
        assert_same_episode(log, reference)
    attempts = [a for log in lockstep for a in log.attempts]
    assert any(a.accepted for a in attempts) and any(not a.accepted for a in attempts)
    assert any(log.replans for log in lockstep)
    assert (evaluate_policy(policy, suite, config, rng=rng)
            == evaluate_policy(SequentialPolicy(policy), suite, config, rng=rng))


def poisoning_critic(instruction):
    """Accepts every segment for `instruction` and then puts NaN in its last frame,
    so the next step of that episode has a non-finite condition."""
    def critic(spec, segment, step):
        report = evaluate(spec, segment, step)
        if step.instruction != instruction:
            return report
        segment.frames[-1, 0] = np.nan
        return replace(report, scalar=1.0)

    return critic


def raising_critic(instruction):
    """Scores one segment at a time, and raises NumericError for `instruction`."""
    def critic(spec, segment, step):
        if step.instruction == instruction:
            raise NumericError(f"no score for {instruction!r}")
        return evaluate(spec, segment, step)

    return critic


@pytest.mark.parametrize("source", ["net", "condition", "critic"])
def test_lockstep_suite_fails_the_episodes_that_fail_alone(kitchen, source):
    suite = generate_suite(kitchen, seed=7)
    config = LoopConfig(tau=0.4)
    first = plan(kitchen, suite.tasks[0].goal, kitchen.initial_state()).steps[0]
    if source == "net":
        policy, critic = diverging_policy(kitchen), None
    elif source == "condition":
        policy, critic = learned_policy(kitchen), poisoning_critic(first.instruction)
    else:
        policy, critic = learned_policy(kitchen), raising_critic(first.instruction)
    rng = RandomSource(4)
    with np.errstate(over="ignore", invalid="ignore"):
        lockstep = run_suite(policy, suite, config, critic=critic, rng=rng)
        alone = run_alone(kitchen, suite, policy, config, rng, critic=critic)
    failed = [log is None for log in lockstep]
    assert failed == [log is None for log in alone]
    assert 0 < sum(failed) < len(failed)
    for log, reference in zip(lockstep, alone):
        if log is not None:
            assert_same_episode(log, reference)


class RowsSpy:
    """The builtin critic, recording how many rows each `rows` call scores."""

    def __init__(self, config):
        self.critic = default_critic(config)
        self.calls = []

    def __call__(self, spec, segment, step):
        raise AssertionError("a critic with rows is never called per item")

    def rows(self, spec, frames, steps):
        self.calls.append(len(steps))
        return self.critic.rows(spec, frames, steps)


def candidates_taken(log):
    """Candidates the episode took from each of its draws, in order."""
    taken = []
    for attempt in log.attempts:
        # a first try (0) and a first retry (1) open a draw; later retries
        # take further candidates of the retry draw
        if attempt.attempt <= 1:
            taken.append(0)
        taken[-1] += 1
    return taken


def test_lockstep_suite_scores_each_pass_in_one_critic_call(kitchen):
    suite = generate_suite(kitchen, seed=7)
    config = LoopConfig(tau=0.4)
    policy = learned_policy(kitchen)
    spy = RowsSpy(config)
    lockstep = run_suite(policy, suite, config, critic=spy, rng=RandomSource(3))
    for log, reference in zip(lockstep, run_suite(policy, suite, config, rng=RandomSource(3))):
        assert_same_episode(log, reference)
    # every running episode has one draw per round; pass j of round r scores
    # the j-th candidate of each episode that takes that many from its draw
    taken = [candidates_taken(log) for log in lockstep]
    passes = []
    for r in range(max(len(t) for t in taken)):
        in_round = [t[r] for t in taken if len(t) > r]
        passes.extend(sum(n >= j for n in in_round) for j in range(1, max(in_round) + 1))
    assert spy.calls == passes
    assert sum(spy.calls) == sum(len(log.attempts) for log in lockstep)
    assert len(spy.calls) < sum(spy.calls) / 10
