"""Episode engine: acceptance gating, inner retries, outer passes, budgets."""

from collections import Counter
from dataclasses import replace
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loopwm.bench.metrics as metrics_module
import loopwm.worldmodel.policy as policy_module
from loopwm.bench import evaluate_policy, generate_suite, run_suite
from loopwm.critic import CriticWeights, evaluate_rows
from loopwm.errors import DivergenceError, LoopwmError, NoPlanError, NumericError
from loopwm.loop import (
    STATUS_PLAN_FAILURE,
    STATUS_SUCCESS,
    LoopConfig,
    OraclePolicy,
    ReplanEvent,
    WorldMemory,
)
from loopwm.microworld import Literal, apply_operator, load_domain, parse_literal
from loopwm.microworld import reference_segment
from loopwm.numerics import DTYPE, RandomSource, net_init
from loopwm.planner import Goal, plan
from loopwm.worldmodel import SamplerConfig, WorldModelPolicy, velocity_net_sizes
from sequential import FrozenPolicy, GeneratePolicy, SequentialPolicy, run_episode


def goal_of(*texts):
    return Goal(tuple(parse_literal(t) for t in texts))


def random_solvable_goal(spec, rng, max_walk=5):
    """Random walk from the initial state; goal literals sampled from the end state."""
    state = spec.initial_frame
    for _ in range(int(rng.integers(1, max_walk + 1))):
        applicable = [i for i, op in enumerate(spec.operators) if spec.holds(state, op.pre)]
        if not applicable:
            break
        state = apply_operator(spec, state, applicable[int(rng.integers(0, len(applicable)))])
    preds = sorted(p for p, _ in spec.predicates)
    k = int(rng.integers(1, 4))
    picks = [preds[int(rng.integers(0, len(preds)))] for _ in range(k)]
    literals = tuple(sorted({
        parse_literal(p if state[spec.channel_index[p]] else f"not {p}") for p in picks
    }, key=str))
    return Goal(literals)


def test_trivially_satisfied_goal(kitchen):
    log = run_episode(kitchen, goal_of("jar.closed"), OraclePolicy(kitchen),
                      rng=RandomSource(1))
    assert log.status == STATUS_SUCCESS
    assert log.plan_length == 0
    assert log.attempts == []


def test_oracle_policy_full_chain(kitchen):
    log = run_episode(kitchen, goal_of("cup.stirred"), OraclePolicy(kitchen),
                      rng=RandomSource(2))
    assert log.status == STATUS_SUCCESS
    assert log.plan_length == 6
    assert len(log.attempts) == 6
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
    assert not any(a.accepted for a in log.attempts)
    # each outer pass starts the failed step again and records its best tags
    assert [event.at_sid for event in log.replans] == [1] * config.max_outer_replans
    assert all(event.tags for event in log.replans)


def test_zero_retry_config_generates_once_per_version(kitchen):
    config = LoopConfig(k_retries=0, max_outer_replans=0)
    log = run_episode(kitchen, goal_of("jar.lid_removed"), FrozenPolicy(kitchen),
                      config=config, rng=RandomSource(5))
    assert log.status == STATUS_PLAN_FAILURE
    assert len(log.attempts) == 1
    assert log.replans == []


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
    assert len(log.attempts) == 2
    assert [a.attempt for a in log.attempts] == [0, 1]
    assert not log.attempts[0].accepted and log.attempts[1].accepted


class CountingPolicy(GeneratePolicy):
    """Frozen for the first `frozen` candidates taken, then the oracle; records
    the sid of every candidate it is asked for."""

    def __init__(self, spec, frozen):
        self.frozen, self.oracle = FrozenPolicy(spec), OraclePolicy(spec)
        self.budget = frozen
        self.sids = []

    def generate(self, step, memory, rng):
        self.sids.append(step.sid)
        policy = self.frozen if len(self.sids) <= self.budget else self.oracle
        return policy.generate(step, memory, rng)


def test_recovery_after_replan(kitchen):
    # one full pass of rejections (a first try and k retries), then oracle output
    config = LoopConfig()
    policy = CountingPolicy(kitchen, frozen=1 + config.k_retries)
    log = run_episode(kitchen, goal_of("jar.lid_removed"), policy, config,
                      rng=RandomSource(8))
    assert log.status == STATUS_SUCCESS
    assert len(log.replans) == 1
    assert [a.accepted for a in log.attempts].count(True) == 1
    assert [a.attempt for a in log.attempts] == [0, 1, 2, 3, 0]


def test_replan_resumes_at_failed_sid(kitchen):
    # a policy that never moves exhausts the inner retries, so the loop starts
    # the failed step again: the same sid, from a fresh first try
    config = LoopConfig(max_outer_replans=1)
    goal = Goal((Literal("cup.stirred", True),))
    policy = CountingPolicy(kitchen, frozen=100)
    log = run_episode(kitchen, goal, policy, config, rng=RandomSource(4))
    assert log.status == STATUS_PLAN_FAILURE
    assert policy.sids == [1] * 2 * (1 + config.k_retries)
    assert [a.attempt for a in log.attempts] == [0, 1, 2, 3] * 2
    first_pass = log.attempts[:1 + config.k_retries]
    best = max(first_pass, key=lambda a: a.report.scalar).report
    assert log.replans == [ReplanEvent(1, best.tags)]
    assert log.plan_length == len(plan(kitchen, goal))


class MixedPolicy(GeneratePolicy):
    """The oracle for about 30% of the candidates taken, frozen for the rest."""

    def __init__(self, spec, seed):
        self.frozen, self.oracle = FrozenPolicy(spec), OraclePolicy(spec)
        self.coin = np.random.default_rng(seed)

    def generate(self, step, memory, rng):
        policy = self.oracle if self.coin.random() < 0.3 else self.frozen
        return policy.generate(step, memory, rng)


SPECS = {name: load_domain(name) for name in ("kitchen", "workshop")}


@pytest.mark.parametrize("name", sorted(SPECS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_outer_passes_keep_the_plan_and_bound_the_attempts(name, data):
    spec = SPECS[name]
    config = LoopConfig(k_retries=data.draw(st.integers(0, 3)),
                        max_outer_replans=data.draw(st.integers(0, 3)))
    seed = data.draw(st.integers(0, 2**16))
    goal = random_solvable_goal(spec, RandomSource(seed, 1))
    log = run_episode(spec, goal, MixedPolicy(spec, seed), config, rng=RandomSource(seed))
    steps = plan(spec, goal)
    assert log.plan_length == len(steps)
    # the attempts visit the initial plan's steps in order, never skipping one
    visited = [sid for sid, _ in groupby(a.sid for a in log.attempts)]
    assert visited == [step.sid for step in steps][:len(visited)]
    assert len(log.replans) <= config.max_outer_replans
    assert (len(log.attempts)
            <= (len(steps) + config.max_outer_replans) * (1 + config.k_retries))
    assert log.succeeded == (sum(a.accepted for a in log.attempts) == len(steps))


def test_unsolvable_goal_raises(kitchen):
    with pytest.raises(NoPlanError):
        run_episode(kitchen, goal_of("not jar.closed", "not jar.lid_removed"),
                    OraclePolicy(kitchen), rng=RandomSource(9))


def test_memory_advance_chain_replay(kitchen):
    memory = WorldMemory.fresh(kitchen)
    goal = goal_of("cup.full")
    from loopwm.planner import plan
    seq = plan(kitchen, goal)
    rng = RandomSource(10)
    state = kitchen.initial_frame
    for step in seq:
        seg = reference_segment(kitchen, memory.state, step.op, rng=rng)
        memory.advance(step, seg)
        state = apply_operator(kitchen, state, step.op)
        assert np.array_equal(memory.frame, seg[-1])
    assert memory.state.tobytes() == state.tobytes()


# ------------------------------------------------- batched and lockstep sampling

# how far a row's float32 frames may move when it shares its sampler batch
# with other rows: BLAS may sum a batch in another order (1e-12 when the
# sampler ran in float64)
ROW_ATOL = 1e-5


def learned_policy(spec, seed=0, eta_scale=0.3):
    config = SamplerConfig(k_steps=3, eta_scale=eta_scale, n_frames=4)
    theta = net_init(velocity_net_sizes(spec, config, hidden=8, depth=1), RandomSource(seed))
    return WorldModelPolicy(theta, spec, config)


def diverging_policy(spec):
    """A learned policy whose rows go NaN or not depending on their own noise."""
    policy = learned_policy(spec)
    # hidden unit 0 sums max/1.8 * z[0] and -inf * t: NaN once a row's first
    # latent coordinate passes 1.8, so whether a row diverges rests on its noise
    weights = policy.theta.weights[0]
    weights[0, :] = 0.0
    weights[0, 0] = np.finfo(DTYPE).max / 1.8
    weights[0, policy.theta.sizes[-1]] = -np.inf
    return policy


def assert_same_episode(log, reference):
    summary = [
        ([(a.sid, a.attempt, a.accepted, a.report.scalar) for a in run.attempts],
         run.replans, run.status)
        for run in (log, reference)
    ]
    assert summary[0] == summary[1]
    for got, want in zip(log.attempts, reference.attempts):
        np.testing.assert_allclose(got.frames, want.frames, rtol=0,
                                   atol=ROW_ATOL)


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


def first_retry_rows():
    """A row scorer that rejects each step's first try and accepts its first retry."""
    tries = Counter()

    def rows(spec, frames, steps, weights, tau):
        reports = []
        for step, report in zip(steps, evaluate_rows(spec, frames, steps, weights, tau)):
            tries[step.sid] += 1
            reports.append(replace(report, scalar=float(tries[step.sid] == 2)))
        return reports

    return rows


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
                                                rows=first_retry_rows()))
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


def run_alone(spec, suite, policy, config, rng, rows=evaluate_rows):
    """Each task's episode by itself, one row at a time; None where it failed."""
    logs = []
    for i, task in enumerate(suite.tasks):
        try:
            logs.append(run_episode(spec, task.goal, SequentialPolicy(policy), config,
                                    rng=rng.split(i), rows=rows))
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


def poisoning_rows(op):
    """A row scorer that accepts every segment for a step of operator `op` and
    then puts NaN in its last frame, so the next step of that episode has a
    non-finite condition."""
    def rows(spec, frames, steps, weights, tau):
        reports = evaluate_rows(spec, frames, steps, weights, tau)
        for i, step in enumerate(steps):
            if step.op == op:
                frames[i][-1, 0] = np.nan
                reports[i] = replace(reports[i], scalar=1.0)
        return reports

    return rows


@pytest.mark.parametrize("source", ["net", "condition"])
def test_lockstep_suite_fails_the_episodes_that_fail_alone(kitchen, monkeypatch, source):
    suite = generate_suite(kitchen, seed=7)
    config = LoopConfig(tau=0.4)
    first = plan(kitchen, suite.tasks[0].goal)[0]
    if source == "net":
        policy, rows = diverging_policy(kitchen), evaluate_rows
    else:
        policy, rows = learned_policy(kitchen), poisoning_rows(first.op)
    rng = RandomSource(4)
    with np.errstate(over="ignore", invalid="ignore"):
        alone = run_alone(kitchen, suite, policy, config, rng, rows=rows)
        monkeypatch.setattr(metrics_module, "evaluate_rows", rows)
        lockstep = run_suite(policy, suite, config, rng=rng)
    failed = [log is None for log in lockstep]
    assert failed == [log is None for log in alone]
    assert 0 < sum(failed) < len(failed)
    for log, reference in zip(lockstep, alone):
        if log is not None:
            assert_same_episode(log, reference)


class CheckedDraws:
    """A policy whose every draw must return finite (F, C) float frames or raise a LoopwmError."""

    def __init__(self, policy, spec, n_frames):
        self.policy = policy
        self.shape = (n_frames, spec.n_channels)
        self.outcomes = Counter()

    def fulfil(self, requests):
        return [self.checked(draw) for draw in self.policy.fulfil(requests)]

    def checked(self, draw):
        def checked_draw():
            try:
                frames = draw()
            except LoopwmError:
                self.outcomes["raised"] += 1
                raise
            assert isinstance(frames, np.ndarray) and frames.dtype.kind == "f"
            assert frames.shape == self.shape and np.isfinite(frames).all()
            self.outcomes["returned"] += 1
            return frames

        return checked_draw


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("source", ["oracle", "net", "diverging net"])
def test_every_draw_is_finite_frames_or_raises(name, source):
    # nothing downstream checks a segment: each policy owns its frames'
    # finiteness and shape, and raises the failures it cannot serve
    spec = SPECS[name]
    if source == "oracle":
        policy, n_frames = OraclePolicy(spec), 16
    else:
        policy = learned_policy(spec) if source == "net" else diverging_policy(spec)
        n_frames = policy.config.n_frames
    checked = CheckedDraws(policy, spec, n_frames)
    with np.errstate(over="ignore", invalid="ignore"):
        logs = run_suite(checked, generate_suite(spec, seed=7, counts=(4, 4, 2)),
                         LoopConfig(tau=0.4), rng=RandomSource(5))
    assert checked.outcomes["returned"] > 0
    assert (checked.outcomes["raised"] > 0) == (source == "diverging net")
    assert (None in logs) == (source == "diverging net")


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


def test_lockstep_suite_scores_each_pass_in_one_critic_call(kitchen, monkeypatch):
    suite = generate_suite(kitchen, seed=7)
    config = LoopConfig(tau=0.4)
    weights = CriticWeights(0.3, 0.2, 0.2, 0.2, 0.1)
    policy = learned_policy(kitchen)
    reference = run_suite(policy, suite, config, rng=RandomSource(3), weights=weights)
    calls = []

    def spy(spec, frames, steps, weights, tau):
        calls.append((len(steps), weights, tau))
        return evaluate_rows(spec, frames, steps, weights, tau)

    monkeypatch.setattr(metrics_module, "evaluate_rows", spy)
    lockstep = run_suite(policy, suite, config, rng=RandomSource(3), weights=weights)
    for log, want in zip(lockstep, reference):
        assert_same_episode(log, want)
    # every pass scores under the weights given and at the loop's tau
    assert {(w, tau) for _, w, tau in calls} == {(weights, config.tau)}
    # every running episode has one draw per round; pass j of round r scores
    # the j-th candidate of each episode that takes that many from its draw
    taken = [candidates_taken(log) for log in lockstep]
    passes = []
    for r in range(max(len(t) for t in taken)):
        in_round = [t[r] for t in taken if len(t) > r]
        passes.extend(sum(n >= j for n in in_round) for j in range(1, max(in_round) + 1))
    rows = [n for n, _, _ in calls]
    assert rows == passes
    assert sum(rows) == sum(len(log.attempts) for log in lockstep)
    assert len(rows) < sum(rows) / 10
