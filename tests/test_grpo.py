"""Group-rollout training: advantages, clipped updates, KL terms, curriculum."""

import importlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopwm.critic import DIMENSIONS, score_group
from loopwm.errors import LoopwmError, NumericError
from loopwm.grpo import (
    GrpoConfig,
    RolloutGroup,
    TrainingLog,
    TrainingRecord,
    compute_advantages,
    curriculum_schedule,
    group_rewards,
    grpo_update,
    objective_terms,
    rollout_group,
    rollout_k_steps,
    surrogate_rows,
    train,
)
from loopwm.memory import WorldMemory
from loopwm.microworld import parse_literal, reference_segment
from loopwm.numerics import (
    RandomSource,
    clone_params,
    net_activations,
    net_backward_batch,
    net_init,
    opt_init,
    opt_step,
)
from loopwm.planner import Goal, plan
from loopwm.worldmodel import (
    PolicyBundle,
    SamplerConfig,
    Transitions,
    build_demos,
    embed_condition,
    mean_affine_coeffs,
    mean_terms,
    sample_group,
    sft_train,
    velocity_net_sizes,
)
from oracles import evaluate, finite_diff_grad, net_input
from per_array import PlainNet
from per_row import (
    DenoiseTrace,
    as_record_group,
    as_records,
    gaussian_logpdf,
    kl_term,
    objective_terms_records,
    trace_dtype,
    transition_logprob,
    transition_mean,
)
from sequential import sample_sde


def small_sampler(n_frames=2, k_steps=3, eta_scale=0.3):
    return SamplerConfig(k_steps=k_steps, eta_scale=eta_scale, n_frames=n_frames)


def tiny_net(latent, cond_width, hidden=4, seed=0):
    return net_init([latent + 1 + cond_width, hidden, latent], RandomSource(seed))


def goal_of(*texts):
    return Goal(tuple(parse_literal(t) for t in texts))


def first_step(spec, *texts):
    return plan(spec, goal_of(*texts))[0]


def synthetic_group(theta_old, cond, sampler, rewards, delta=1e-8, seed=3):
    """Roll a group directly through the sampler, skipping the critic.

    Member i's noise is drawn from `rng.split(i)`.
    """
    rng = RandomSource(seed)
    latent = theta_old.sizes[-1]
    z_init = np.asarray(rng.normal(shape=latent), dtype=np.float64)
    noise = np.stack([rng.split(i).normal(shape=(sampler.k_steps, latent))
                      for i in range(len(rewards))])
    frames, trace = sample_group(theta_old, cond, z_init, sampler, noise)
    rewards = np.asarray(rewards, dtype=np.float64)
    return RolloutGroup(frames, trace, {}, rewards, compute_advantages(rewards, delta))


def rows_of(*picks):
    """A group of the given (group, member) rows, in order, with the first group's advantages."""
    traces = [group.trace.row(i) for group, i in picks]
    steps, std = np.stack([t.steps for t in traces]), traces[0].std
    latent = traces[0].z_next.shape[-1]
    trace = Transitions(steps, np.stack([t.z_next for t in traces]), std,
                        np.stack([t.logp for t in traces]),
                        *mean_terms(steps[:, :, :latent], steps[0, :, latent], std))
    first = picks[0][0]
    return RolloutGroup(np.stack([group.frames[i] for group, i in picks]), trace, {},
                        first.rewards[:len(picks)], first.advantages[:len(picks)])


# max |ratio - 1| at theta_old == theta. The sampler records each density in
# float64 from its float32 net outputs, through the mean terms its trace
# carries to the objective and the objective's own `transition_logp`, so
# the ratios differ from 1 only
# where the objective's (G*K)-row float32 forward rounds differently from
# the sampler's G-row ones: 5.1e-5 at the benchmark's sizes (net 128x3,
# F=8, rollout K=3, G=8) over 187 groups, 0 at the sizes tested here
# (1e-12 when the net ran in float64)
SYNC_RATIO_BOUND = 1e-4
# the row loop below runs in float64; objective_terms runs its nets in
# float32 (rel 1e-9 and flat_rel_err 1e-9 in float64; worst seen over 20
# seeds: value 8.2e-5 relative to a near-zero value, ratios 9.3e-6, grads 5.1e-7)
ROW_LOOP_RTOL = 1e-4


def flat_rel_err(got, want):
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))


# configuration and curriculum


def test_config_defaults_and_validation():
    config = GrpoConfig()
    assert config.group_size == 8
    assert config.epsilon == 0.2
    assert config.beta == 0.01
    assert config.delta == 1e-8
    assert config.iterations == 300
    for bad in (
        dict(group_size=1),
        dict(epsilon=0.0),
        dict(epsilon=1.0),
        dict(beta=-0.1),
        dict(delta=0.0),
        dict(lr=0.0),
        dict(iterations=-1),
        dict(reward_dimension="style"),
    ):
        with pytest.raises(LoopwmError):
            GrpoConfig(**bad)


def test_rollout_k_is_a_quarter_of_the_sampler_k_within_3_and_k():
    ks = (1, 2, 3, 4, 5, 9, 10, 12, 13, 16, 20, 40)
    assert [rollout_k_steps(k) for k in ks] == [1, 2, 3, 3, 3, 3, 3, 3, 4, 4, 5, 10]


@given(st.integers(1, 10_000))
def test_rollout_k_lies_within_3_and_k_and_never_falls_as_k_grows(k_steps):
    rollout_k = rollout_k_steps(k_steps)
    assert min(k_steps, 3) <= rollout_k <= k_steps
    assert rollout_k <= rollout_k_steps(k_steps + 1)
    if k_steps >= 3:
        assert rollout_k_steps(4 * k_steps) == k_steps


def test_config_rejects_bad_curricula():
    for bad in (
        (),
        ((2, 1),),                      # must start at iteration 1
        ((1, 1), (1, 2)),               # starts strictly increasing
        ((1, 3), (50, 1)),              # levels non-decreasing
        ((1, 0),),                      # level at least 1
    ):
        with pytest.raises(LoopwmError):
            GrpoConfig(curriculum=bad)


def test_curriculum_schedule_boundaries():
    config = GrpoConfig(curriculum=((1, 1), (101, 3), (201, 5)))
    assert curriculum_schedule(config, 1) == 1
    assert curriculum_schedule(config, 100) == 1
    # intervals are left-closed: the boundary iteration gets the next level
    assert curriculum_schedule(config, 101) == 3
    assert curriculum_schedule(config, 200) == 3
    assert curriculum_schedule(config, 201) == 5
    assert curriculum_schedule(config, 300) == 5
    assert curriculum_schedule(config, 9_999) == 5
    with pytest.raises(LoopwmError):
        curriculum_schedule(config, 0)
    levels = [curriculum_schedule(config, i) for i in range(1, 401)]
    assert all(b >= a for a, b in zip(levels, levels[1:]))


# advantages


def test_advantages_match_hand_arithmetic():
    equal = compute_advantages([0.5] * 8)
    assert np.array_equal(equal, np.zeros(8))
    pair = compute_advantages([0.0, 1.0], delta=1e-8)
    # mean 0.5, population std 0.5: A = 0.5 / (0.5 + 1e-8)
    expected = 0.5 / (0.5 + 1e-8)
    assert abs(pair[0] + expected) < 1e-15
    assert abs(pair[1] - expected) < 1e-15
    assert pair[1] == pytest.approx(0.99999998, abs=1e-9)


def test_advantage_identities_on_random_groups():
    gen = np.random.default_rng(0)
    delta = 1e-8
    for _ in range(2000):
        size = int(gen.integers(2, 13))
        rewards = gen.uniform(size=size)
        adv = compute_advantages(rewards, delta)
        assert abs(adv.mean()) <= 1e-12
        sigma = float(rewards.std())
        # exact identity: std(A) = sigma / (sigma + delta)
        assert abs(float(adv.std()) - sigma / (sigma + delta)) <= 1e-12
        # the 1e-6 window needs sigma to dominate delta by 1e6, since
        # 1 - std(A) = delta / (sigma + delta)
        if sigma >= delta / 1e-6:
            assert 1.0 - 1e-6 <= float(adv.std()) <= 1.0


def test_advantages_reject_bad_input():
    with pytest.raises(LoopwmError):
        compute_advantages([0.5])
    with pytest.raises(LoopwmError):
        compute_advantages([0.1, 0.9], delta=0.0)


# rollout groups


def kitchen_sampler(kitchen, k_steps=3, n_frames=2, eta_scale=0.3):
    return SamplerConfig(k_steps=k_steps, eta_scale=eta_scale, n_frames=n_frames)


def kitchen_net(kitchen, sampler, hidden=8, seed=0):
    return net_init(velocity_net_sizes(kitchen, sampler, hidden=hidden, depth=1),
                    RandomSource(seed))


def test_rollout_group_shares_initial_noise(kitchen):
    sampler = kitchen_sampler(kitchen)
    theta = kitchen_net(kitchen, sampler)
    step = first_step(kitchen, "kettle.grasped")
    config = GrpoConfig(group_size=4)
    group = rollout_group(theta, kitchen, step, WorldMemory.fresh(kitchen),
                          sampler, config, RandomSource(5))
    assert group.frames.shape[0] == group.rewards.size == 4
    latent = theta.sizes[-1]
    z_init = group.trace.steps[0, 0, :latent]
    assert z_init.shape == (latent,)
    for i in range(4):
        assert np.array_equal(group.trace.steps[i, 0, :latent], z_init)
        assert 0.0 <= group.rewards[i] <= 1.0
        assert sorted(group.scores) == sorted(DIMENSIONS)
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(group.frames[i], group.frames[j])
    again = rollout_group(theta, kitchen, step, WorldMemory.fresh(kitchen),
                          sampler, config, RandomSource(5))
    assert np.array_equal(group.rewards, again.rewards)


def test_successive_groups_draw_fresh_noise(kitchen, monkeypatch):
    drawn = []

    def spy(theta, cond, z_init, config, noise):
        drawn.append(noise)
        return sample_group(theta, cond, z_init, config, noise)

    monkeypatch.setattr("loopwm.grpo.rollout.sample_group", spy)
    sampler = kitchen_sampler(kitchen)
    theta = kitchen_net(kitchen, sampler)
    step = first_step(kitchen, "kettle.grasped")
    config = GrpoConfig(group_size=3)
    for _ in range(2):
        rng = RandomSource(5)
        for _ in range(2):
            rollout_group(theta, kitchen, step, WorldMemory.fresh(kitchen),
                          sampler, config, rng)
    first, second, first_again, second_again = drawn
    # member i of the second group does not reuse member i's increments
    for i in range(3):
        assert not np.any(first[i] == second[i])
    assert np.array_equal(first, first_again)
    assert np.array_equal(second, second_again)


def test_group_sampler_shared_stream_collapses_group(kitchen):
    # two rows on equal streams see the same noise, so the group collapses
    # to identical members
    sampler = kitchen_sampler(kitchen)
    theta = kitchen_net(kitchen, sampler)
    step = first_step(kitchen, "kettle.grasped")
    cond = embed_condition(kitchen, step, WorldMemory.fresh(kitchen))
    latent = theta.sizes[-1]
    z_init = np.asarray(RandomSource(1).normal(shape=latent))
    noise = np.stack([RandomSource(1).split(0).normal(
        shape=(sampler.k_steps, latent)) for _ in range(2)])
    frames, trace = sample_group(theta, cond, z_init, sampler, noise)
    assert np.array_equal(frames[0], frames[1])
    assert np.array_equal(trace.logp[0], trace.logp[1])
    first, second = frames[0], frames[1]
    assert evaluate(kitchen, first, step).scalar == evaluate(kitchen, second, step).scalar


def test_rollout_requires_stochastic_sampler(kitchen):
    sampler = kitchen_sampler(kitchen, eta_scale=0.0)
    theta = kitchen_net(kitchen, sampler)
    step = first_step(kitchen, "kettle.grasped")
    with pytest.raises(LoopwmError):
        rollout_group(theta, kitchen, step, WorldMemory.fresh(kitchen),
                      sampler, GrpoConfig(), RandomSource(0))


def test_member_reward_sources(kitchen):
    step = first_step(kitchen, "kettle.grasped")
    segment = reference_segment(kitchen, kitchen.initial_frame, step.op,
                                n_frames=8)
    report = evaluate(kitchen, segment, step)
    scored = score_group(kitchen, segment[None], step)
    assert group_rewards(scored, GrpoConfig()).tolist() == [report.scalar]
    dim_config = GrpoConfig(reward_dimension="action_adherence")
    assert group_rewards(scored, dim_config).tolist() == [report.scores["action_adherence"]]


def test_best_segment_is_the_first_top_reward_row_as_a_view():
    # the row the training loop carries on: highest reward, first on ties
    sampler = small_sampler()
    theta = tiny_net(latent=4, cond_width=3)
    group = synthetic_group(theta, np.array([0.5, 0.1, 0.2]), sampler,
                            rewards=[0.1, 0.9, 0.4, 0.9])
    assert len({row.tobytes() for row in group.frames}) == 4
    best = group.best_segment()
    assert best.tobytes() == group.frames[1].tobytes()
    assert np.shares_memory(best, group.frames)


@pytest.mark.parametrize("dimension", [None, "temporal_coherence"])
def test_rollout_group_reports_equal_per_member_evaluate(kitchen, dimension):
    sampler = kitchen_sampler(kitchen, n_frames=8)
    theta = kitchen_net(kitchen, sampler)
    step = first_step(kitchen, "kettle.grasped")
    config = GrpoConfig(group_size=5, reward_dimension=dimension)
    group = rollout_group(theta, kitchen, step, WorldMemory.fresh(kitchen),
                          sampler, config, RandomSource(2))
    for i, frames in enumerate(group.frames):
        want = evaluate(kitchen, frames, step)
        assert {d: group.scores[d][i] for d in DIMENSIONS} == want.scores
        assert group.rewards[i] == (want.scalar if dimension is None
                                    else want.scores[dimension])


# surrogate and clipping


def test_surrogate_row_clip_semantics():
    values, binding = surrogate_rows(
        np.array([10.0, 10.0, 0.5, 1.0]),
        np.array([1.0, -1.0, -1.0, 1.0]),
        epsilon=0.2,
    )
    # rho=10, A>0: capped at (1+eps)*A and the cap binds
    assert values[0] == pytest.approx(1.2)
    assert binding[0]
    # rho=10, A<0: min keeps the unclipped, more pessimistic branch
    assert values[1] == pytest.approx(-10.0)
    assert not binding[1]
    # rho=0.5, A<0: clipped branch is lower
    assert values[2] == pytest.approx(-0.8)
    assert binding[2]
    assert values[3] == pytest.approx(1.0)
    assert not binding[3]


def test_ratios_equal_one_at_sync(kitchen):
    sampler = kitchen_sampler(kitchen)
    theta = kitchen_net(kitchen, sampler)
    step = first_step(kitchen, "kettle.grasped")
    config = GrpoConfig(group_size=3)
    group = rollout_group(theta, kitchen, step, WorldMemory.fresh(kitchen),
                          sampler, config, RandomSource(2))
    for member in as_record_group(group).members:
        for ts in member.trace.steps:
            # the float64 oracle against the float32 net's recorded density
            rho = math.exp(transition_logprob(theta, ts, member.trace.cond) - ts["logp"])
            assert abs(rho - 1.0) <= SYNC_RATIO_BOUND
    bundle = PolicyBundle.from_reference(theta)
    _, _, terms = grpo_update(bundle, group, config)
    assert terms.clip_fraction == 0.0
    assert terms.dropped == 0
    assert terms.ratios.dtype == np.float64
    assert np.abs(terms.ratios - 1.0).max() <= SYNC_RATIO_BOUND


def test_fixed_point_leaves_parameters_untouched():
    sampler = small_sampler()
    cond = np.array([0.3, -0.1, 0.6])
    theta = tiny_net(4, 3, seed=4)
    group = synthetic_group(theta, cond, sampler, rewards=[0.4] * 4, seed=6)
    assert np.array_equal(group.advantages, np.zeros(4))
    bundle = PolicyBundle.from_reference(theta)
    before = bundle.theta.vector.copy()
    updated, _, stats = grpo_update(bundle, group, GrpoConfig(group_size=4))
    assert stats.surrogate == 0.0
    assert stats.kl == 0.0
    drift = float(np.abs(updated.vector - before).max())
    assert drift < 1e-12


def test_degenerate_group_gradient_is_pure_kl():
    sampler = small_sampler()
    cond = np.array([0.4, 0.3, -0.5])
    theta = tiny_net(4, 3, seed=2)
    reference = tiny_net(4, 3, seed=7)
    group = synthetic_group(theta, cond, sampler, rewards=[0.6] * 3, seed=9)
    config = GrpoConfig(group_size=3, beta=0.05)
    terms = objective_terms(theta, reference, group, config)
    assert terms.surrogate == 0.0
    assert terms.kl > 0.0

    records = as_record_group(group)

    def scaled_neg_kl(params):
        values = [kl_term(params, reference, m.trace) for m in records.members]
        return -config.beta * float(np.mean(values))

    fd = finite_diff_grad(scaled_neg_kl, theta)
    assert flat_rel_err(terms.grads, fd) < 1e-3


def test_surrogate_gradient_matches_finite_differences():
    sampler = small_sampler()
    cond = np.array([0.7, -0.2, 0.1])
    theta_old = tiny_net(4, 3, seed=1)
    group = synthetic_group(theta_old, cond, sampler,
                            rewards=[0.2, 0.9, 0.5, 0.7], seed=5)
    theta = clone_params(theta_old)
    theta.vector[:] += 0.01 * np.asarray(RandomSource(11).normal(shape=theta.vector.size))
    config = GrpoConfig(group_size=4, beta=0.0)
    terms = objective_terms(theta, theta_old, group, config)
    # the check only covers the smooth regime: no row may be clipped
    assert terms.clip_fraction == 0.0
    eps = config.epsilon
    records = as_record_group(group)

    def surrogate(params):
        values = []
        for i, member in enumerate(records.members):
            adv = float(group.advantages[i])
            for ts in member.trace.steps:
                rho = math.exp(transition_logprob(params, ts, cond)
                               - ts["logp"])
                clipped = min(max(rho, 1.0 - eps), 1.0 + eps)
                values.append(min(rho * adv, clipped * adv))
        return float(np.mean(values))

    # the float64 oracle against the float32 nets (1e-9 in float64)
    assert abs(surrogate(theta) - terms.surrogate) < 1e-6
    fd = finite_diff_grad(surrogate, theta)
    assert flat_rel_err(terms.grads, fd) < 1e-3


def row_loop_objective(theta, reference, group, config):
    """One row at a time through transition_mean: (value, ratios, grads).

    Reference for the stacked rows of objective_terms; assumes no member is
    dropped. It runs in float64, on the float32 parameters' values.
    """
    theta, reference = PlainNet.float64(theta), PlainNet.float64(reference)
    rows = [(float(group.advantages[i]), member.trace.cond, ts)
            for i, member in enumerate(as_record_group(group).members)
            for ts in member.trace.steps]
    values, kls, ratios, grads = [], [], [], None
    for adv, cond, ts in rows:
        t, dt, std, z, z_next = ts["t"], ts["dt"], ts["std"], ts["z"], ts["z_next"]
        mean_t = transition_mean(theta, ts, cond)
        mean_r = transition_mean(reference, ts, cond)
        rho = math.exp(gaussian_logpdf(z_next, mean_t, std) - ts["logp"])
        clipped = min(max(rho, 1.0 - config.epsilon), 1.0 + config.epsilon)
        values.append(min(rho * adv, clipped * adv))
        kls.append(float((mean_t - mean_r) @ (mean_t - mean_r)) / (2.0 * std ** 2))
        ratios.append(rho)
        binding = (adv > 0 and rho > 1.0 + config.epsilon) or \
            (adv < 0 and rho < 1.0 - config.epsilon)
        flow = 0.0 if binding else 1.0
        weight = (flow * adv * rho * (z_next - mean_t) - config.beta * (mean_t - mean_r)) \
            / std ** 2
        out_grad = mean_affine_coeffs(t, dt, std)[1] * weight / len(rows)
        acts = net_activations(theta, net_input(z, t, cond))
        row_grads = net_backward_batch(theta, acts, out_grad[None, :])
        grads = row_grads if grads is None else grads + row_grads
    value = float(np.mean(values)) - config.beta * float(np.mean(kls))
    return value, np.array(ratios), grads


@pytest.mark.parametrize("beta, scale", [(0.0, 0.01), (0.05, 0.01), (0.05, 0.5)])
def test_objective_terms_match_row_loop(beta, scale):
    # scale 0.5 pushes ratios past the clip, so binding rows are covered too
    sampler = small_sampler(k_steps=4)
    cond = np.array([0.3, -0.6, 0.2])
    theta_old = tiny_net(4, 3, hidden=5, seed=21)
    group = synthetic_group(theta_old, cond, sampler,
                            rewards=[0.1, 0.8, 0.4, 0.6, 0.3], seed=9)
    theta = clone_params(theta_old)
    theta.vector[:] += scale * np.asarray(RandomSource(23).normal(shape=theta.vector.size))
    reference = tiny_net(4, 3, hidden=5, seed=22)
    config = GrpoConfig(group_size=5, beta=beta)
    terms = objective_terms(theta, reference, group, config)
    assert terms.dropped == 0
    value, ratios, grads = row_loop_objective(theta, reference, group, config)
    assert terms.value == pytest.approx(value, rel=ROW_LOOP_RTOL, abs=1e-6)
    np.testing.assert_allclose(terms.ratios, ratios, rtol=ROW_LOOP_RTOL, atol=0)
    assert flat_rel_err(terms.grads, grads) < ROW_LOOP_RTOL
    if scale > 0.1:
        assert terms.clip_fraction > 0.0


def test_objective_terms_scores_each_member_under_its_own_condition():
    # members sampled under different conditions: at theta == theta_old every
    # ratio is 1 only if each member is re-scored under the condition its
    # trace recorded
    sampler = small_sampler(k_steps=3)
    theta = tiny_net(4, 3, hidden=5, seed=31)
    near = synthetic_group(theta, np.array([0.3, -0.6, 0.2]), sampler,
                           rewards=[0.1, 0.8], seed=4)
    far = synthetic_group(theta, np.array([-0.9, 0.5, 0.7]), sampler,
                          rewards=[0.4, 0.6], seed=5)
    group = rows_of((near, 0), (far, 1))
    config = GrpoConfig(group_size=2, beta=0.05)
    terms = objective_terms(theta, theta, group, config)
    assert terms.dropped == 0
    np.testing.assert_allclose(terms.ratios, 1.0, rtol=0, atol=SYNC_RATIO_BOUND)
    reference = tiny_net(4, 3, hidden=5, seed=32)
    terms = objective_terms(theta, reference, group, config)
    value, ratios, grads = row_loop_objective(theta, reference, group, config)
    assert terms.value == pytest.approx(value, rel=ROW_LOOP_RTOL, abs=1e-6)
    kls = [kl_term(theta, reference, m.trace)
           for m in as_record_group(group).members]
    assert terms.kl == pytest.approx(float(np.mean(kls)), rel=ROW_LOOP_RTOL)
    assert flat_rel_err(terms.grads, grads) < ROW_LOOP_RTOL


@settings(max_examples=60, deadline=None)
@given(
    hidden=st.lists(st.integers(1, 12), min_size=1, max_size=3),
    frame_width=st.integers(1, 6),
    cond_width=st.integers(1, 12),
    group_size=st.integers(2, 6),
    k_steps=st.integers(1, 5),
    drop=st.booleans(),
    beta=st.sampled_from([0.0, 0.05]),
    scale=st.sampled_from([0.01, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_objective_terms_equal_the_record_objective(hidden, frame_width, cond_width, group_size,
                                                    k_steps, drop, beta, scale, seed):
    # the objective over the group's arrays is the record-array objective
    # over the same rollout, bit for bit, whether or not a member is dropped
    sampler = small_sampler(k_steps=k_steps)
    latent = sampler.n_frames * frame_width
    sizes = [latent + 1 + cond_width, *hidden, latent]
    theta_old = net_init(sizes, RandomSource(seed))
    theta = clone_params(theta_old)
    theta.vector[:] += scale * np.asarray(RandomSource(seed, 1).normal(shape=theta.vector.size))
    reference = net_init(sizes, RandomSource(seed, 2))
    rng = RandomSource(seed, 3)
    cond = np.asarray(rng.normal(shape=cond_width))
    z_init = np.asarray(rng.normal(shape=latent))
    noise = np.asarray(rng.normal(shape=(group_size, k_steps, latent)))
    frames, trace = sample_group(theta_old, cond, z_init, sampler, noise)
    rewards = np.asarray(rng.uniform(shape=group_size))
    group = RolloutGroup(frames, trace, {}, rewards, compute_advantages(rewards))
    if drop:
        group = poison(group, int(rng.choice(group_size)))
    config = GrpoConfig(group_size=group_size, beta=beta)
    got = objective_terms(theta, reference, group, config)
    want = objective_terms_records(theta, reference, as_record_group(group), config)
    assert got.dropped == want.dropped == int(drop)
    assert got.kept == want.kept
    for name in ("value", "surrogate", "kl", "clip_fraction"):
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name
    assert np.array_equal(got.ratios, want.ratios)
    assert np.array_equal(got.grads, want.grads)


def bits(x: float) -> str:
    return float(x).hex()


def test_objective_terms_runs_each_net_forward_once(tanh_calls):
    # theta's forward feeds the backward pass, so each net runs its hidden
    # layers once per call: one activation call per hidden layer and net, on
    # a feature-major (width, rows) block of the 3 members' 4 steps
    sampler = small_sampler(k_steps=4)
    cond = np.array([0.3, -0.6, 0.2])
    theta = net_init([8, 5, 5, 4], RandomSource(21))
    reference = net_init([8, 5, 5, 4], RandomSource(22))
    group = synthetic_group(theta, cond, sampler, rewards=[0.1, 0.8, 0.4], seed=9)
    tanh_calls.clear()
    terms = objective_terms(theta, reference, group, GrpoConfig(group_size=3))
    assert terms.dropped == 0
    assert tanh_calls == [(5, 12)] * 4


def test_single_member_gradient_is_vanilla_policy_gradient():
    # A = +1 on the lone live member reduces the surrogate to its trace
    # log-likelihood, up to the step average
    sampler = small_sampler(n_frames=3, k_steps=2)
    cond = np.array([0.2, 0.4])
    theta = tiny_net(3, 2, hidden=3, seed=8)
    group = synthetic_group(theta, cond, sampler, rewards=[1.0, 0.0], seed=12)
    assert group.advantages[0] > 0.99
    config = GrpoConfig(group_size=2, beta=0.0)
    terms = objective_terms(theta, theta, group, config)

    records = as_record_group(group)

    def weighted_loglik(params):
        values = []
        for i, member in enumerate(records.members):
            adv = float(group.advantages[i])
            for ts in member.trace.steps:
                values.append(adv * transition_logprob(params, ts, cond))
        return float(np.mean(values))

    fd = finite_diff_grad(weighted_loglik, theta)
    assert flat_rel_err(terms.grads, fd) < 1e-3


# KL term


def test_kl_zero_at_reference_and_hand_offset():
    sampler = small_sampler(k_steps=1)
    cond = np.array([0.2, 0.2, 0.2])
    theta = net_init([4 + 1 + 3, 4], RandomSource(0))
    theta.vector[:] = 0.0
    _, trace = sample_sde(theta, cond, np.zeros(4), sampler, RandomSource(4))
    trace = as_records(trace)
    step = trace.steps[0]
    assert step["t"] == 1.0 and step["std"] == pytest.approx(0.3)
    assert kl_term(theta, theta, trace) == 0.0
    # at t=1 the mean is z - dt*u, so a velocity offset of s in one
    # coordinate shifts the mean by exactly s: KL contribution 0.5*(s/std)^2,
    # 0.5 up to the float32 rounding of s = std
    reference = clone_params(theta)
    reference.biases[-1][0] = step["std"]
    offset = float(reference.biases[-1][0])
    assert kl_term(theta, reference, trace) == pytest.approx(
        0.5 * (offset / step["std"]) ** 2, abs=1e-12)


def one_step_trace(cond, t, dt, std, z, z_next):
    """A hand-built one-transition trace of latent width 1."""
    steps = np.array([(t, dt, std, 0.0, [z], [z_next])], dtype=trace_dtype(1))
    return DenoiseTrace(cond=cond, steps=steps)


def test_kl_matches_monte_carlo_estimate_1d():
    trace = one_step_trace(np.array([0.5, -0.3]), t=0.6, dt=0.25, std=0.2, z=0.4, z_next=0.1)
    ts = trace.steps[0]
    theta = net_init([4, 1], RandomSource(3))
    reference = clone_params(theta)
    reference.biases[-1][0] += 1.0
    exact = kl_term(theta, reference, trace)
    assert exact > 0.1
    mu_theta = transition_mean(theta, ts, trace.cond)
    mu_ref = transition_mean(reference, ts, trace.cond)
    std = ts["std"]
    gen = np.random.default_rng(42)
    draws = gen.normal(mu_theta[0], std, size=200_000)
    log_ratio = (-((draws - mu_theta[0]) ** 2) + (draws - mu_ref[0]) ** 2) / (2.0 * std * std)
    estimate = float(log_ratio.mean())
    assert abs(estimate - exact) / exact < 0.05


def test_kl_rejects_deterministic_trace():
    trace = one_step_trace(np.array([0.1]), t=1.0, dt=1.0, std=0.0, z=0.2, z_next=0.2)
    theta = net_init([3, 1], RandomSource(0))
    with pytest.raises(LoopwmError):
        kl_term(theta, theta, trace)


# dropping and skipping


def poison(group, *members):
    """The group with the recorded log-densities of `members` at -inf: infinite ratios."""
    logp = group.trace.logp.copy()
    logp[list(members)] = -np.inf
    return replace(group, trace=replace(group.trace, logp=logp))


def test_nonfinite_ratio_drops_member():
    sampler = small_sampler(k_steps=2)
    cond = np.array([0.1, 0.9, -0.4])
    theta = tiny_net(4, 3, seed=0)
    group = synthetic_group(theta, cond, sampler, rewards=[0.1, 0.9], seed=2)
    group = poison(group, 0)
    config = GrpoConfig(group_size=2)
    terms = objective_terms(theta, theta, group, config)
    assert terms.kept == (1,)
    assert terms.dropped == 1
    assert terms.grads.shape == theta.vector.shape
    assert np.isfinite(terms.grads).all()


def test_all_members_dropped_skips_update():
    sampler = small_sampler(k_steps=2)
    cond = np.array([0.1, 0.9, -0.4])
    theta = tiny_net(4, 3, seed=0)
    group = synthetic_group(theta, cond, sampler, rewards=[0.1, 0.9], seed=2)
    group = poison(group, 0, 1)
    bundle = PolicyBundle.from_reference(theta)
    before = bundle.theta.vector.copy()
    updated, _, stats = grpo_update(bundle, group, GrpoConfig(group_size=2))
    assert stats.skipped
    assert stats.dropped == 2
    assert np.array_equal(updated.vector, before)


def test_objective_terms_rejects_a_nonfinite_net_output():
    # the objective checks each net's output once per group; its forwards
    # and its backward run unchecked
    sampler = small_sampler(k_steps=2)
    cond = np.array([0.1, 0.9, -0.4])
    theta = tiny_net(4, 3, seed=0)
    group = synthetic_group(theta, cond, sampler, rewards=[0.1, 0.9], seed=2)
    for poisoned, bad in (("theta", np.nan), ("reference", np.inf)):
        nets = {"theta": clone_params(theta), "reference": clone_params(theta)}
        nets[poisoned].biases[-1][0] = bad
        with pytest.raises(NumericError, match="net output") as info:
            objective_terms(nets["theta"], nets["reference"], group, GrpoConfig(group_size=2))
        assert isinstance(info.value, LoopwmError) and isinstance(info.value, ValueError)


def test_update_moves_parameters_and_reports_stats():
    sampler = small_sampler()
    cond = np.array([0.5, 0.1, 0.2])
    theta = tiny_net(4, 3, seed=3)
    group = synthetic_group(theta, cond, sampler, rewards=[0.1, 0.6, 0.9], seed=7)
    bundle = PolicyBundle.from_reference(theta)
    before = bundle.theta.vector.copy()
    updated, opt_state, stats = grpo_update(bundle, group, GrpoConfig(group_size=3))
    assert updated is bundle.theta
    assert opt_state.step == 1
    assert not stats.skipped
    assert stats.kept == (0, 1, 2)
    assert stats.kl >= 0.0
    assert 0.0 <= stats.clip_fraction <= 1.0
    moved = float(np.abs(updated.vector - before).max())
    assert moved > 0.0


def test_update_ascends_along_the_optimizer_gradient_like_a_negated_descent():
    # grpo_update backprops into opt_state.grad and steps it at -lr; over
    # consecutive groups, so the moments carry over, theta keeps the bytes of
    # a loop that descends at lr along a freshly allocated, negated gradient
    sampler = small_sampler()
    cond = np.array([0.5, 0.1, 0.2])
    theta_old = net_init([8, 6, 6, 4], RandomSource(3))
    bundle = PolicyBundle.from_reference(theta_old)
    twin, twin_state = clone_params(theta_old), opt_init(theta_old)
    config = GrpoConfig(group_size=3)
    opt_state = None
    for seed in range(4):
        # groups sampled under the first parameters, so later ratios move off 1
        group = synthetic_group(theta_old, cond, sampler, rewards=[0.1, 0.6, 0.9], seed=seed)
        want = objective_terms(twin, bundle.reference, group, config)
        buf = replace(twin, vector=np.full_like(twin.vector, np.nan))
        into = objective_terms(twin, bundle.reference, group, config, out=buf)
        assert into.grads is buf.vector and buf.vector.tobytes() == want.grads.tobytes()
        opt_step(twin, -want.grads, twin_state, lr=config.lr)
        _, opt_state, terms = grpo_update(bundle, group, config, opt_state)
        assert terms.grads is opt_state.grad.vector
        assert bundle.theta.vector.tobytes() == twin.vector.tobytes()
    assert opt_state.step == twin_state.step == 4


def test_grpo_groups_and_sft_epochs_allocate_no_parameter_sized_vector(kitchen, monkeypatch):
    # once the optimizer state exists, backprop writes into its gradient
    # vector, so neither a GRPO group nor an SFT epoch allocates anything of
    # the parameters' size; the nets' 512-wide layers dwarf their batches
    sampler = small_sampler(k_steps=2)
    theta = net_init([8, 512, 512, 4], RandomSource(0))
    group = synthetic_group(theta, np.array([0.5, 0.1, 0.2]), sampler, rewards=[0.2, 0.7])
    bundle = PolicyBundle.from_reference(theta)
    config = GrpoConfig(group_size=2)
    _, opt_state, _ = grpo_update(bundle, group, config)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        grpo_update(bundle, group, config, opt_state)
        grpo_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert grpo_peak < theta.vector.nbytes // 2

    demo_sampler = kitchen_sampler(kitchen)
    net = net_init(velocity_net_sizes(kitchen, demo_sampler, hidden=512, depth=2),
                   RandomSource(1))
    demos = build_demos(kitchen, 8, RandomSource(2), n_frames=demo_sampler.n_frames)
    training = importlib.import_module("loopwm.worldmodel.training")
    marks = []  # (traced now, peak since the last mark) at each epoch's first forward

    def forward_spy(params, x):
        if len(marks) < 3 and forward_spy.calls % 2 == 0:
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
        forward_spy.calls += 1
        return net_activations(params, x)

    forward_spy.calls = 0
    monkeypatch.setattr(training, "net_activations", forward_spy)
    tracemalloc.start()
    try:
        sft_train(net, demos, epochs=3, lr=1e-3, rng=RandomSource(3), batch_size=4)
    finally:
        tracemalloc.stop()
    assert forward_spy.calls == 6 and len(marks) == 3
    # the second epoch runs from the second mark to the third
    assert marks[2][1] - marks[1][0] < net.vector.nbytes // 2


# training walk


def test_train_zero_iterations_is_identity(kitchen):
    sampler = kitchen_sampler(kitchen)
    theta = kitchen_net(kitchen, sampler)
    bundle = PolicyBundle.from_reference(theta)
    before = bundle.theta.vector.copy()
    config = GrpoConfig(iterations=0, group_size=2)
    final, log = train(bundle, kitchen, [goal_of("kettle.grasped")], sampler, config,
                       RandomSource(0))
    assert final is bundle.theta
    assert log.records == []
    assert np.array_equal(final.vector, before)


def test_train_two_iterations_logs_and_emits(kitchen, tmp_path):
    sampler = kitchen_sampler(kitchen, k_steps=2)
    theta = kitchen_net(kitchen, sampler, hidden=6)
    bundle = PolicyBundle.from_reference(theta)
    config = GrpoConfig(iterations=2, group_size=2, curriculum=((1, 1),))
    final, log = train(bundle, kitchen, [goal_of("kettle.grasped")], sampler, config,
                       RandomSource(3))
    assert [r.iteration for r in log.records] == [1, 2]
    assert all(r.curriculum_level == 1 for r in log.records)
    assert all(0.0 <= r.mean_reward <= 1.0 for r in log.records)
    assert all(r.kl_mean >= 0.0 for r in log.records)
    # single-step plans update right after each sync, so nothing clips
    assert log.records[0].clip_fraction == 0.0
    csv_path = log.write_csv(tmp_path / "training.csv")
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == ("iteration,mean_reward,adherence_mean,coherence_mean,"
                        "kl_mean,clip_fraction,curriculum_level")
    assert len(lines) == 3
    assert final is bundle.theta


def test_training_log_reads_back_the_records_it_writes(tmp_path):
    # each float has at most 6 decimals, which the log keeps exactly
    records = [TrainingRecord(i, 0.125 * i, 0.5, 0.75, 0.001, 0.0, 1 + i // 2)
               for i in range(1, 4)]
    path = TrainingLog(records).write_csv(tmp_path / "log.csv")
    assert path.read_text().splitlines()[1] == "1,0.125000,0.500000,0.750000,0.001000,0.000000,1"
    assert TrainingLog.read_csv(path).records == records
    again = TrainingLog.read_csv(path).write_csv(tmp_path / "again.csv")
    assert again.read_bytes() == path.read_bytes()
    lines = path.read_text().splitlines()
    for text, words in (("\n".join(["iteration,reward", *lines[1:]]), "is not a training log"),
                        ("\n".join([lines[0], lines[1][:-2]]), "holds malformed rows"),
                        ("\n".join([lines[0], lines[1] + ",1"]), "holds malformed rows"),
                        ("\n".join([lines[0], lines[1].replace("1,", "1.5,", 1)]),
                         "holds malformed rows")):
        path.write_text(text + "\n")
        with pytest.raises(LoopwmError, match=f"{path} {words}"):
            TrainingLog.read_csv(path)


def test_train_resamples_unplannable_goals(kitchen):
    sampler = kitchen_sampler(kitchen, k_steps=2)
    theta = kitchen_net(kitchen, sampler, hidden=6)
    bundle = PolicyBundle.from_reference(theta)
    config = GrpoConfig(iterations=1, group_size=2, curriculum=((1, 1),))
    impossible = goal_of("not jar.closed", "not jar.lid_removed")
    _, log = train(bundle, kitchen, [impossible, goal_of("kettle.grasped")], sampler, config,
                   RandomSource(1))
    assert len(log.records) == 1
    assert any("resampled" in event for event in log.events)


class RecordingSource(RandomSource):
    """A source that remembers its `choice` draws (only goal sampling makes them)."""

    def __post_init__(self):
        super().__post_init__()
        self.choices = []

    def choice(self, n):
        value = super().choice(n)
        self.choices.append(value)
        return value


def test_train_plans_each_pool_goal_once(kitchen, monkeypatch):
    sampler = kitchen_sampler(kitchen, k_steps=2)
    config = GrpoConfig(iterations=5, group_size=2, curriculum=((1, 1),))
    # no plan, one step, and a plan longer than the curriculum allows
    goals = [goal_of("not jar.closed", "not jar.lid_removed"), goal_of("kettle.grasped"),
             goal_of("cup.full")]
    planned = []

    def counting_plan(spec, goal):
        planned.append(goal.text)
        return plan(spec, goal)

    rng = RecordingSource(4)
    bundle = PolicyBundle.from_reference(kitchen_net(kitchen, sampler, hidden=6))
    with monkeypatch.context() as patch:
        patch.setattr(importlib.import_module("loopwm.grpo.train"), "plan", counting_plan)
        _, log = train(bundle, kitchen, goals, sampler, config, rng)
    assert sorted(planned) == sorted({goal.text for goal in goals})
    # the unplannable goal was drawn more than once, and each draw still logs
    assert rng.choices.count(0) >= 2 and 2 in rng.choices
    expected, iteration = [], 1
    for index in rng.choices:
        if index == 0:
            expected.append(f"iteration {iteration}: no plan for '{goals[0].text}', resampled")
        iteration += index == 1
    assert iteration == 6
    assert [e for e in log.events if "resampled" in e] == expected
    # counting and recording change nothing
    plain = PolicyBundle.from_reference(kitchen_net(kitchen, sampler, hidden=6))
    _, plain_log = train(plain, kitchen, goals, sampler, config,
                         RandomSource(4))
    assert plain_log.records == log.records
    assert plain_log.events == log.events


def test_train_draws_until_a_goal_fits_however_few_do(kitchen):
    # at seed 1 the one fitting goal of 100 first comes up on draw 82, past
    # any fixed bound on the draws; a pool where no goal fits is an error
    sampler = kitchen_sampler(kitchen, k_steps=2)
    config = GrpoConfig(iterations=1, group_size=2, curriculum=((1, 1),))
    bundle = PolicyBundle.from_reference(kitchen_net(kitchen, sampler, hidden=6))
    rng = RecordingSource(1)
    _, log = train(bundle, kitchen, [goal_of("cup.full")] * 99 + [goal_of("kettle.grasped")],
                   sampler, config, rng)
    assert len(log.records) == 1
    assert len(rng.choices) == 82 and rng.choices[-1] == 99 and 99 not in rng.choices[:-1]
    with pytest.raises(LoopwmError, match=r"plan of length 1\.\.1 \(iteration 1\)"):
        train(bundle, kitchen, [goal_of("cup.full")], sampler, config, RandomSource(0))


def test_train_rolls_out_at_the_train_time_k(kitchen, monkeypatch):
    # a group denoises min(K, max(3, ceil(K/4))) steps of the sampler's K,
    # and the objective's forwards and backward read G times as many rows
    goals = [goal_of("kettle.grasped")]
    config = GrpoConfig(iterations=2, group_size=3, curriculum=((1, 1),))

    def run(sampler):
        groups, backward_rows = [], []

        def rollout_spy(*args, **kwargs):
            groups.append(rollout_group(*args, **kwargs))
            return groups[-1]

        def backward_spy(params, acts, out_grad, out=None):
            backward_rows.append(out_grad.shape[0])
            return net_backward_batch(params, acts, out_grad, out=out)

        bundle = PolicyBundle.from_reference(kitchen_net(kitchen, sampler, hidden=6))
        with monkeypatch.context() as patch:
            patch.setattr(importlib.import_module("loopwm.grpo.train"), "rollout_group",
                          rollout_spy)
            patch.setattr("loopwm.grpo.update.net_backward_batch", backward_spy)
            train(bundle, kitchen, goals, sampler, config, RandomSource(6))
        return groups, backward_rows

    for k_steps, rollout_k in ((2, 2), (10, 3), (13, 4)):
        sampler = kitchen_sampler(kitchen, k_steps=k_steps, n_frames=3)
        groups, backward_rows = run(sampler)
        assert len(groups) == 2
        latent = sampler.n_frames * kitchen.n_channels
        for group in groups:
            assert group.trace.steps.shape[:2] == (3, rollout_k)
            assert group.trace.z_next.shape == (3, rollout_k, latent)
            assert group.frames.shape == (3, sampler.n_frames, kitchen.n_channels)
            # the rollout's time grid is t = 1 - k/K'
            np.testing.assert_allclose(group.trace.steps[0, :, latent],
                                       1.0 - np.arange(rollout_k) / rollout_k)
        assert backward_rows == [3 * rollout_k] * 2


def test_tied_groups_are_logged(kitchen, monkeypatch):
    # a group whose rewards all tie has zero advantages, so its update is KL
    # only; each such group leaves one event, and training_log keeps its rows
    sampler = kitchen_sampler(kitchen, k_steps=2)
    config = GrpoConfig(iterations=3, group_size=3, curriculum=((1, 1),))
    goals = [goal_of("kettle.grasped")]
    groups = []

    def spy(*args, **kwargs):
        groups.append(rollout_group(*args, **kwargs))
        return groups[-1]

    def run():
        groups.clear()
        bundle = PolicyBundle.from_reference(kitchen_net(kitchen, sampler, hidden=6))
        with monkeypatch.context() as patch:
            patch.setattr(importlib.import_module("loopwm.grpo.train"), "rollout_group", spy)
            _, log = train(bundle, kitchen, goals, sampler, config,
                           RandomSource(3))
        return log, [bool(np.all(g.rewards == g.rewards[0])) for g in groups]

    def tie_events(log):
        return [e for e in log.events if "tie" in e]

    plain, plain_ties = run()
    assert tie_events(plain) == [
        f"iteration {i + 1}: all 3 rewards tie at step 1; update is KL-only"
        for i, tie in enumerate(plain_ties) if tie]
    monkeypatch.setattr("loopwm.grpo.rollout.group_rewards",
                        lambda scored, config: np.full(scored.scalar.size, 0.5))
    tied, ties = run()
    assert ties == [True] * 3
    assert tie_events(tied) == [
        f"iteration {i}: all 3 rewards tie at step 1; update is KL-only" for i in (1, 2, 3)]
    assert [r.mean_reward for r in tied.records] == [0.5] * 3
    assert [len(row) for row in tied.rows()] == [7] * 3


def test_train_rejects_empty_goal_pool(kitchen):
    sampler = kitchen_sampler(kitchen)
    bundle = PolicyBundle.from_reference(kitchen_net(kitchen, sampler))
    with pytest.raises(LoopwmError):
        train(bundle, kitchen, [], sampler,
              GrpoConfig(iterations=1, group_size=2), RandomSource(0))


def test_group_rewards_vary_for_imperfect_policy(kitchen):
    # a trained-but-imperfect policy produces segments off the critic score
    # floor, so stochastic paths must spread rewards within every group;
    # a raw random net saturates every clamp and ties the members instead
    n_frames = 8
    sampler = kitchen_sampler(kitchen, k_steps=10, n_frames=n_frames)
    theta = net_init(velocity_net_sizes(kitchen, sampler, hidden=128, depth=3),
                     RandomSource(9))
    demos = build_demos(kitchen, 400, RandomSource(21), n_frames=n_frames)
    theta, history = sft_train(theta, demos, epochs=400, lr=3e-3,
                               rng=RandomSource(22), batch_size=32)
    assert history[-1] < 0.3  # imperfect, but trained well past the noise floor
    steps = plan(kitchen, goal_of("cup.full"))
    memory = WorldMemory.fresh(kitchen)
    for step in steps[:-1]:
        segment = reference_segment(kitchen, memory.state, step.op,
                                    n_frames=n_frames)
        memory.advance(step, segment)
    pour = steps[-1]
    config = GrpoConfig(group_size=4)
    for trial in range(20):
        group = rollout_group(theta, kitchen, pour, memory, sampler, config,
                              RandomSource(100 + trial))
        assert float(group.rewards.std()) > 0.0
