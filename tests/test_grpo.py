"""Group-rollout training: advantages, clipped updates, KL terms, curriculum."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from loopwm.critic import CriticReport, evaluate
from loopwm.errors import LoopwmError
from loopwm.grpo import (
    GroupMember,
    GrpoConfig,
    RolloutGroup,
    TrainingLog,
    compute_advantages,
    curriculum_schedule,
    grpo_update,
    kl_term,
    member_reward,
    objective_terms,
    rollout_group,
    surrogate_rows,
    train,
)
from loopwm.loop import SearchPlanner
from loopwm.memory import WorldMemory
from loopwm.microworld import parse_literal, reference_segment
from loopwm.numerics import (
    RandomSource,
    clone_params,
    finite_diff_grad,
    gaussian_logpdf,
    net_activations,
    net_backward_batch,
    net_init,
    params_as_list,
)
from loopwm.planner import Goal, plan
from loopwm.worldmodel import (
    DenoiseTrace,
    PolicyBundle,
    SamplerConfig,
    build_demos,
    embed_condition,
    mean_affine_coeffs,
    net_input,
    sample_group,
    sample_sde,
    sft_train,
    trace_dtype,
    transition_logprob,
    transition_mean,
    velocity_net_sizes,
)


def small_sampler(frame_width, n_frames=2, k_steps=3, eta_scale=0.3):
    return SamplerConfig(k_steps=k_steps, eta_scale=eta_scale, n_frames=n_frames,
                         frame_width=frame_width)


def tiny_net(latent, cond_width, hidden=4, seed=0):
    return net_init([latent + 1 + cond_width, hidden, latent], RandomSource(seed))


def goal_of(*texts):
    return Goal(tuple(parse_literal(t) for t in texts))


def first_step(spec, *texts):
    return plan(spec, goal_of(*texts), spec.initial_state()).steps[0]


def synthetic_group(theta_old, cond, sampler, rewards, delta=1e-8, seed=3):
    """Roll a group directly through the sampler, skipping the critic."""
    rng = RandomSource(seed)
    z_init = np.asarray(rng.normal(shape=sampler.latent_width), dtype=np.float64)
    members = []
    for i, reward in enumerate(rewards):
        segment, trace = sample_sde(theta_old, cond, z_init, sampler, rng.split(i))
        members.append(GroupMember(segment=segment, trace=trace, report=None,
                                   reward=float(reward)))
    group = RolloutGroup(z_init=z_init, cond=cond, members=tuple(members))
    group.advantages = compute_advantages(group.rewards, delta)
    return group


def flat_rel_err(got, want):
    got = np.concatenate([np.asarray(g).ravel() for g in got])
    want = np.concatenate([np.asarray(w).ravel() for w in want])
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
    return SamplerConfig(k_steps=k_steps, eta_scale=eta_scale, n_frames=n_frames,
                         frame_width=len(kitchen.channels))


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
    assert len(group.members) == 4
    assert group.z_init.shape == (sampler.latent_width,)
    frames = []
    for member in group.members:
        assert np.array_equal(member.trace.steps[0]["z"], group.z_init)
        assert 0.0 <= member.reward <= 1.0
        assert member.report.scores
        frames.append(member.segment.frames)
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(frames[i], frames[j])
    again = rollout_group(theta, kitchen, step, WorldMemory.fresh(kitchen),
                          sampler, config, RandomSource(5))
    assert np.array_equal(group.rewards, again.rewards)


def test_group_sampler_shared_stream_collapses_group(kitchen):
    # two rows on equal streams see the same noise, so the group collapses
    # to identical members
    sampler = kitchen_sampler(kitchen)
    theta = kitchen_net(kitchen, sampler)
    step = first_step(kitchen, "kettle.grasped")
    cond = embed_condition(kitchen, step, WorldMemory.fresh(kitchen))
    z_init = np.asarray(RandomSource(1).normal(shape=sampler.latent_width))
    noise = np.stack([RandomSource(1).split(0).normal(
        shape=(sampler.k_steps, sampler.latent_width)) for _ in range(2)])
    (first, first_trace), (second, second_trace) = sample_group(
        theta, cond, z_init, sampler, noise)
    assert np.array_equal(first.frames, second.frames)
    assert np.array_equal(first_trace.steps["logp"], second_trace.steps["logp"])
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
    segment = reference_segment(kitchen, kitchen.initial_state(), step.actions[0],
                                n_frames=8)
    report = evaluate(kitchen, segment, step)
    assert member_reward(report, GrpoConfig()) == pytest.approx(report.scalar)
    dim_config = GrpoConfig(reward_dimension="action_adherence")
    assert member_reward(report, dim_config) == pytest.approx(
        report.scores["action_adherence"]
    )


@pytest.mark.parametrize("dimension", [None, "temporal_coherence"])
def test_rollout_group_reports_equal_per_member_evaluate(kitchen, dimension):
    sampler = kitchen_sampler(kitchen, n_frames=8)
    theta = kitchen_net(kitchen, sampler)
    step = first_step(kitchen, "kettle.grasped")
    config = GrpoConfig(group_size=5, reward_dimension=dimension)
    group = rollout_group(theta, kitchen, step, WorldMemory.fresh(kitchen),
                          sampler, config, RandomSource(2))
    for member in group.members:
        want = evaluate(kitchen, member.segment, step)
        for f in fields(CriticReport):
            assert getattr(member.report, f.name) == getattr(want, f.name), f.name
        assert member.reward == (want.scalar if dimension is None else want.scores[dimension])


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
    for member in group.members:
        for ts in member.trace.steps:
            rho = math.exp(transition_logprob(theta, ts, group.cond, delta=sampler.delta)
                           - ts["logp"])
            assert abs(rho - 1.0) <= 1e-12
    group.advantages = compute_advantages(group.rewards, config.delta)
    bundle = PolicyBundle.from_reference(theta)
    _, _, stats = grpo_update(bundle, group, config, delta=sampler.delta)
    assert stats.clip_fraction == 0.0
    assert stats.dropped == 0
    assert abs(stats.mean_ratio - 1.0) <= 1e-12


def test_fixed_point_leaves_parameters_untouched():
    sampler = small_sampler(frame_width=2)
    cond = np.array([0.3, -0.1, 0.6])
    theta = tiny_net(4, 3, seed=4)
    group = synthetic_group(theta, cond, sampler, rewards=[0.4] * 4, seed=6)
    assert np.array_equal(group.advantages, np.zeros(4))
    bundle = PolicyBundle.from_reference(theta)
    before = [a.copy() for a in params_as_list(bundle.theta)]
    updated, _, stats = grpo_update(bundle, group, GrpoConfig(group_size=4),
                                    delta=sampler.delta)
    assert stats.surrogate == 0.0
    assert stats.kl == 0.0
    drift = max(float(np.abs(a - b).max()) for a, b in zip(params_as_list(updated), before))
    assert drift < 1e-12


def test_degenerate_group_gradient_is_pure_kl():
    sampler = small_sampler(frame_width=2)
    cond = np.array([0.4, 0.3, -0.5])
    theta = tiny_net(4, 3, seed=2)
    reference = tiny_net(4, 3, seed=7)
    group = synthetic_group(theta, cond, sampler, rewards=[0.6] * 3, seed=9)
    config = GrpoConfig(group_size=3, beta=0.05)
    terms = objective_terms(theta, reference, group, config, sampler.delta)
    assert terms.surrogate == 0.0
    assert terms.kl > 0.0

    def scaled_neg_kl(params):
        values = [kl_term(params, reference, m.trace, sampler.delta) for m in group.members]
        return -config.beta * float(np.mean(values))

    fd = finite_diff_grad(scaled_neg_kl, theta)
    assert flat_rel_err(terms.grads, fd) < 1e-3


def test_surrogate_gradient_matches_finite_differences():
    sampler = small_sampler(frame_width=2)
    cond = np.array([0.7, -0.2, 0.1])
    theta_old = tiny_net(4, 3, seed=1)
    group = synthetic_group(theta_old, cond, sampler,
                            rewards=[0.2, 0.9, 0.5, 0.7], seed=5)
    theta = clone_params(theta_old)
    jitter = RandomSource(11)
    for array in params_as_list(theta):
        array += 0.01 * np.asarray(jitter.normal(shape=array.shape))
    config = GrpoConfig(group_size=4, beta=0.0)
    terms = objective_terms(theta, theta_old, group, config, sampler.delta)
    # the check only covers the smooth regime: no row may be clipped
    assert terms.clip_fraction == 0.0
    eps = config.epsilon

    def surrogate(params):
        values = []
        for i, member in enumerate(group.members):
            adv = float(group.advantages[i])
            for ts in member.trace.steps:
                rho = math.exp(transition_logprob(params, ts, cond, delta=sampler.delta)
                               - ts["logp"])
                clipped = min(max(rho, 1.0 - eps), 1.0 + eps)
                values.append(min(rho * adv, clipped * adv))
        return float(np.mean(values))

    assert abs(surrogate(theta) - terms.surrogate) < 1e-9
    fd = finite_diff_grad(surrogate, theta)
    assert flat_rel_err(terms.grads, fd) < 1e-3


def row_loop_objective(theta, reference, group, config, delta):
    """One row at a time through transition_mean: (value, ratios, grads).

    Reference for the stacked rows of objective_terms; assumes no member is
    dropped.
    """
    cond = group.cond
    rows = [(float(group.advantages[i]), ts)
            for i, member in enumerate(group.members) for ts in member.trace.steps]
    values, kls, ratios, grads = [], [], [], None
    for adv, ts in rows:
        t, dt, std, z, z_next = ts["t"], ts["dt"], ts["std"], ts["z"], ts["z_next"]
        mean_t = transition_mean(theta, ts, cond, delta=delta)
        mean_r = transition_mean(reference, ts, cond, delta=delta)
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
        out_grad = mean_affine_coeffs(t, dt, std, delta=delta)[1] * weight / len(rows)
        acts = net_activations(theta, net_input(z, t, cond))
        row_grads, _ = net_backward_batch(theta, acts, out_grad[None, :])
        grads = row_grads if grads is None else [g + r for g, r in zip(grads, row_grads)]
    value = float(np.mean(values)) - config.beta * float(np.mean(kls))
    return value, np.array(ratios), grads


@pytest.mark.parametrize("beta, scale", [(0.0, 0.01), (0.05, 0.01), (0.05, 0.5)])
def test_objective_terms_match_row_loop(beta, scale):
    # scale 0.5 pushes ratios past the clip, so binding rows are covered too
    sampler = small_sampler(frame_width=2, k_steps=4)
    cond = np.array([0.3, -0.6, 0.2])
    theta_old = tiny_net(4, 3, hidden=5, seed=21)
    group = synthetic_group(theta_old, cond, sampler,
                            rewards=[0.1, 0.8, 0.4, 0.6, 0.3], seed=9)
    theta = clone_params(theta_old)
    jitter = RandomSource(23)
    for array in params_as_list(theta):
        array += scale * np.asarray(jitter.normal(shape=array.shape))
    reference = tiny_net(4, 3, hidden=5, seed=22)
    config = GrpoConfig(group_size=5, beta=beta)
    terms = objective_terms(theta, reference, group, config, sampler.delta)
    assert terms.dropped == 0
    value, ratios, grads = row_loop_objective(theta, reference, group, config, sampler.delta)
    assert terms.value == pytest.approx(value, rel=1e-9, abs=1e-12)
    np.testing.assert_allclose(terms.ratios, ratios, rtol=1e-9, atol=0)
    assert flat_rel_err(terms.grads, grads) < 1e-9
    if scale > 0.1:
        assert terms.clip_fraction > 0.0


def test_objective_terms_runs_each_net_forward_once(tanh_calls):
    # theta's forward feeds the backward pass, so each net runs its hidden
    # layers once per call: one activation call per hidden layer and net
    sampler = small_sampler(frame_width=2, k_steps=4)
    cond = np.array([0.3, -0.6, 0.2])
    theta = net_init([8, 5, 5, 4], RandomSource(21))
    reference = net_init([8, 5, 5, 4], RandomSource(22))
    group = synthetic_group(theta, cond, sampler, rewards=[0.1, 0.8, 0.4], seed=9)
    tanh_calls.clear()
    terms = objective_terms(theta, reference, group, GrpoConfig(group_size=3), sampler.delta)
    assert terms.dropped == 0
    assert tanh_calls == [(12, 5)] * 4


def test_single_member_gradient_is_vanilla_policy_gradient():
    # A = +1 on the lone live member reduces the surrogate to its trace
    # log-likelihood, up to the step average
    sampler = small_sampler(frame_width=1, n_frames=3, k_steps=2)
    cond = np.array([0.2, 0.4])
    theta = tiny_net(3, 2, hidden=3, seed=8)
    group = synthetic_group(theta, cond, sampler, rewards=[1.0, 0.0], seed=12)
    assert group.advantages[0] > 0.99
    config = GrpoConfig(group_size=2, beta=0.0)
    terms = objective_terms(theta, theta, group, config, sampler.delta)

    def weighted_loglik(params):
        values = []
        for i, member in enumerate(group.members):
            adv = float(group.advantages[i])
            for ts in member.trace.steps:
                values.append(adv * transition_logprob(params, ts, cond, delta=sampler.delta))
        return float(np.mean(values))

    fd = finite_diff_grad(weighted_loglik, theta)
    assert flat_rel_err(terms.grads, fd) < 1e-3


# KL term


def test_kl_zero_at_reference_and_hand_offset():
    sampler = small_sampler(frame_width=2, k_steps=1)
    cond = np.array([0.2, 0.2, 0.2])
    theta = net_init([4 + 1 + 3, 4], RandomSource(0))
    for array in params_as_list(theta):
        array[:] = 0.0
    _, trace = sample_sde(theta, cond, np.zeros(4), sampler, RandomSource(4))
    step = trace.steps[0]
    assert step["t"] == 1.0 and step["std"] == pytest.approx(0.3)
    assert kl_term(theta, theta, trace, sampler.delta) == 0.0
    # at t=1 the mean is z - dt*u, so a velocity offset of std in one
    # coordinate shifts the mean by exactly std: KL contribution 0.5
    reference = clone_params(theta)
    params_as_list(reference)[-1][0] = step["std"]
    assert kl_term(theta, reference, trace, sampler.delta) == pytest.approx(0.5, abs=1e-12)


def one_step_trace(cond, t, dt, std, z, z_next):
    """A hand-built one-transition trace of latent width 1."""
    steps = np.array([(t, dt, std, 0.0, [z], [z_next])], dtype=trace_dtype(1))
    return DenoiseTrace(cond=cond, steps=steps)


def test_kl_matches_monte_carlo_estimate_1d():
    trace = one_step_trace(np.array([0.5, -0.3]), t=0.6, dt=0.25, std=0.2, z=0.4, z_next=0.1)
    ts = trace.steps[0]
    theta = net_init([4, 1], RandomSource(3))
    reference = clone_params(theta)
    params_as_list(reference)[-1][0] += 1.0
    exact = kl_term(theta, reference, trace, 1e-3)
    assert exact > 0.1
    mu_theta = transition_mean(theta, ts, trace.cond, delta=1e-3)
    mu_ref = transition_mean(reference, ts, trace.cond, delta=1e-3)
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
        kl_term(theta, theta, trace, 1e-3)


# dropping and skipping


def poison(member):
    steps = member.trace.steps.copy()
    steps["logp"] -= 1000.0
    return GroupMember(segment=member.segment,
                       trace=DenoiseTrace(cond=member.trace.cond, steps=steps),
                       report=None, reward=member.reward)


def test_nonfinite_ratio_drops_member():
    sampler = small_sampler(frame_width=2, k_steps=2)
    cond = np.array([0.1, 0.9, -0.4])
    theta = tiny_net(4, 3, seed=0)
    group = synthetic_group(theta, cond, sampler, rewards=[0.1, 0.9], seed=2)
    group.members = (poison(group.members[0]), group.members[1])
    config = GrpoConfig(group_size=2)
    terms = objective_terms(theta, theta, group, config, sampler.delta)
    assert terms.kept == (1,)
    assert terms.dropped == 1
    assert all(np.all(np.isfinite(g)) for g in terms.grads)


def test_all_members_dropped_skips_update():
    sampler = small_sampler(frame_width=2, k_steps=2)
    cond = np.array([0.1, 0.9, -0.4])
    theta = tiny_net(4, 3, seed=0)
    group = synthetic_group(theta, cond, sampler, rewards=[0.1, 0.9], seed=2)
    group.members = tuple(poison(m) for m in group.members)
    bundle = PolicyBundle.from_reference(theta)
    before = [a.copy() for a in params_as_list(bundle.theta)]
    updated, _, stats = grpo_update(bundle, group, GrpoConfig(group_size=2),
                                    delta=sampler.delta)
    assert stats.skipped
    assert stats.dropped == 2
    assert all(np.array_equal(a, b) for a, b in zip(params_as_list(updated), before))


def test_update_moves_parameters_and_reports_stats():
    sampler = small_sampler(frame_width=2)
    cond = np.array([0.5, 0.1, 0.2])
    theta = tiny_net(4, 3, seed=3)
    group = synthetic_group(theta, cond, sampler, rewards=[0.1, 0.6, 0.9], seed=7)
    bundle = PolicyBundle.from_reference(theta)
    before = [a.copy() for a in params_as_list(bundle.theta)]
    updated, opt_state, stats = grpo_update(bundle, group, GrpoConfig(group_size=3),
                                            delta=sampler.delta)
    assert updated is bundle.theta
    assert opt_state.step == 1
    assert not stats.skipped
    assert stats.kept == 3
    assert stats.kl >= 0.0
    assert 0.0 <= stats.clip_fraction <= 1.0
    moved = max(float(np.abs(a - b).max()) for a, b in zip(params_as_list(updated), before))
    assert moved > 0.0


# training walk


def test_train_zero_iterations_is_identity(kitchen):
    sampler = kitchen_sampler(kitchen)
    theta = kitchen_net(kitchen, sampler)
    bundle = PolicyBundle.from_reference(theta)
    before = [a.copy() for a in params_as_list(bundle.theta)]
    config = GrpoConfig(iterations=0, group_size=2)
    final, log = train(bundle, kitchen, SearchPlanner(),
                       [goal_of("kettle.grasped")], sampler, config, RandomSource(0))
    assert final is bundle.theta
    assert log.records == []
    assert all(np.array_equal(a, b) for a, b in zip(params_as_list(final), before))


def test_train_two_iterations_logs_and_emits(kitchen, tmp_path):
    sampler = kitchen_sampler(kitchen, k_steps=2)
    theta = kitchen_net(kitchen, sampler, hidden=6)
    bundle = PolicyBundle.from_reference(theta)
    config = GrpoConfig(iterations=2, group_size=2, curriculum=((1, 1),))
    final, log = train(bundle, kitchen, SearchPlanner(),
                       [goal_of("kettle.grasped")], sampler, config, RandomSource(3))
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


def test_train_resamples_unplannable_goals(kitchen):
    sampler = kitchen_sampler(kitchen, k_steps=2)
    theta = kitchen_net(kitchen, sampler, hidden=6)
    bundle = PolicyBundle.from_reference(theta)
    config = GrpoConfig(iterations=1, group_size=2, curriculum=((1, 1),))
    impossible = goal_of("not jar.closed", "not jar.lid_removed")
    _, log = train(bundle, kitchen, SearchPlanner(),
                   [impossible, goal_of("kettle.grasped")], sampler, config,
                   RandomSource(1))
    assert len(log.records) == 1
    assert any("resampled" in event for event in log.events)


class CountingPlanner(SearchPlanner):
    def __init__(self):
        super().__init__()
        self.calls = []

    def plan(self, spec, goal, state):
        self.calls.append(goal.text)
        return super().plan(spec, goal, state)


class RecordingSource(RandomSource):
    """A source that remembers its `choice` draws (only goal sampling makes them)."""

    def __post_init__(self):
        super().__post_init__()
        self.choices = []

    def choice(self, n):
        value = super().choice(n)
        self.choices.append(value)
        return value


def test_train_plans_each_pool_goal_once(kitchen):
    sampler = kitchen_sampler(kitchen, k_steps=2)
    config = GrpoConfig(iterations=5, group_size=2, curriculum=((1, 1),))
    # no plan, one step, and a plan longer than the curriculum allows
    goals = [goal_of("not jar.closed", "not jar.lid_removed"), goal_of("kettle.grasped"),
             goal_of("cup.full")]
    planner, rng = CountingPlanner(), RecordingSource(4)
    bundle = PolicyBundle.from_reference(kitchen_net(kitchen, sampler, hidden=6))
    _, log = train(bundle, kitchen, planner, goals, sampler, config, rng)
    assert sorted(planner.calls) == sorted({goal.text for goal in goals})
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
    _, plain_log = train(plain, kitchen, SearchPlanner(), goals, sampler, config,
                         RandomSource(4))
    assert plain_log.records == log.records
    assert plain_log.events == log.events


def test_train_objective_uses_the_sampler_delta(kitchen, monkeypatch):
    # theta equals theta_old at an iteration's first update, so every ratio
    # is 1 exactly when the objective recomputes the sampler's own means
    seen = []

    def spy(*args, **kwargs):
        terms = objective_terms(*args, **kwargs)
        seen.append(terms)
        return terms

    monkeypatch.setattr("loopwm.grpo.update.objective_terms", spy)
    sampler = replace(kitchen_sampler(kitchen, k_steps=4, n_frames=4), delta=0.5)
    theta = net_init(velocity_net_sizes(kitchen, sampler, hidden=16, depth=2),
                     RandomSource(5))
    config = GrpoConfig(iterations=1, group_size=4, curriculum=((1, 1),))
    train(PolicyBundle.from_reference(theta), kitchen, SearchPlanner(),
          [goal_of("kettle.grasped")], sampler, config, RandomSource(8))
    assert seen and seen[0].ratios.size == 16
    np.testing.assert_allclose(seen[0].ratios, 1.0, rtol=0, atol=1e-9)


def test_train_rejects_empty_goal_pool(kitchen):
    sampler = kitchen_sampler(kitchen)
    bundle = PolicyBundle.from_reference(kitchen_net(kitchen, sampler))
    with pytest.raises(LoopwmError):
        train(bundle, kitchen, SearchPlanner(), [], sampler,
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
    steps = plan(kitchen, goal_of("cup.full"), kitchen.initial_state()).steps
    memory = WorldMemory.fresh(kitchen)
    for step in steps[:-1]:
        segment = reference_segment(kitchen, memory.state, step.actions[0],
                                    n_frames=n_frames)
        memory.advance(step, segment, 1.0)
    pour = steps[-1]
    config = GrpoConfig(group_size=4)
    for trial in range(20):
        group = rollout_group(theta, kitchen, pour, memory, sampler, config,
                              RandomSource(100 + trial))
        assert float(group.rewards.std()) > 0.0
