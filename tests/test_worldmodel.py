"""Generative world model: context encoding, samplers, densities, training."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopwm.errors import CheckpointError, DivergenceError, DomainError, LoopwmError
from loopwm.memory import WorldMemory
from loopwm.microworld import encode_state, parse_literal, reference_segment
from loopwm.numerics import (
    RandomSource,
    finite_diff_grad,
    gaussian_logpdf,
    net_activations,
    net_backward_batch,
    net_forward_batch,
    net_init,
)
from loopwm.planner import Goal, plan
from loopwm.worldmodel import (
    PolicyBundle,
    SamplerConfig,
    WorldModelPolicy,
    build_demos,
    channel_mask,
    context_width,
    embed_condition,
    flow_matching_loss,
    load_policy,
    mean_affine_coeffs,
    net_input,
    sample_group,
    sample_ode,
    sample_sde,
    save_policy,
    score_term,
    sft_train,
    transition_logprob,
    transition_mean,
    velocity_net_sizes,
)


def small_config(frame_width, n_frames=2, k_steps=4, eta_scale=0.3):
    return SamplerConfig(k_steps=k_steps, eta_scale=eta_scale, n_frames=n_frames,
                         frame_width=frame_width)


def plan_steps(spec, *texts):
    goal = Goal(tuple(parse_literal(t) for t in texts))
    return list(plan(spec, goal, spec.initial_state()).steps)


def tiny_net(latent, cond_width, hidden=6, seed=0):
    sizes = [latent + 1 + cond_width, hidden, latent]
    return net_init(sizes, RandomSource(seed))


# context encoding


def test_context_width_and_initial_frame(kitchen):
    width = context_width(kitchen)
    assert width == 2 * len(kitchen.channels) + len(kitchen.operators) + 1
    steps = plan_steps(kitchen, "cup.full")
    memory = WorldMemory.fresh(kitchen)
    cond = embed_condition(kitchen, steps[0], memory)
    assert cond.shape == (width,)
    d = len(kitchen.channels)
    np.testing.assert_array_equal(cond[:d], encode_state(kitchen, kitchen.initial_state()))
    # one-hot block sums to exactly one
    assert cond[d:d + len(kitchen.operators)].sum() == 1.0


def test_context_uses_last_accepted_frame(kitchen):
    steps = plan_steps(kitchen, "cup.full")
    memory = WorldMemory.fresh(kitchen)
    op = kitchen.find_operator(steps[0].actions[0])
    seg = reference_segment(kitchen, memory.state, op.binding)
    memory.advance(steps[0], seg, reward=1.0)
    cond = embed_condition(kitchen, steps[1], memory)
    d = len(kitchen.channels)
    np.testing.assert_array_equal(cond[:d], seg.final_frame)
    again = embed_condition(kitchen, steps[1], memory)
    np.testing.assert_array_equal(cond, again)


def test_context_channel_mask_marks_movers(kitchen):
    steps = plan_steps(kitchen, "cup.full")
    pour_kettle = next(s for s in steps if s.actions[0].verb == "pour"
                       and s.actions[0].objects[0] == "kettle")
    mask = channel_mask(kitchen, pour_kettle)
    idx = kitchen.channel_index
    assert mask[idx["cup.full"]] == 1.0
    for key in ("kettle.x", "kettle.y", "hand.x", "hand.y"):
        assert mask[idx[key]] == 1.0
    assert mask[idx["jar.closed"]] == 0.0


def test_context_unknown_operator_rejected(kitchen, workshop):
    steps = plan_steps(workshop, "board.sanded")
    with pytest.raises(DomainError):
        embed_condition(kitchen, steps[0], WorldMemory.fresh(kitchen))


# velocity field and samplers


def test_velocity_zero_net_is_zero():
    theta = tiny_net(latent=4, cond_width=3)
    for w in theta.weights:
        w[:] = 0.0
    for b in theta.biases:
        b[:] = 0.0
    u = net_forward_batch(theta, net_input(np.ones(4), 0.5, np.ones(3)))
    np.testing.assert_array_equal(u, np.zeros((1, 4)))


def test_net_input_rows():
    z = np.arange(6.0).reshape(2, 3)
    x = net_input(z, np.array([0.5, 1.0]), np.array([7.0, 8.0]))
    np.testing.assert_array_equal(x, [[0, 1, 2, 0.5, 7, 8], [3, 4, 5, 1.0, 7, 8]])
    one = net_input(np.ones(3), 0.25, np.array([[9.0]]))
    np.testing.assert_array_equal(one, [[1, 1, 1, 0.25, 9]])


def test_velocity_rejects_bad_time_and_shape():
    theta = tiny_net(latent=4, cond_width=3)
    config = small_config(frame_width=2)
    with pytest.raises(LoopwmError):
        net_input(np.ones(4), 0.0, np.ones(3))
    with pytest.raises(LoopwmError):
        net_input(np.ones(4), 1.5, np.ones(3))
    with pytest.raises(LoopwmError):
        net_input(np.ones((2, 4)), np.array([0.5, 0.0]), np.ones(3))
    with pytest.raises(LoopwmError):
        sample_ode(theta, np.ones(3), np.ones(5), config)
    with pytest.raises(LoopwmError):
        sample_sde(theta, np.ones(4), np.ones(4), config, RandomSource(0))
    # noise is (G, K, L), needed at eta_scale > 0, and matches z_init's rows
    with pytest.raises(LoopwmError):
        sample_group(theta, np.ones(3), np.ones(4), config, None)
    with pytest.raises(LoopwmError):
        sample_group(theta, np.ones(3), np.ones(4), config, np.ones((2, config.k_steps, 3)))
    with pytest.raises(LoopwmError):
        sample_group(theta, np.ones(3), np.ones((3, 4)), config,
                     np.ones((2, config.k_steps, 4)))


def test_ode_zero_velocity_returns_input():
    theta = tiny_net(latent=4, cond_width=3)
    for w in theta.weights:
        w[:] = 0.0
    for b in theta.biases:
        b[:] = 0.0
    config = small_config(frame_width=2)
    z = np.array([0.1, 0.2, 0.3, 0.4])
    seg = sample_ode(theta, np.ones(3), z, config)
    np.testing.assert_array_equal(seg.frames.reshape(-1), z)


def test_ode_single_step_unroll():
    theta = tiny_net(latent=4, cond_width=3, seed=5)
    config = small_config(frame_width=2, k_steps=1)
    z = np.linspace(-1.0, 1.0, 4)
    cond = np.array([0.3, 0.6, 0.9])
    seg = sample_ode(theta, cond, z, config)
    expected = z - net_forward_batch(theta, net_input(z, 1.0, cond))[0] * 1.0
    np.testing.assert_array_equal(seg.frames.reshape(-1), expected)


def test_sde_zero_noise_matches_ode_bitwise():
    rng = RandomSource(11)
    for trial in range(20):
        theta = tiny_net(latent=6, cond_width=2, seed=100 + trial)
        config = small_config(frame_width=3, k_steps=5, eta_scale=0.0)
        z = np.asarray(rng.normal(shape=6))
        cond = np.asarray(rng.normal(shape=2))
        ode = sample_ode(theta, cond, z, config)
        sde, trace = sample_sde(theta, cond, z, config, RandomSource(999, trial))
        assert np.array_equal(ode.frames, sde.frames)
        assert np.all(trace.steps["std"] == 0.0)


def test_sde_reproducible_and_trace_shape():
    theta = tiny_net(latent=4, cond_width=3, seed=2)
    config = small_config(frame_width=2, k_steps=6)
    z = np.full(4, 0.5)
    cond = np.array([0.1, 0.2, 0.3])
    seg_a, tr_a = sample_sde(theta, cond, z, config, RandomSource(7, 3))
    seg_b, tr_b = sample_sde(theta, cond, z, config, RandomSource(7, 3))
    assert np.array_equal(seg_a.frames, seg_b.frames)
    assert len(tr_a.steps) == 6
    for sa, sb in zip(tr_a.steps, tr_b.steps):
        assert np.array_equal(sa["z_next"], sb["z_next"])
        assert sa["logp"] == sb["logp"]
        assert sa["std"] > 0.0
        assert np.isfinite(sa["logp"])


def test_trace_records_consistent_transitions():
    theta = tiny_net(latent=4, cond_width=3, seed=3)
    config = small_config(frame_width=2, k_steps=5)
    z = np.array([0.4, -0.2, 0.8, 0.0])
    cond = np.array([1.0, 0.0, 0.5])
    _, trace = sample_sde(theta, cond, z, config, RandomSource(21))
    noise = RandomSource(21).normal(shape=(1, config.k_steps, z.size))[0]
    dt = 1.0 / config.k_steps
    for k, step in enumerate(trace.steps):
        t, std = step["t"], step["std"]
        assert step["dt"] == dt
        # schedule std
        eta = config.eta_scale * np.sqrt(t)
        assert std == pytest.approx(eta * np.sqrt(dt), abs=1e-15)
        # the recomputed mean under the same params regenerates the recorded
        # next state with the stream's noise
        mean = transition_mean(theta, step, cond, delta=config.delta)
        np.testing.assert_allclose(step["z_next"], mean + std * noise[k], atol=1e-12)
        # x_pred identity feeds the score: mean = z - (u - 0.5*eta^2*score)*dt
        u = net_forward_batch(theta, net_input(step["z"], t, cond))[0]
        x_pred = step["z"] - t * u
        drift = u - 0.5 * eta * eta * score_term(step["z"], x_pred, t, delta=config.delta)
        np.testing.assert_allclose(mean, step["z"] - drift * dt, atol=1e-12)


@pytest.mark.parametrize("eta_scale", [0.3, 0.0])
def test_group_sampler_matches_sequential_sde(eta_scale):
    # the group sampler must reproduce G one-row calls on the same streams,
    # every trace field included; the G rows share one network evaluation
    theta = tiny_net(latent=6, cond_width=3, hidden=8, seed=14)
    config = small_config(frame_width=3, k_steps=5, eta_scale=eta_scale)
    z = np.array([0.3, -0.1, 0.7, 0.2, -0.5, 0.9])
    cond = np.array([0.4, -0.2, 0.6])
    noise = np.stack([stream.normal(shape=(config.k_steps, z.size))
                      for stream in RandomSource(17).split_many(5)])
    rows = sample_group(theta, cond, z, config, noise)
    assert len(rows) == 5
    for i, (segment, trace) in enumerate(rows):
        want_seg, want = sample_sde(theta, cond, z, config, RandomSource(17).split(i))
        np.testing.assert_allclose(segment.frames, want_seg.frames, rtol=0, atol=1e-12)
        assert len(trace.steps) == len(want.steps) == config.k_steps
        for got, ref in zip(trace.steps, want.steps):
            assert (got["t"], got["dt"]) == (ref["t"], ref["dt"])
            for name in ("z", "z_next"):
                np.testing.assert_allclose(got[name], ref[name], rtol=0, atol=1e-12)
            np.testing.assert_allclose(transition_mean(theta, got, cond, delta=config.delta),
                                       transition_mean(theta, ref, cond, delta=config.delta),
                                       rtol=0, atol=1e-12)
            assert got["std"] == pytest.approx(ref["std"], abs=1e-12)
            assert got["logp"] == pytest.approx(ref["logp"], abs=1e-12)
        if eta_scale == 0.0:
            np.testing.assert_allclose(segment.frames, sample_ode(theta, cond, z, config).frames,
                                       rtol=0, atol=1e-12)
    if eta_scale > 0.0:
        assert not np.array_equal(rows[0][0].frames, rows[1][0].frames)


@settings(max_examples=40, deadline=None)
@given(rows=st.sampled_from([1, 3, 8]), k_steps=st.sampled_from([1, 2, 5]),
       eta_scale=st.sampled_from([0.0, 0.3]), shared_init=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_sample_group_trace_records(rows, k_steps, eta_scale, shared_init, seed):
    # each row's (K,) records chain z -> z_next along the time grid, end at
    # the segment, and are views of one (G, K) array
    config = small_config(frame_width=2, k_steps=k_steps, eta_scale=eta_scale)
    theta = tiny_net(latent=4, cond_width=3, seed=seed)
    rng = RandomSource(seed)
    z_init = np.asarray(rng.normal(shape=4 if shared_init else (rows, 4)))
    cond = np.asarray(rng.normal(shape=3))
    noise = np.asarray(rng.normal(shape=(rows, k_steps, 4)))
    samples = sample_group(theta, cond, z_init, config, noise)
    assert len(samples) == rows
    for i, (segment, trace) in enumerate(samples):
        steps = trace.steps
        assert len(trace.steps) == k_steps
        assert steps.base is samples[0][1].steps.base and steps.base.shape == (rows, k_steps)
        assert np.array_equal(steps["z"][0], z_init if shared_init else z_init[i])
        assert np.array_equal(steps["z"][1:], steps["z_next"][:-1])
        assert steps["t"].tolist() == config.time_grid()
        assert np.all(steps["dt"] == 1.0 / k_steps)
        assert np.array_equal(segment.frames, steps["z_next"][-1].reshape(2, 2))
        if eta_scale == 0.0:
            assert np.all(steps["std"] == 0.0) and np.all(steps["logp"] == 0.0)
        else:
            assert np.all(steps["std"] > 0.0) and np.all(np.isfinite(steps["logp"]))


@pytest.mark.parametrize("eta_scale", [0.3, 0.0])
def test_generate_many_matches_sequential_generate(kitchen, eta_scale):
    # n batched candidates are the segments of n generate calls on an equal
    # stream, and after j+1 of them the stream stands where j+1 calls leave it
    config = SamplerConfig(k_steps=4, eta_scale=eta_scale, n_frames=3,
                           frame_width=len(kitchen.channels))
    theta = net_init(velocity_net_sizes(kitchen, config, hidden=8, depth=1), RandomSource(5))
    policy = WorldModelPolicy(theta, kitchen, config)
    step = plan_steps(kitchen, "cup.full")[1]
    memory = WorldMemory.fresh(kitchen)
    n = 4
    for seed in range(3):
        batched = list(policy.generate_many(step, memory, RandomSource(seed, 1), n))
        sequential_rng = RandomSource(seed, 1)
        assert len(batched) == n
        for segment in batched:
            want = policy.generate(step, memory, sequential_rng)
            np.testing.assert_allclose(segment.frames, want.frames, rtol=0, atol=1e-12)
        assert not np.array_equal(batched[0].frames, batched[1].frames)
        for taken in range(1, n + 1):
            batch_rng, sequential_rng = RandomSource(seed, 1), RandomSource(seed, 1)
            candidates = policy.generate_many(step, memory, batch_rng, n)
            for _ in range(taken):
                next(candidates)
                policy.generate(step, memory, sequential_rng)
            assert batch_rng.normal() == sequential_rng.normal()


@pytest.mark.parametrize("bad", [
    np.nan,
    # at t = 1 the score's (1 - t) * x_pred is 0 * inf for an infinite velocity
    pytest.param(np.inf, marks=pytest.mark.filterwarnings(
        "ignore:invalid value encountered in multiply:RuntimeWarning")),
])
def test_sampler_nonfinite_net_raises_divergence(bad):
    theta = tiny_net(latent=4, cond_width=3, seed=15)
    theta.biases[-1][2] = bad
    config = small_config(frame_width=2)
    with pytest.raises(DivergenceError):
        sample_group(theta, np.ones(3), np.ones(4), config,
                     RandomSource(1).normal(shape=(3, config.k_steps, 4)))
    with pytest.raises(DivergenceError):
        sample_ode(theta, np.ones(3), np.ones(4), config)


def test_first_transition_std_monte_carlo():
    theta = tiny_net(latent=4, cond_width=3, seed=4)
    config = small_config(frame_width=2, k_steps=1, eta_scale=0.3)
    z = np.full(4, 0.2)
    cond = np.array([0.5, 0.5, 0.5])
    samples = []
    for i in range(10_000):
        _, trace = sample_sde(theta, cond, z, config, RandomSource(13, i))
        samples.append(trace.steps[0]["z_next"])
    # every path starts at z and t = 1, so all share one transition mean
    mean = transition_mean(theta, trace.steps[0], cond, delta=config.delta)
    samples = np.asarray(samples) - mean
    observed = float(np.std(np.asarray(samples)))
    expected = 0.3 * np.sqrt(1.0) * np.sqrt(1.0)  # eta_1 * sqrt(dt), K=1
    assert abs(observed - expected) / expected < 0.03


def test_score_term_schedule():
    z = np.array([0.5, -0.5])
    x_pred = np.array([0.25, 0.75])
    t = 0.5
    expected = -(z - 0.5 * x_pred) / 0.25
    np.testing.assert_allclose(score_term(z, x_pred, t, delta=1e-3), expected)
    # at the conditional mean the score vanishes
    np.testing.assert_array_equal(score_term(0.5 * x_pred, x_pred, 0.5, delta=1e-3),
                                  np.zeros(2))
    # alpha = 0 at t = 1: score reduces to -z
    np.testing.assert_allclose(score_term(z, x_pred, 1.0, delta=1e-3), -z)
    # linearity in the residual
    np.testing.assert_allclose(score_term(2 * z, 2 * x_pred, 0.5, delta=1e-3), 2 * expected)


def test_mean_recomputation_requires_delta():
    # a caller that leaves delta out fails instead of recomputing at a default
    theta = tiny_net(latent=4, cond_width=3, seed=10)
    config = small_config(frame_width=2, k_steps=2)
    cond = np.ones(3)
    _, trace = sample_sde(theta, cond, np.ones(4), config, RandomSource(3))
    calls = [
        lambda: score_term(np.ones(2), np.ones(2), 0.5),
        lambda: mean_affine_coeffs(0.5, 0.5, 0.1),
        lambda: transition_mean(theta, trace.steps[0], cond),
        lambda: transition_logprob(theta, trace.steps[0], cond),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="delta"):
            call()


# transition log-densities


def test_transition_logprob_self_consistency():
    theta = tiny_net(latent=4, cond_width=3, seed=6)
    config = small_config(frame_width=2, k_steps=5)
    z = np.array([0.3, 0.1, -0.4, 0.9])
    cond = np.array([0.2, 0.8, 0.5])
    _, trace = sample_sde(theta, cond, z, config, RandomSource(31))
    total = 0.0
    for step in trace.steps:
        lp = transition_logprob(theta, step, cond, delta=config.delta)
        assert lp == pytest.approx(step["logp"], abs=1e-12)
        total += lp
    assert total == pytest.approx(trace.steps["logp"].sum(), abs=1e-10)


def test_transition_logprob_mode_and_additivity():
    theta = tiny_net(latent=4, cond_width=3, seed=7)
    config = small_config(frame_width=2, k_steps=3)
    cond = np.ones(3) * 0.4
    _, trace = sample_sde(theta, cond, np.ones(4) * 0.1, config, RandomSource(41))
    step = trace.steps[0]
    z_next, std = step["z_next"], step["std"]
    mean = transition_mean(theta, step, cond, delta=config.delta)
    at_mode = gaussian_logpdf(mean, mean, std)
    assert at_mode > step["logp"] or np.allclose(z_next, mean)
    # additivity over coordinate slices
    whole = gaussian_logpdf(z_next, mean, std)
    parts = gaussian_logpdf(z_next[:2], mean[:2], std) + \
        gaussian_logpdf(z_next[2:], mean[2:], std)
    assert whole == pytest.approx(parts, abs=1e-12)


def test_transition_logprob_requires_noise():
    theta = tiny_net(latent=4, cond_width=3, seed=8)
    config = small_config(frame_width=2, k_steps=2, eta_scale=0.0)
    _, trace = sample_sde(theta, np.ones(3), np.ones(4), config, RandomSource(5))
    with pytest.raises(LoopwmError):
        transition_logprob(theta, trace.steps[0], np.ones(3), delta=config.delta)


def test_logprob_gradient_matches_finite_differences():
    # the analytic route: d(logp)/d(u) = c(t) * (z_next - mean) / std^2,
    # with c from mean_affine_coeffs, pushed through net_backward_batch
    theta = tiny_net(latent=3, cond_width=2, hidden=4, seed=9)
    config = small_config(frame_width=1, n_frames=3, k_steps=4)
    z = np.array([0.2, -0.1, 0.5])
    cond = np.array([0.7, 0.3])
    _, trace = sample_sde(theta, cond, z, config, RandomSource(61))
    step = trace.steps[2]

    t, std = step["t"], step["std"]
    mean = transition_mean(theta, step, cond, delta=config.delta)
    _, coeff = mean_affine_coeffs(t, step["dt"], std, delta=config.delta)
    out_grad = coeff * (step["z_next"] - mean) / (std * std)
    acts = net_activations(theta, net_input(step["z"], t, cond))
    analytic, _ = net_backward_batch(theta, acts, out_grad[None, :])

    numeric = finite_diff_grad(
        lambda p: transition_logprob(p, step, cond, delta=config.delta), theta)
    for a, n in zip(analytic, numeric):
        denom = max(np.max(np.abs(n)), 1e-8)
        assert np.max(np.abs(a - n)) / denom < 1e-4


# supervised training


def test_flow_matching_gradient_matches_finite_differences():
    rng = RandomSource(17)
    theta = net_init([5, 4, 2], rng)  # 46 parameters
    conds = np.asarray(rng.normal(shape=(6, 2)))
    xs = np.asarray(rng.normal(shape=(6, 2)))
    ts = np.asarray(1.0 - rng.uniform(shape=6))
    eps = np.asarray(rng.normal(shape=(6, 2)))
    _, analytic = flow_matching_loss(theta, conds, xs, ts, eps)
    numeric = finite_diff_grad(
        lambda p: flow_matching_loss(p, conds, xs, ts, eps)[0], theta)
    for a, n in zip(analytic, numeric):
        denom = max(np.max(np.abs(n)), 1e-8)
        assert np.max(np.abs(a - n)) / denom < 1e-4


def test_flow_matching_loss_runs_the_net_forward_once(tanh_calls):
    # the backward pass reads the loss's own forward activations
    rng = RandomSource(17)
    theta = net_init([5, 4, 3, 2], rng)
    conds = np.asarray(rng.normal(shape=(6, 2)))
    xs = np.asarray(rng.normal(shape=(6, 2)))
    ts = np.asarray(1.0 - rng.uniform(shape=6))
    eps = np.asarray(rng.normal(shape=(6, 2)))
    flow_matching_loss(theta, conds, xs, ts, eps)
    assert tanh_calls == [(6, 4), (6, 3)]


def test_sft_zero_epochs_is_identity(kitchen):
    config = SamplerConfig(n_frames=4, frame_width=len(kitchen.channels))
    demos = build_demos(kitchen, 3, RandomSource(71), n_frames=4)
    theta = net_init(velocity_net_sizes(kitchen, config, hidden=8), RandomSource(1))
    before = [w.copy() for w in theta.weights]
    trained, history = sft_train(theta, demos, epochs=0, lr=1e-3, rng=RandomSource(2))
    assert history == []
    for w0, w1 in zip(before, trained.weights):
        np.testing.assert_array_equal(w0, w1)


def test_sft_loss_halves_on_kitchen_demos(kitchen):
    config = SamplerConfig(n_frames=8, frame_width=len(kitchen.channels))
    demos = build_demos(kitchen, 200, RandomSource(73), n_frames=8, jitter=0.005)
    theta = net_init(velocity_net_sizes(kitchen, config), RandomSource(3))
    probe_rng = RandomSource(99)
    conds = np.stack([c for c, _ in demos[:64]])
    xs = np.stack([s.frames.reshape(-1) for _, s in demos[:64]])
    ts = np.asarray(1.0 - probe_rng.uniform(shape=64))
    eps = np.asarray(probe_rng.normal(shape=xs.shape))
    initial, _ = flow_matching_loss(theta, conds, xs, ts, eps)
    trained, history = sft_train(theta, demos, epochs=50, lr=3e-3, rng=RandomSource(4))
    final, _ = flow_matching_loss(trained, conds, xs, ts, eps)
    assert len(history) == 50
    assert final < 0.5 * initial


def test_sft_overfits_single_demo():
    from loopwm.microworld import Segment

    config = SamplerConfig(n_frames=2, frame_width=3)
    target = np.array([0.2, 0.8, 0.5, 0.4, 0.1, 0.9])
    seg = Segment(frames=target.reshape(2, 3))
    cond = np.array([1.0, 0.0, 0.5, 0.25])
    theta = net_init([6 + 1 + 4, 64, 64, 64, 6], RandomSource(5))
    theta, history = sft_train(theta, [(cond, seg)] * 64, epochs=600, lr=3e-3,
                               rng=RandomSource(6), batch_size=32)
    assert history[-1] < history[0]
    rng = RandomSource(85)
    for _ in range(5):
        z = np.asarray(rng.normal(shape=config.latent_width))
        out = sample_ode(theta, cond, z, config)
        assert np.max(np.abs(out.frames.reshape(-1) - target)) < 0.1


# bundle and checkpointing


def test_policy_bundle_sync(kitchen):
    config = SamplerConfig(n_frames=4, frame_width=len(kitchen.channels))
    reference = net_init(velocity_net_sizes(kitchen, config, hidden=8), RandomSource(12))
    bundle = PolicyBundle.from_reference(reference)
    bundle.theta.weights[0][0, 0] += 1.0
    assert bundle.theta_old.weights[0][0, 0] != bundle.theta.weights[0][0, 0]
    bundle.sync_old()
    assert bundle.theta_old.weights[0][0, 0] == bundle.theta.weights[0][0, 0]
    assert reference.weights[0][0, 0] == pytest.approx(bundle.theta.weights[0][0, 0] - 1.0)


def test_policy_checkpoint_roundtrip_and_mismatch(tmp_path, kitchen, workshop):
    config = SamplerConfig(n_frames=4, frame_width=len(kitchen.channels))
    theta = net_init(velocity_net_sizes(kitchen, config, hidden=8), RandomSource(13))
    path = tmp_path / "policy.ckpt"
    save_policy(path, theta, kitchen, config)
    loaded = load_policy(path, kitchen, config)
    for w0, w1 in zip(theta.weights, loaded.weights):
        np.testing.assert_array_equal(w0, w1)

    with pytest.raises(CheckpointError, match="domain_hash"):
        load_policy(path, workshop,
                    SamplerConfig(n_frames=4, frame_width=len(workshop.channels)))
    with pytest.raises(CheckpointError, match="n_frames"):
        load_policy(path, kitchen, SamplerConfig(n_frames=6, frame_width=len(kitchen.channels)))
    (tmp_path / "policy.ckpt.json").unlink()
    with pytest.raises(CheckpointError, match="manifest"):
        load_policy(path, kitchen, config)


def test_policy_manifest_leaves_sampling_settings_free(tmp_path, kitchen):
    config = SamplerConfig(n_frames=4, frame_width=len(kitchen.channels))
    theta = net_init(velocity_net_sizes(kitchen, config, hidden=8), RandomSource(13))
    path = tmp_path / "policy.ckpt"
    save_policy(path, theta, kitchen, config)
    sidecar = tmp_path / "policy.ckpt.json"
    manifest = json.loads(sidecar.read_text())
    assert sorted(manifest) == ["context_width", "domain_hash", "format", "frame_width",
                                "n_frames"]
    other = SamplerConfig(k_steps=3, eta_scale=0.0, delta=0.5, n_frames=4,
                          frame_width=len(kitchen.channels))
    load_policy(path, kitchen, other)
    # a sidecar written when the sampling settings were pinned still loads
    sidecar.write_text(json.dumps({**manifest, "k_steps": 10, "eta_scale": 0.3,
                                   "delta": 1e-3}))
    load_policy(path, kitchen, other)


def test_build_demos_chain_from_initial_state(kitchen):
    demos = build_demos(kitchen, 40, RandomSource(91), n_frames=6)
    width = context_width(kitchen)
    d = len(kitchen.channels)
    assert len(demos) == 40
    for cond, seg in demos:
        assert cond.shape == (width,)
        assert seg.frames.shape == (6, d)
        assert np.all(np.isfinite(cond))
    np.testing.assert_array_equal(
        demos[0][0][:d], encode_state(kitchen, kitchen.initial_state()))
    again = build_demos(kitchen, 40, RandomSource(91), n_frames=6)
    for (c0, s0), (c1, s1) in zip(demos, again):
        np.testing.assert_array_equal(c0, c1)
        np.testing.assert_array_equal(s0.frames, s1.frames)
