"""Generative world model: context encoding, samplers, densities, training."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import op_index
from loopwm.errors import (
    CheckpointError,
    DivergenceError,
    LoopwmError,
    NumericError,
)
from loopwm.loop import Request
from loopwm.memory import WorldMemory
from loopwm.microworld import parse_literal, reference_segment
from loopwm.numerics import (
    DTYPE,
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
    SIGMA_FLOOR,
    PolicyBundle,
    SamplerConfig,
    WorldModelPolicy,
    build_demos,
    context_width,
    embed_condition,
    load_policy,
    mean_affine_coeffs,
    sample_group,
    sample_rows,
    save_policy,
    score_term,
    sft_train,
    velocity_net_sizes,
)
from oracles import channel_mask, finite_diff_grad, flow_matching_loss, net_input
from per_array import PlainNet, layer_arrays
from per_row import (
    as_records,
    gaussian_logpdf,
    sample_group_records,
    transition_logprob,
    transition_mean,
)
from sequential import SequentialPolicy, sample_ode, sample_sde


# how far two float32 samplings of one row may differ when the row shares its
# (G, width) matrix products with other rows in one and not in the other:
# BLAS may sum in another order, and the last bits of a float32 state move
# with it (1e-12 when the sampler ran in float64)
ROW_ATOL = 1e-5
# the same for a transition's float64 log-density, which the float32 states
# and net outputs feed (1e-12 in float64; about 1e-7 seen)
LOGP_ATOL = 1e-5


def small_config(n_frames=2, k_steps=4, eta_scale=0.3):
    return SamplerConfig(k_steps=k_steps, eta_scale=eta_scale, n_frames=n_frames)


def plan_steps(spec, *texts):
    goal = Goal(tuple(parse_literal(t) for t in texts))
    return list(plan(spec, goal))


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
    np.testing.assert_array_equal(cond[:d], kitchen.initial_frame)
    # one-hot block sums to exactly one
    assert cond[d:d + len(kitchen.operators)].sum() == 1.0


def test_context_uses_last_accepted_frame(kitchen):
    steps = plan_steps(kitchen, "cup.full")
    memory = WorldMemory.fresh(kitchen)
    seg = reference_segment(kitchen, memory.state, steps[0].op)
    memory.advance(steps[0], seg)
    cond = embed_condition(kitchen, steps[1], memory)
    d = len(kitchen.channels)
    np.testing.assert_array_equal(cond[:d], seg[-1])
    again = embed_condition(kitchen, steps[1], memory)
    np.testing.assert_array_equal(cond, again)


def test_context_channel_mask_marks_movers(kitchen):
    steps = plan_steps(kitchen, "cup.full")
    pour_kettle = next(s for s in steps if s.op == op_index(kitchen, "pour", "kettle", "cup"))
    mask = channel_mask(kitchen, pour_kettle)
    idx = kitchen.channel_index
    assert mask[idx["cup.full"]] == 1.0
    for key in ("kettle.x", "kettle.y", "hand.x", "hand.y"):
        assert mask[idx[key]] == 1.0
    assert mask[idx["jar.closed"]] == 0.0


# velocity field and samplers


def test_velocity_zero_net_is_zero():
    theta = tiny_net(latent=4, cond_width=3)
    for w in theta.weights:
        w[:] = 0.0
    for b in theta.biases:
        b[:] = 0.0
    u = net_activations(theta, net_input(np.ones(4), 0.5, np.ones(3)))[-1]
    np.testing.assert_array_equal(u, np.zeros((1, 4)))


def test_net_input_rows():
    z = np.arange(6.0).reshape(2, 3)
    x = net_input(z, np.array([0.5, 1.0]), np.array([7.0, 8.0]))
    np.testing.assert_array_equal(x, [[0, 1, 2, 0.5, 7, 8], [3, 4, 5, 1.0, 7, 8]])
    one = net_input(np.ones(3), 0.25, np.array([[9.0]]))
    np.testing.assert_array_equal(one, [[1, 1, 1, 0.25, 9]])


def test_velocity_rejects_bad_time_and_shape():
    theta = tiny_net(latent=4, cond_width=3)
    config = small_config()
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
    # the net's output width fixes the latent's, and 5 holds no 2 whole frames
    for sampler in (sample_group, sample_rows):
        with pytest.raises(LoopwmError, match="output width 5 does not hold 2 frames"):
            sampler(tiny_net(latent=5, cond_width=3), np.ones(3), np.ones(5), config,
                    np.ones((1, config.k_steps, 5)))


def test_samplers_reject_nonfinite_cond_and_z_init():
    # sample_group and sample_rows check their inputs once, at entry; the
    # net runs unchecked inside the denoising loop
    theta = tiny_net(latent=4, cond_width=3)
    config = small_config()
    noise = RandomSource(1).normal(shape=(2, config.k_steps, 4))
    for cond, z_init, what in ((np.array([0.0, np.nan, 1.0]), np.ones(4), "cond"),
                               (np.ones(3), np.array([0.0, np.inf, 0.0, 0.0]), "z_init")):
        for sampler in (sample_group, sample_rows):
            with pytest.raises(NumericError, match=what):
                sampler(theta, cond, z_init, config, noise)


def test_ode_zero_velocity_returns_input():
    theta = tiny_net(latent=4, cond_width=3)
    for w in theta.weights:
        w[:] = 0.0
    for b in theta.biases:
        b[:] = 0.0
    config = small_config()
    z = np.array([0.1, 0.2, 0.3, 0.4])
    seg = sample_ode(theta, np.ones(3), z, config)
    assert seg.dtype == DTYPE
    np.testing.assert_array_equal(seg.reshape(-1), z.astype(DTYPE))


def test_ode_single_step_unroll():
    theta = tiny_net(latent=4, cond_width=3, seed=5)
    config = small_config(k_steps=1)
    z = np.linspace(-1.0, 1.0, 4)
    cond = np.array([0.3, 0.6, 0.9])
    seg = sample_ode(theta, cond, z, config)
    # the sampler casts its inputs to DTYPE once and steps in it
    z = z.astype(DTYPE)
    expected = z - net_activations(theta, net_input(z, 1.0, cond, DTYPE))[-1][0] * 1.0
    np.testing.assert_array_equal(seg.reshape(-1), expected)


def test_sde_zero_noise_matches_ode_bitwise():
    rng = RandomSource(11)
    for trial in range(20):
        theta = tiny_net(latent=6, cond_width=2, seed=100 + trial)
        config = small_config(k_steps=5, eta_scale=0.0)
        z = np.asarray(rng.normal(shape=6))
        cond = np.asarray(rng.normal(shape=2))
        ode = sample_ode(theta, cond, z, config)
        sde, trace = sample_sde(theta, cond, z, config, RandomSource(999, trial))
        assert np.array_equal(ode, sde)
        assert np.all(trace.std == 0.0)


def test_sde_reproducible_and_trace_shape():
    theta = tiny_net(latent=4, cond_width=3, seed=2)
    config = small_config(k_steps=6)
    z = np.full(4, 0.5)
    cond = np.array([0.1, 0.2, 0.3])
    seg_a, tr_a = sample_sde(theta, cond, z, config, RandomSource(7, 3))
    seg_b, tr_b = sample_sde(theta, cond, z, config, RandomSource(7, 3))
    assert np.array_equal(seg_a, seg_b)
    assert len(tr_a.steps) == 6
    assert np.array_equal(tr_a.z_next, tr_b.z_next)
    assert np.array_equal(tr_a.logp, tr_b.logp)
    assert np.all(tr_a.std > 0.0)
    assert np.isfinite(tr_a.logp).all()


def test_trace_records_consistent_transitions():
    theta = tiny_net(latent=4, cond_width=3, seed=3)
    config = small_config(k_steps=5)
    z = np.array([0.4, -0.2, 0.8, 0.0])
    cond = np.array([1.0, 0.0, 0.5])
    _, trace = sample_sde(theta, cond, z, config, RandomSource(21))
    noise = RandomSource(21).normal(shape=(1, config.k_steps, z.size))[0]
    dt = 1.0 / config.k_steps
    for k, step in enumerate(as_records(trace).steps):
        # the net reads t in float32; the schedule takes the grid's own t
        t, std = config.time_grid()[k], step["std"]
        assert step["t"] == DTYPE(t)
        assert step["dt"] == dt
        # schedule std
        eta = config.eta_scale * np.sqrt(t)
        assert std == pytest.approx(eta * np.sqrt(dt), abs=1e-15)
        # the float64 mean under the same params regenerates the recorded
        # float32 next state with the stream's noise, up to float32 rounding
        # (1e-12 when the sampler ran in float64)
        mean = transition_mean(theta, step, cond)
        np.testing.assert_allclose(step["z_next"], mean + std * noise[k], atol=1e-6)
        # x_pred identity feeds the score: mean = z - (u - 0.5*eta^2*score)*dt
        t = step["t"]
        u = net_activations(theta, net_input(step["z"], t, cond))[-1][0]
        x_pred = step["z"] - t * u
        drift = u - 0.5 * eta * eta * score_term(step["z"], x_pred, t)
        np.testing.assert_allclose(mean, step["z"] - drift * dt, atol=1e-12)


@pytest.mark.parametrize("eta_scale", [0.3, 0.0])
def test_group_sampler_matches_sequential_sde(eta_scale):
    # the group sampler must reproduce G one-row calls on the same streams,
    # every trace field included; the G rows share one network evaluation
    theta = tiny_net(latent=6, cond_width=3, hidden=8, seed=14)
    config = small_config(k_steps=5, eta_scale=eta_scale)
    z = np.array([0.3, -0.1, 0.7, 0.2, -0.5, 0.9])
    cond = np.array([0.4, -0.2, 0.6])
    noise = np.stack([RandomSource(17).split(i).normal(shape=(config.k_steps, z.size))
                      for i in range(5)])
    frames, group = sample_group(theta, cond, z, config, noise)
    assert frames.shape == (5, 2, 3)
    for i in range(5):
        trace = group.row(i)
        want_seg, want = sample_sde(theta, cond, z, config, RandomSource(17).split(i))
        np.testing.assert_allclose(frames[i], want_seg, rtol=0, atol=ROW_ATOL)
        assert len(trace.steps) == len(want.steps) == config.k_steps
        for got, ref in zip(as_records(trace).steps, as_records(want).steps):
            assert (got["t"], got["dt"]) == (ref["t"], ref["dt"])
            for name in ("z", "z_next"):
                np.testing.assert_allclose(got[name], ref[name], rtol=0, atol=ROW_ATOL)
            np.testing.assert_allclose(transition_mean(theta, got, cond),
                                       transition_mean(theta, ref, cond),
                                       rtol=0, atol=ROW_ATOL)
            assert got["std"] == pytest.approx(ref["std"], abs=1e-12)
            assert got["logp"] == pytest.approx(ref["logp"], abs=LOGP_ATOL)
        if eta_scale == 0.0:
            np.testing.assert_allclose(frames[i], sample_ode(theta, cond, z, config),
                                       rtol=0, atol=ROW_ATOL)
    if eta_scale > 0.0:
        assert not np.array_equal(frames[0], frames[1])


@pytest.mark.parametrize("eta_scale", [0.3, 0.0])
def test_sample_rows_are_sample_group_per_row_conditions(eta_scale):
    # per-row conditions: each row is the one-row call under its own
    # condition, and sample_rows hands back sample_group's frames bit for bit
    theta = tiny_net(latent=4, cond_width=3, seed=21)
    config = small_config(eta_scale=eta_scale)
    rng = RandomSource(8)
    cond = rng.normal(shape=(3, 3))
    z_init = rng.normal(shape=(3, 4))
    noise = rng.normal(shape=(3, config.k_steps, 4)) if eta_scale else None
    frames, trace = sample_group(theta, cond, z_init, config, noise)
    rows = sample_rows(theta, cond, z_init, config, noise)
    # the segments are views of one float32 block of the round's frames
    block = rows[0].base
    assert block is not None and all(row.base is block for row in rows)
    for i, row in enumerate(rows):
        assert row.dtype == DTYPE
        assert np.array_equal(row, frames[i])
        assert np.array_equal(trace.steps[i, :, 5:],
                              np.tile(cond[i].astype(DTYPE), (config.k_steps, 1)))
        alone, _ = sample_group(theta, cond[i], z_init[i], config,
                                None if noise is None else noise[i:i + 1])
        np.testing.assert_allclose(frames[i], alone[0], rtol=0, atol=ROW_ATOL)
    assert not np.allclose(rows[0], rows[1])
    with pytest.raises(LoopwmError):
        sample_rows(theta, cond[:2], z_init, config, noise)


def test_sample_rows_drop_only_the_rows_that_diverge():
    theta = tiny_net(latent=4, cond_width=3, seed=15)
    # hidden unit 0 sums inf * cond[0] and -inf * cond[1]: NaN where the two
    # entries share a sign, so only that row diverges
    theta.weights[0][0, :] = 0.0
    theta.weights[0][0, 5] = np.inf
    theta.weights[0][0, 6] = -np.inf
    config = small_config(eta_scale=0.0)
    cond = np.array([[1.0, -1.0, 0.5], [1.0, 1.0, 0.5], [-1.0, 1.0, 0.5]])
    with np.errstate(invalid="ignore"):
        rows = sample_rows(theta, cond, np.ones(4), config, None)
        assert [row is None for row in rows] == [False, True, False]
        with pytest.raises(DivergenceError):
            sample_group(theta, cond, np.ones(4), config, None)
    np.testing.assert_allclose(rows[2],
                               sample_ode(theta, cond[2], np.ones(4), config),
                               rtol=0, atol=ROW_ATOL)


@settings(max_examples=40, deadline=None)
@given(rows=st.sampled_from([1, 3, 8]), k_steps=st.sampled_from([1, 2, 5]),
       eta_scale=st.sampled_from([0.0, 0.3]), shared_init=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_sample_group_trace_records(rows, k_steps, eta_scale, shared_init, seed):
    # each row's transitions chain z -> z_next along the time grid under its
    # condition, end at the segment, and are views of the group's arrays,
    # which equal the record-array sampler's bit for bit
    config = small_config(k_steps=k_steps, eta_scale=eta_scale)
    theta = tiny_net(latent=4, cond_width=3, seed=seed)
    rng = RandomSource(seed)
    # float64 draws cast to DTYPE, as the sampler casts them
    z_init = rng.normal(shape=4 if shared_init else (rows, 4)).astype(DTYPE)
    cond = rng.normal(shape=3).astype(DTYPE)
    noise = rng.normal(shape=(rows, k_steps, 4))
    frames, group = sample_group(theta, cond, z_init, config, noise)
    assert frames.shape == (rows, 2, 2) and np.shares_memory(frames, group.z_next)
    assert group.steps.shape == (rows, k_steps, 8) and group.std.shape == (k_steps,)
    assert group.z_next.shape == (rows, k_steps, 4) and group.logp.shape == (rows, k_steps)
    records = sample_group_records(theta, cond, z_init, config, noise)
    for i, (segment, want) in enumerate(records):
        trace = group.row(i)
        assert np.shares_memory(trace.steps, group.steps)
        z, t = trace.steps[:, :4], trace.steps[:, 4]
        assert np.array_equal(z[0], z_init if shared_init else z_init[i])
        assert np.array_equal(z[1:], trace.z_next[:-1])
        assert np.array_equal(t, np.array(config.time_grid(), dtype=DTYPE))
        assert np.array_equal(trace.steps[:, 5:], np.tile(cond, (k_steps, 1)))
        assert np.array_equal(frames[i], trace.z_next[-1].reshape(2, 2))
        if eta_scale == 0.0:
            assert np.all(trace.std == 0.0) and np.all(trace.logp == 0.0)
        else:
            assert np.all(trace.std > 0.0) and np.all(np.isfinite(trace.logp))
        got = as_records(trace)
        assert np.array_equal(got.cond, want.cond)
        for name in want.steps.dtype.names:
            assert np.array_equal(got.steps[name], want.steps[name]), name
        assert np.array_equal(frames[i], segment)


def round_of_requests(spec, config, seed, n):
    """A round of requests from three streams: two steps of one plan, one with memory."""
    steps = plan_steps(spec, "cup.full")
    advanced = WorldMemory.fresh(spec)
    advanced.advance(steps[0], reference_segment(spec, spec.initial_frame, steps[0].op,
                                                 n_frames=config.n_frames, rng=RandomSource(9)))
    return [Request(steps[1], WorldMemory.fresh(spec), RandomSource(seed, 1), n),
            Request(steps[0], WorldMemory.fresh(spec), RandomSource(seed, 2), 1),
            Request(steps[1], advanced, RandomSource(seed, 3), n)]


def twin(rng):
    return RandomSource(rng.seed, rng.stream)


def twins(requests):
    """The same requests on equal streams, for the sequential reference."""
    return [Request(r.step, r.memory, twin(r.rng), r.n) for r in requests]


@pytest.mark.parametrize("eta_scale", [0.3, 0.0])
def test_fulfil_matches_sequential_generate(kitchen, eta_scale):
    # a request's candidate j is the one-row reference on row j of its block
    # draw, each row under its own request's condition, and after any 1..n
    # candidates the stream stands where the one block draw leaves it
    config = SamplerConfig(k_steps=4, eta_scale=eta_scale, n_frames=3)
    theta = net_init(velocity_net_sizes(kitchen, config, hidden=8, depth=1), RandomSource(5))
    policy = WorldModelPolicy(theta, kitchen, config)
    n = 4
    latent = theta.sizes[-1]
    block = (n, 1 + config.k_steps, latent) if eta_scale else (n, latent)
    for seed in range(3):
        requests = round_of_requests(kitchen, config, seed, n)
        reference = twins(requests)
        segments = []
        for request, draw, want_draw in zip(requests, policy.fulfil(requests),
                                            SequentialPolicy(policy).fulfil(reference)):
            for _ in range(request.n):
                segment = draw()
                want = want_draw()
                np.testing.assert_allclose(segment, want, rtol=0, atol=ROW_ATOL)
                segments.append(segment)
        assert len(segments) == 2 * n + 1
        assert not np.array_equal(segments[0], segments[1])
        # the same step under another context frame is another condition
        assert not np.allclose(segments[0], segments[n + 1])
        for taken in range(1, n + 1):
            requests = round_of_requests(kitchen, config, seed, n)
            after = twin(requests[0].rng)
            after.normal(shape=block)
            draws = policy.fulfil(requests)
            for _ in range(taken):
                draws[0]()
            assert requests[0].rng.normal() == after.normal()


def test_fulfil_fails_only_the_request_with_a_nonfinite_condition(kitchen):
    config = SamplerConfig(k_steps=3, eta_scale=0.3, n_frames=3)
    theta = net_init(velocity_net_sizes(kitchen, config, hidden=8, depth=1), RandomSource(5))
    policy = WorldModelPolicy(theta, kitchen, config)
    requests = round_of_requests(kitchen, config, seed=0, n=2)
    # a context frame poisoned after the policy drew its finite segment
    requests[2].memory.frame[0] = np.nan
    with pytest.raises(NumericError):
        embed_condition(kitchen, requests[2].step, requests[2].memory)
    reference = SequentialPolicy(policy).fulfil(twins(requests))
    draws = policy.fulfil(requests)
    with pytest.raises(NumericError):
        draws[2]()
    for request, draw, want_draw in list(zip(requests, draws, reference))[:2]:
        for _ in range(request.n):
            np.testing.assert_allclose(draw(), want_draw(), rtol=0, atol=ROW_ATOL)


@pytest.mark.parametrize("bad", [
    np.nan,
    # at t = 1 the score's (1 - t) * x_pred is 0 * inf for an infinite velocity
    pytest.param(np.inf, marks=pytest.mark.filterwarnings(
        "ignore:invalid value encountered in multiply:RuntimeWarning")),
])
def test_sampler_nonfinite_net_raises_divergence(bad):
    theta = tiny_net(latent=4, cond_width=3, seed=15)
    theta.biases[-1][2] = bad
    config = small_config()
    with pytest.raises(DivergenceError):
        sample_group(theta, np.ones(3), np.ones(4), config,
                     RandomSource(1).normal(shape=(3, config.k_steps, 4)))
    with pytest.raises(DivergenceError):
        sample_ode(theta, np.ones(3), np.ones(4), config)


def test_first_transition_std_monte_carlo():
    theta = tiny_net(latent=4, cond_width=3, seed=4)
    config = small_config(k_steps=1, eta_scale=0.3)
    z = np.full(4, 0.2)
    cond = np.array([0.5, 0.5, 0.5])
    samples = []
    for i in range(10_000):
        _, trace = sample_sde(theta, cond, z, config, RandomSource(13, i))
        samples.append(trace.z_next[0])
    # every path starts at z and t = 1, so all share one transition mean
    mean = transition_mean(theta, as_records(trace).steps[0], cond)
    samples = np.asarray(samples) - mean
    observed = float(np.std(np.asarray(samples)))
    expected = 0.3 * np.sqrt(1.0) * np.sqrt(1.0)  # eta_1 * sqrt(dt), K=1
    assert abs(observed - expected) / expected < 0.03


def test_score_term_schedule():
    z = np.array([0.5, -0.5])
    x_pred = np.array([0.25, 0.75])
    t = 0.5
    expected = -(z - 0.5 * x_pred) / 0.25
    np.testing.assert_allclose(score_term(z, x_pred, t), expected)
    # at the conditional mean the score vanishes
    np.testing.assert_array_equal(score_term(0.5 * x_pred, x_pred, 0.5),
                                  np.zeros(2))
    # alpha = 0 at t = 1: score reduces to -z
    np.testing.assert_allclose(score_term(z, x_pred, 1.0), -z)
    # linearity in the residual
    np.testing.assert_allclose(score_term(2 * z, 2 * x_pred, 0.5), 2 * expected)


def test_the_sigma_floor_binds_only_below_the_time_grid():
    # sigma_t = max(t, SIGMA_FLOOR) is t at every grid time 1/K.. of K <= 1000,
    # so the score and the mean's coefficients there are the unfloored ones
    z, x_pred = np.array([0.5, -0.5]), np.array([0.25, 0.75])
    for t in (1.0 / 1000, 0.5, 1.0):
        np.testing.assert_array_equal(score_term(z, x_pred, t), -(z - (1 - t) * x_pred) / (t * t))
        a, c = mean_affine_coeffs(t, 0.1, 0.05)
        eta_sq = 0.05 * 0.05 / 0.1
        assert a == 1.0 - 0.1 * eta_sq * t / (2.0 * t * t)
        assert c == -0.1 * (1.0 + eta_sq * t * (1.0 - t) / (2.0 * t * t))
    # below the grid of K = 1000 the floor binds
    t = SIGMA_FLOOR / 2
    np.testing.assert_allclose(score_term(z, x_pred, t),
                               -(z - (1 - t) * x_pred) / SIGMA_FLOOR**2, rtol=1e-15)
    a, _ = mean_affine_coeffs(t, 0.1, 0.05)
    assert a == pytest.approx(1.0 - 0.1 * eta_sq * t / (2.0 * SIGMA_FLOOR**2), rel=1e-15)


# transition log-densities


def test_transition_logprob_self_consistency():
    theta = tiny_net(latent=4, cond_width=3, seed=6)
    config = small_config(k_steps=5)
    z = np.array([0.3, 0.1, -0.4, 0.9])
    cond = np.array([0.2, 0.8, 0.5])
    trace = as_records(sample_sde(theta, cond, z, config, RandomSource(31))[1])
    # the float64 oracle against the sampler's float64 densities of float32
    # net outputs (1e-12 and 1e-10 when the net ran in float64)
    total = 0.0
    for step in trace.steps:
        lp = transition_logprob(theta, step, cond)
        assert lp == pytest.approx(step["logp"], abs=LOGP_ATOL)
        total += lp
    assert total == pytest.approx(trace.steps["logp"].sum(), abs=10 * LOGP_ATOL)


def test_transition_logprob_mode_and_additivity():
    theta = tiny_net(latent=4, cond_width=3, seed=7)
    config = small_config(k_steps=3)
    cond = np.ones(3) * 0.4
    _, trace = sample_sde(theta, cond, np.ones(4) * 0.1, config, RandomSource(41))
    step = as_records(trace).steps[0]
    z_next, std = step["z_next"], step["std"]
    mean = transition_mean(theta, step, cond)
    at_mode = gaussian_logpdf(mean, mean, std)
    assert at_mode > step["logp"] or np.allclose(z_next, mean)
    # additivity over coordinate slices
    whole = gaussian_logpdf(z_next, mean, std)
    parts = gaussian_logpdf(z_next[:2], mean[:2], std) + \
        gaussian_logpdf(z_next[2:], mean[2:], std)
    assert whole == pytest.approx(parts, abs=1e-12)


def test_transition_logprob_requires_noise():
    theta = tiny_net(latent=4, cond_width=3, seed=8)
    config = small_config(k_steps=2, eta_scale=0.0)
    _, trace = sample_sde(theta, np.ones(3), np.ones(4), config, RandomSource(5))
    with pytest.raises(LoopwmError):
        transition_logprob(theta, as_records(trace).steps[0], np.ones(3))


def test_logprob_gradient_matches_finite_differences():
    # the analytic route: d(logp)/d(u) = c(t) * (z_next - mean) / std^2,
    # with c from mean_affine_coeffs, pushed through net_backward_batch
    theta = tiny_net(latent=3, cond_width=2, hidden=4, seed=9)
    config = small_config(n_frames=3, k_steps=4)
    z = np.array([0.2, -0.1, 0.5])
    cond = np.array([0.7, 0.3])
    _, trace = sample_sde(theta, cond, z, config, RandomSource(61))
    step = as_records(trace).steps[2]

    # in float64, on the float32 parameters' values, where central
    # differences resolve the gradient
    net = PlainNet.float64(theta)
    t, std = step["t"], step["std"]
    mean = transition_mean(net, step, cond)
    _, coeff = mean_affine_coeffs(t, step["dt"], std)
    out_grad = coeff * (step["z_next"] - mean) / (std * std)
    acts = net_activations(net, net_input(step["z"], t, cond))
    analytic = net_backward_batch(net, acts, out_grad[None, :])

    numeric = finite_diff_grad(
        lambda p: transition_logprob(p, step, cond), theta)
    sizes = theta.sizes
    for a, n in zip(layer_arrays(sizes, analytic), layer_arrays(sizes, numeric)):
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
    # the loss in float64, on the float32 parameters' values
    _, analytic = flow_matching_loss(PlainNet.float64(theta), conds, xs, ts, eps)
    numeric = finite_diff_grad(
        lambda p: flow_matching_loss(p, conds, xs, ts, eps)[0], theta)
    sizes = theta.sizes
    for a, n in zip(layer_arrays(sizes, analytic), layer_arrays(sizes, numeric)):
        denom = max(np.max(np.abs(n)), 1e-8)
        assert np.max(np.abs(a - n)) / denom < 1e-4


def test_flow_matching_loss_runs_the_net_forward_once(tanh_calls):
    # the backward pass reads the loss's own forward activations: one tanh
    # per hidden layer, each on a feature-major (width, rows) block
    rng = RandomSource(17)
    theta = net_init([5, 4, 3, 2], rng)
    conds = np.asarray(rng.normal(shape=(6, 2)))
    xs = np.asarray(rng.normal(shape=(6, 2)))
    ts = np.asarray(1.0 - rng.uniform(shape=6))
    eps = np.asarray(rng.normal(shape=(6, 2)))
    flow_matching_loss(theta, conds, xs, ts, eps)
    assert tanh_calls == [(4, 6), (3, 6)]


def test_sft_zero_epochs_is_identity(kitchen):
    config = SamplerConfig(n_frames=4)
    demos = build_demos(kitchen, 3, RandomSource(71), n_frames=4)
    theta = net_init(velocity_net_sizes(kitchen, config, hidden=8), RandomSource(1))
    before = [w.copy() for w in theta.weights]
    trained, history = sft_train(theta, demos, epochs=0, lr=1e-3, rng=RandomSource(2))
    assert history == []
    for w0, w1 in zip(before, trained.weights):
        np.testing.assert_array_equal(w0, w1)


def _sft_along_flow_matching_loss(theta, demos, epochs, lr, rng, batch_size):
    """sft_train's draws and steps, with every batch through the checked loss."""
    conds = np.stack([c for c, _ in demos])
    xs = np.stack([seg.reshape(-1) for _, seg in demos])
    state = opt_init(theta)
    history = []
    for _ in range(epochs):
        order = list(range(len(demos)))
        rng.shuffle(order)
        losses = []
        for lo in range(0, len(demos), batch_size):
            idx = order[lo:lo + batch_size]
            ts = 1.0 - rng.uniform(shape=len(idx))
            eps = rng.normal(shape=(len(idx), xs.shape[1]))
            loss, grads = flow_matching_loss(theta, conds[idx], xs[idx], ts, eps)
            opt_step(theta, grads, state, lr=lr)
            losses.append(loss)
        history.append(float(np.mean(losses)))
    return history


def test_sft_batches_equal_the_checked_loss_bitwise(kitchen):
    # sft_train validates its demos once and runs each batch unchecked; the
    # checked flow_matching_loss must see the same losses and take the same steps
    config = SamplerConfig(n_frames=4)
    demos = build_demos(kitchen, 37, RandomSource(72), n_frames=4)
    theta = net_init(velocity_net_sizes(kitchen, config, hidden=8), RandomSource(1))
    reference = clone_params(theta)
    trained, history = sft_train(theta, demos, epochs=3, lr=3e-3, rng=RandomSource(2),
                                 batch_size=8)
    want = _sft_along_flow_matching_loss(reference, demos, 3, 3e-3, RandomSource(2), 8)
    assert history == want
    assert np.array_equal(trained.vector, reference.vector)


def _poison_condition(demos):
    cond = demos[5][0].copy()
    cond[2] = np.nan
    demos[5] = (cond, demos[5][1])


def _poison_segment(demos):
    # nothing checks a segment's frames but sft_train, at entry
    demos[0][1][1, 0] = np.inf


@pytest.mark.parametrize("poison", [_poison_condition, _poison_segment])
def test_sft_rejects_nonfinite_demos_before_any_step(kitchen, poison):
    config = SamplerConfig(n_frames=4)
    demos = build_demos(kitchen, 8, RandomSource(71), n_frames=4)
    poison(demos)
    theta = net_init(velocity_net_sizes(kitchen, config, hidden=8), RandomSource(1))
    before = theta.vector.copy()
    with pytest.raises(NumericError, match="demo"):
        sft_train(theta, demos, epochs=2, lr=1e-3, rng=RandomSource(2))
    assert np.array_equal(theta.vector, before)


def test_sft_rejects_a_net_that_does_not_fit_the_demos(kitchen):
    config = SamplerConfig(n_frames=4)
    demos = build_demos(kitchen, 4, RandomSource(71), n_frames=4)
    sizes = velocity_net_sizes(kitchen, config, hidden=8)
    for misfit in ([sizes[0] + 1] + sizes[1:], sizes[:-1] + [sizes[-1] - 1]):
        theta = net_init(misfit, RandomSource(1))
        with pytest.raises(LoopwmError, match="do not fit"):
            sft_train(theta, demos, epochs=0, lr=1e-3, rng=RandomSource(2))


def test_sft_raises_divergence_error_on_a_nonfinite_loss(kitchen):
    config = SamplerConfig(n_frames=4)
    demos = build_demos(kitchen, 8, RandomSource(71), n_frames=4)
    # a net whose output is NaN: the first batch's loss, before its step
    theta = net_init(velocity_net_sizes(kitchen, config, hidden=8), RandomSource(1))
    theta.biases[-1][0] = np.nan
    before = theta.vector.copy()
    with pytest.raises(DivergenceError):
        sft_train(theta, demos, epochs=1, lr=1e-3, rng=RandomSource(2))
    assert np.array_equal(theta.vector, before, equal_nan=True)
    # a step size that blows the parameters up within a few batches
    theta = net_init(velocity_net_sizes(kitchen, config, hidden=8), RandomSource(1))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError):
        sft_train(theta, demos, epochs=4, lr=1e300, rng=RandomSource(2), batch_size=2)


def test_sft_loss_halves_on_kitchen_demos(kitchen):
    config = SamplerConfig(n_frames=8)
    demos = build_demos(kitchen, 200, RandomSource(73), n_frames=8, jitter=0.005)
    theta = net_init(velocity_net_sizes(kitchen, config), RandomSource(3))
    probe_rng = RandomSource(99)
    conds = np.stack([c for c, _ in demos[:64]])
    xs = np.stack([s.reshape(-1) for _, s in demos[:64]])
    ts = np.asarray(1.0 - probe_rng.uniform(shape=64))
    eps = np.asarray(probe_rng.normal(shape=xs.shape))
    initial, _ = flow_matching_loss(theta, conds, xs, ts, eps)
    trained, history = sft_train(theta, demos, epochs=50, lr=3e-3, rng=RandomSource(4))
    final, _ = flow_matching_loss(trained, conds, xs, ts, eps)
    assert len(history) == 50
    assert final < 0.5 * initial


def test_sft_overfits_single_demo():
    config = SamplerConfig(n_frames=2)
    target = np.array([0.2, 0.8, 0.5, 0.4, 0.1, 0.9])
    seg = target.reshape(2, 3)
    cond = np.array([1.0, 0.0, 0.5, 0.25])
    theta = net_init([6 + 1 + 4, 64, 64, 64, 6], RandomSource(5))
    theta, history = sft_train(theta, [(cond, seg)] * 64, epochs=600, lr=3e-3,
                               rng=RandomSource(6), batch_size=32)
    assert history[-1] < history[0]
    rng = RandomSource(85)
    for _ in range(5):
        z = np.asarray(rng.normal(shape=6))
        out = sample_ode(theta, cond, z, config)
        assert np.max(np.abs(out.reshape(-1) - target)) < 0.1


# bundle and checkpointing


def test_policy_bundle_sync(kitchen):
    config = SamplerConfig(n_frames=4)
    reference = net_init(velocity_net_sizes(kitchen, config, hidden=8), RandomSource(12))
    bundle = PolicyBundle.from_reference(reference)
    bundle.theta.weights[0][0, 0] += 1.0
    assert bundle.theta_old.weights[0][0, 0] != bundle.theta.weights[0][0, 0]
    old_vector = bundle.theta_old.vector
    bundle.sync_old()
    assert bundle.theta_old.vector is old_vector  # copied into, not replaced
    assert bundle.theta_old.weights[0][0, 0] == bundle.theta.weights[0][0, 0]
    assert reference.weights[0][0, 0] == pytest.approx(bundle.theta.weights[0][0, 0] - 1.0)
    bundle.theta.weights[0][0, 0] += 1.0
    assert bundle.theta_old.weights[0][0, 0] != bundle.theta.weights[0][0, 0]
    # sync_old writes into theta_old, so it may share no memory with the others
    for theta_old in (reference, bundle.theta):
        with pytest.raises(LoopwmError, match="theta_old"):
            PolicyBundle(theta=bundle.theta, theta_old=theta_old, reference=reference)


def test_policy_checkpoint_roundtrip_and_mismatch(tmp_path, kitchen, workshop):
    config = SamplerConfig(n_frames=4)
    theta = net_init(velocity_net_sizes(kitchen, config, hidden=8), RandomSource(13))
    path = tmp_path / "policy.ckpt"
    save_policy(path, theta, kitchen, config)
    loaded = load_policy(path, kitchen, config)
    for w0, w1 in zip(theta.weights, loaded.weights):
        np.testing.assert_array_equal(w0, w1)

    with pytest.raises(CheckpointError, match="domain_hash"):
        load_policy(path, workshop, SamplerConfig(n_frames=4))
    with pytest.raises(CheckpointError, match="n_frames"):
        load_policy(path, kitchen, SamplerConfig(n_frames=6))
    (tmp_path / "policy.ckpt.json").unlink()
    with pytest.raises(CheckpointError, match="manifest"):
        load_policy(path, kitchen, config)


def test_policy_manifest_leaves_sampling_settings_free(tmp_path, kitchen):
    config = SamplerConfig(n_frames=4)
    theta = net_init(velocity_net_sizes(kitchen, config, hidden=8), RandomSource(13))
    path = tmp_path / "policy.ckpt"
    save_policy(path, theta, kitchen, config)
    sidecar = tmp_path / "policy.ckpt.json"
    manifest = json.loads(sidecar.read_text())
    # the domain hash pins the frame and context widths, so they are not keys
    assert sorted(manifest) == ["domain_hash", "format", "n_frames"]
    other = SamplerConfig(k_steps=3, eta_scale=0.0, n_frames=4)
    load_policy(path, kitchen, other)
    # a sidecar written when the sampling settings were pinned still loads
    sidecar.write_text(json.dumps({**manifest, "k_steps": 10, "eta_scale": 0.3,
                                   "delta": 1e-3}))
    load_policy(path, kitchen, other)
    # and so does one that still holds the two widths, whatever they read
    for widths in ({"frame_width": kitchen.n_channels, "context_width": context_width(kitchen)},
                   {"frame_width": 0, "context_width": 0}):
        sidecar.write_text(json.dumps({**manifest, **widths}))
        load_policy(path, kitchen, other)


def test_build_demos_chain_from_initial_state(kitchen):
    demos = build_demos(kitchen, 40, RandomSource(91), n_frames=6)
    width = context_width(kitchen)
    d = len(kitchen.channels)
    assert len(demos) == 40
    for cond, seg in demos:
        assert cond.shape == (width,)
        assert seg.shape == (6, d)
        assert np.all(np.isfinite(cond))
    np.testing.assert_array_equal(demos[0][0][:d], kitchen.initial_frame)
    again = build_demos(kitchen, 40, RandomSource(91), n_frames=6)
    for (c0, s0), (c1, s1) in zip(demos, again):
        np.testing.assert_array_equal(c0, c1)
        np.testing.assert_array_equal(s0, s1)
