import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopwm.errors import CheckpointError
from loopwm.numerics import (
    DTYPE,
    NetParams,
    RandomSource,
    clone_params,
    load_checkpoint,
    net_activations,
    net_backward_batch,
    net_init,
    opt_init,
    opt_step,
    save_checkpoint,
)
from oracles import finite_diff_grad
from per_array import (
    PlainNet,
    backward_per_array,
    forward_per_array,
    layer_arrays,
    opt_step_per_array,
)
from per_row import gaussian_logpdf


def rel_err(a, b):
    return abs(a - b) / max(1e-8, abs(a) + abs(b))


# how far the float32 Adam trajectory of test_adam_in_place_steps_track_the_textbook_update
# may drift from the textbook order's, relative to each parameter (plus lr):
# 5.2e-6 is the worst seen over its 2,000 steps
TEXTBOOK_TOLERANCE = 2e-5
# how far a float32 pass may land from its float64 oracle, relative to
# 1 + the oracle's magnitude: 32 float32 ulps of 1, against a worst of 3.4e-7
# over 3,000 random nets of the `small_nets` kind
FLOAT32_BOUND = 32 * float(np.finfo(np.float32).eps)


def test_identity_single_layer_returns_input():
    params = NetParams((4, 4), np.concatenate([np.eye(4).ravel(), np.zeros(4)]).astype(DTYPE))
    x = np.array([0.3, -1.2, 0.0, 2.5], dtype=DTYPE)
    np.testing.assert_array_equal(net_activations(params, x[None, :])[-1][0], x)


def test_net_params_are_views_of_one_vector_and_reject_a_misfit():
    params = net_init([3, 4, 2], RandomSource(0))
    assert params.vector.shape == (3 * 4 + 4 + 4 * 2 + 2,)
    params.weights[1][1, 3] = 7.0
    params.biases[0][2] = -3.0
    assert params.vector[16 + 7] == 7.0 and params.vector[12 + 2] == -3.0
    assert params.vector.dtype == DTYPE
    for vector in (np.zeros(25, DTYPE), np.zeros(27, DTYPE), np.zeros(26, dtype=np.float64),
                   np.zeros((26, 1), DTYPE), np.zeros(52, DTYPE)[::2]):
        with pytest.raises(ValueError):
            NetParams((3, 4, 2), vector)
    with pytest.raises(ValueError):
        NetParams((3,), np.zeros(0, DTYPE))


def test_activations_hold_every_layer_output():
    # the backward sweep reads the list as [x, h_1, ..., y], the input itself
    # first; the per-array test compares the values pairwise
    params = net_init([3, 4, 2], RandomSource(1))
    x = RandomSource(2).normal(shape=(2, 3)).astype(DTYPE)
    acts = net_activations(params, x)
    assert [a.shape for a in acts] == [(2, 3), (2, 4), (2, 2)]
    assert [a.dtype for a in acts] == [DTYPE] * 3
    assert acts[0] is x


def test_forward_batch_matches_single():
    rng = RandomSource(11)
    params = net_init([6, 8, 8, 3], rng)
    xs = rng.normal((5, 6))
    batch = net_activations(params, xs)[-1]
    for i in range(5):
        np.testing.assert_allclose(batch[i], net_activations(params, xs[i:i + 1])[-1][0],
                                   rtol=0, atol=1e-14)


@pytest.mark.parametrize("sizes", [[5, 7, 3], [4, 6, 6, 2], [3, 4, 1]])
def test_backward_matches_finite_differences(sizes):
    # both passes run in the dtype of their inputs; the check runs them in
    # float64, where central differences resolve the gradient, and
    # test_float32_passes_stay_near_the_float64_oracle bounds the float32 run
    rng = RandomSource(42, hash(tuple(sizes)) & 0xFFFF)
    params = PlainNet.float64(net_init(sizes, rng))
    x = rng.normal(sizes[0])
    og = rng.normal(sizes[-1])

    grads = net_backward_batch(params, net_activations(params, x[None, :]), og[None, :])
    fd = finite_diff_grad(lambda p: float(og @ net_activations(p, x[None, :])[-1][0]), params)
    assert grads.dtype == np.float64
    for a, b in zip(layer_arrays(sizes, grads), layer_arrays(sizes, fd)):
        worst = max(rel_err(u, v) for u, v in zip(a.reshape(-1), b.reshape(-1)))
        assert worst < 1e-6


def test_backward_batch_sums_per_sample_grads():
    # in float64, so the sums agree to 1e-12
    rng = RandomSource(13)
    params = PlainNet.float64(net_init([3, 5, 2], rng))
    xs = rng.normal((4, 3))
    ogs = rng.normal((4, 2))
    batch_grads = net_backward_batch(params, net_activations(params, xs), ogs)
    acc = np.zeros_like(batch_grads)
    for i in range(4):
        acc += net_backward_batch(params, net_activations(params, xs[i:i + 1]), ogs[i:i + 1])
    np.testing.assert_allclose(acc, batch_grads, atol=1e-12)


def test_adam_single_step_matches_hand_value():
    # scalar p=0, grad=1, lr=0.1: bias-corrected first step moves by ~lr
    params = NetParams((1, 1), np.array([0.0, 0.0], dtype=DTYPE))
    state = opt_init(params)
    opt_step(params, np.array([1.0, 0.0], dtype=DTYPE), state, lr=0.1)
    assert abs(params.weights[0][0, 0] + 0.1) < 1e-7
    assert state.step == 1


def test_adam_zero_grads_leave_params_unchanged():
    rng = RandomSource(3)
    params = net_init([3, 4, 2], rng)
    state = opt_init(params)
    before = params.vector.copy()
    opt_step(params, np.zeros_like(params.vector), state, lr=0.5)
    np.testing.assert_array_equal(before, params.vector)


def test_adam_in_place_steps_equal_the_efficient_order_bitwise():
    # the reference runs in float32, the package's dtype, so it is bitwise
    rng = RandomSource(8)
    params = net_init([3, 4, 2], rng)
    state = opt_init(params)
    want = [a.copy() for a in layer_arrays(params.sizes, params.vector)]
    m = [np.zeros_like(a) for a in want]
    v = [np.zeros_like(a) for a in want]
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    for t in range(1, 4):
        grads = [rng.normal(shape=a.shape).astype(DTYPE) for a in want]
        opt_step(params, np.concatenate([g.ravel() for g in grads]), state, lr=lr)
        root = math.sqrt(1.0 - b2**t)
        alpha, eps_hat = lr * root / (1.0 - b1**t), eps * root
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * g * g
            want[i] = want[i] - alpha * (m[i] / (np.sqrt(v[i]) + eps_hat))
        for got, ref in zip(layer_arrays(params.sizes, params.vector), want):
            assert ref.dtype == DTYPE
            np.testing.assert_array_equal(got, ref)
    assert state.step == 3


def test_adam_in_place_steps_track_the_textbook_update():
    # the efficient order equals the textbook update in exact arithmetic and
    # may differ in the last ulp. Both run in float32, so the moments agree
    # bitwise and the trajectories to TEXTBOOK_TOLERANCE of each parameter,
    # or of the step size lr for a parameter near zero (a bias crosses zero
    # here); after 2,000 steps the first bias correction is exactly 1.0 and
    # the second 1 - 0.999^2000
    rng = RandomSource(9)
    params = net_init([3, 4, 2], rng)
    state = opt_init(params)
    p = params.vector.copy()
    m, v = np.zeros_like(p), np.zeros_like(p)
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    grad = np.asarray(rng.normal(shape=p.size))
    for t in range(1, 2001):
        kind = t % 4
        if kind == 0:
            grad = np.asarray(rng.normal(shape=p.size))
        elif kind == 1:
            grad = np.zeros_like(grad)
        elif kind == 2:
            grad = -np.asarray(rng.normal(shape=p.size))
        else:
            grad = np.asarray(rng.normal(shape=p.size)) * 1e-6
        grad = grad.astype(DTYPE)
        opt_step(params, grad, state, lr=lr)
        m = b1 * m + (1.0 - b1) * grad
        v = b2 * v + (1.0 - b2) * grad * grad
        m_hat, v_hat = m / (1.0 - b1**t), v / (1.0 - b2**t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
        # the moments keep the textbook order exactly
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
        np.testing.assert_allclose(params.vector, p, rtol=TEXTBOOK_TOLERANCE,
                                   atol=TEXTBOOK_TOLERANCE * lr)


def test_adam_rejects_bad_gradients_before_touching_anything():
    params = net_init([3, 4, 2], RandomSource(2))
    state = opt_init(params)
    before = params.vector.copy()
    n = before.size
    for grads in (np.ones(n + 1), np.ones(n - 1), np.ones((n, 1)),
                  [np.ones_like(a) for a in layer_arrays(params.sizes, params.vector)]):
        with pytest.raises(ValueError, match="gradient shape"):
            opt_step(params, grads, state, lr=0.1)
    other = opt_init(net_init([3, 5, 2], RandomSource(2)))
    with pytest.raises(ValueError, match="another net"):
        opt_step(params, np.ones(n), other, lr=0.1)
    assert state.step == other.step == 0
    assert np.array_equal(before, params.vector)
    assert not state.m.any() and not other.m.any()


@st.composite
def small_nets(draw):
    """2-4 affine layers of widths 1-12, tanh, Glorot-initialised."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=3, max_size=5))
    return net_init(sizes, RandomSource(draw(st.integers(0, 2**32 - 1))))


@settings(max_examples=40, deadline=None)
@given(params=small_nets(), seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(["normal", "zero", "negated"]), min_size=1, max_size=6),
       lr=st.sampled_from([1e-3, 0.05, 1.0]))
def test_opt_step_equals_the_per_array_reference_bitwise(params, seed, kinds, lr):
    # the reference runs on float32 copies, the package's dtype
    rng = RandomSource(seed)
    arrays = [a.copy() for a in layer_arrays(params.sizes, params.vector)]
    m = [np.zeros_like(a) for a in arrays]
    v = [np.zeros_like(a) for a in arrays]
    state = opt_init(params)
    grad = rng.normal(shape=params.vector.size).astype(DTYPE)
    for t, kind in enumerate(kinds, start=1):
        if kind == "zero":
            grad = np.zeros_like(grad)
        elif kind == "negated":
            grad = -grad
        else:
            grad = (rng.normal(shape=grad.size) * 10.0 ** rng.integers(-6, 3)).astype(DTYPE)
        opt_step(params, grad, state, lr=lr)
        opt_step_per_array(arrays, layer_arrays(params.sizes, grad.copy()), m, v, t, lr)
        for got, want in ((params.vector, arrays), (state.m, m), (state.v, v)):
            assert np.array_equal(got, np.concatenate([a.ravel() for a in want]))
    assert state.step == len(kinds)


@settings(max_examples=40, deadline=None)
@given(params=small_nets(), seed=st.integers(0, 2**32 - 1),
       exponents=st.lists(st.floats(-12.0, 6.0), min_size=1, max_size=6),
       lr=st.sampled_from([1e-3, 0.05, 1.0]))
def test_a_negated_lr_steps_like_a_negated_gradient_bitwise(params, seed, exponents, lr):
    # GRPO ascends with lr negated instead of negating its gradient: a sign
    # flip commutes with every operation of the step, so only m's sign differs
    rng = RandomSource(seed)
    ascent, descent = clone_params(params), clone_params(params)
    up, down = opt_init(params), opt_init(params)
    for exponent in exponents:
        grad = np.asarray(rng.normal(shape=params.vector.size)) * 10.0 ** exponent
        opt_step(ascent, grad, up, lr=-lr)
        opt_step(descent, -grad, down, lr=lr)
        assert ascent.vector.tobytes() == descent.vector.tobytes()
        assert up.m.tobytes() == (-down.m).tobytes() and up.v.tobytes() == down.v.tobytes()


# the benchmark's velocity net: 8 frames of 12 channels, t and a 32-wide
# condition in, three hidden layers of 128
BENCHMARK_NET = (129, 128, 128, 128, 96)


# rows 1-40 cover the row counts the workloads run: 8 (a GRPO group's
# sampler step), 16 and 32 (SFT batches) and 24 (a 3-step GRPO objective)
@settings(max_examples=40, deadline=None)
@given(params=small_nets(), seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 40))
@example(params=net_init(BENCHMARK_NET, RandomSource(3)), seed=11, rows=8)
@example(params=net_init(BENCHMARK_NET, RandomSource(3)), seed=11, rows=24)
@example(params=net_init(BENCHMARK_NET, RandomSource(3)), seed=11, rows=32)
def test_forward_and_backward_equal_the_per_array_reference_bitwise(params, seed, rows):
    # the reference runs on the package's float32 parameters and inputs
    rng = RandomSource(seed)
    x = rng.normal(shape=(rows, params.sizes[0])).astype(DTYPE)
    out_grad = rng.normal(shape=(rows, params.sizes[-1])).astype(DTYPE)
    acts = net_activations(params, x)
    reference = forward_per_array(params, x)
    assert all(a.dtype == DTYPE and np.array_equal(a, b) for a, b in zip(acts, reference))
    kept = out_grad.copy()
    grad = net_backward_batch(params, acts, out_grad)
    want = backward_per_array(params, reference, kept)
    assert grad.dtype == want.dtype == DTYPE
    assert np.array_equal(grad, want)
    assert np.array_equal(out_grad, kept)
    assert all(np.array_equal(a, b) for a, b in zip(acts, reference))


@settings(max_examples=60, deadline=None)
@given(params=small_nets(), seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6))
def test_float32_passes_stay_near_the_float64_oracle(params, seed, rows):
    # the package's float32 forward and backward against the per-array
    # reference run in float64 on the same (float32-valued) parameters and
    # inputs, so the gap is float32 rounding alone
    rng = RandomSource(seed)
    x = rng.normal(shape=(rows, params.sizes[0])).astype(DTYPE)
    out_grad = rng.normal(shape=(rows, params.sizes[-1])).astype(DTYPE)
    acts = net_activations(params, x)
    grad = net_backward_batch(params, acts, out_grad)
    oracle = PlainNet.float64(params)
    acts64 = forward_per_array(oracle, x.astype(np.float64))
    grad64 = backward_per_array(oracle, acts64, out_grad.astype(np.float64))
    assert acts[-1].dtype == grad.dtype == DTYPE
    assert np.all(np.abs(acts[-1] - acts64[-1]) <= FLOAT32_BOUND * (1.0 + np.abs(acts64[-1])))
    assert np.all(np.abs(grad - grad64) <= FLOAT32_BOUND * (1.0 + np.max(np.abs(grad64))))


def test_gaussian_logpdf_standard_normal_at_zero():
    n = 7
    got = gaussian_logpdf(np.zeros(n), np.zeros(n), 1.0)
    assert abs(got - (-0.5 * math.log(2 * math.pi) * n)) < 1e-12


def test_gaussian_logpdf_matches_direct_formula():
    rng = RandomSource(5)
    x = rng.normal(9)
    mean = rng.normal(9)
    std = 0.37
    expect = sum(
        -0.5 * math.log(2 * math.pi) - math.log(std) - 0.5 * ((xi - mi) / std) ** 2
        for xi, mi in zip(x, mean)
    )
    assert abs(gaussian_logpdf(x, mean, std) - expect) < 1e-10


def test_gaussian_logpdf_rejects_bad_std():
    with pytest.raises(ValueError):
        gaussian_logpdf(np.zeros(2), np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        gaussian_logpdf(np.zeros(2), np.zeros(2), -1.0)


def test_finite_diff_on_quadratic():
    params = PlainNet((2, 2), np.array([1.0, 0.5, -0.25, 2.0, 0.0, 0.0]))

    def quad(p):
        return float(p.vector @ p.vector)

    grads = finite_diff_grad(quad, params)
    np.testing.assert_allclose(grads, 2 * params.vector, atol=1e-6)


def test_random_source_replays_identical_sequence():
    a = RandomSource(123, 9).normal(16)
    b = RandomSource(123, 9).normal(16)
    np.testing.assert_array_equal(a, b)


def test_random_source_split_is_deterministic_and_fresh():
    parent = RandomSource(99)
    c1 = parent.split(4)
    c2 = parent.split(4)
    assert c1.stream == c2.stream and c1.seed == 99
    assert c1.stream != parent.stream
    np.testing.assert_array_equal(c1.normal(8), c2.normal(8))
    assert parent.split(5).stream != c1.stream


def test_random_source_streams_decorrelated():
    n = 10_000
    a = RandomSource(2024, 0).normal(n)
    b = RandomSource(2024, 1).normal(n)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.05


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**63), idx=st.integers(0, 1000))
def test_random_source_split_replays(seed, idx):
    a = RandomSource(seed).split(idx)
    b = RandomSource(seed).split(idx)
    assert a.normal() == b.normal()


def test_checkpoint_roundtrip_bitwise(tmp_path):
    params = net_init([5, 8, 8, 3], RandomSource(77))
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert loaded.sizes == params.sizes
    assert loaded.vector.tobytes() == params.vector.tobytes()
    # identical params -> identical bytes
    path2 = tmp_path / "net2.ckpt"
    save_checkpoint(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_bad_magic_and_truncation(tmp_path):
    params = net_init([3, 4, 2], RandomSource(8))
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, params)
    blob = path.read_bytes()

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"XXNET001" + blob[8:])
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)

    trunc = tmp_path / "trunc.ckpt"
    trunc.write_bytes(blob[:-5])
    with pytest.raises(CheckpointError):
        load_checkpoint(trunc)

    trailing = tmp_path / "trail.ckpt"
    trailing.write_bytes(blob + b"\x00")
    with pytest.raises(CheckpointError):
        load_checkpoint(trailing)


# sha256 of `save_checkpoint(net_init((9, 7, 5, 3), RandomSource(0)))` in the
# float32 layout (LWNET002); no BLAS call is involved, so it holds on any machine
PINNED_CHECKPOINT_SHA256 = "c616513bee9cc9ce56d83422b34d4338c07e4f907147f1b6ccbb4a9f3162c52b"


def test_checkpoint_bytes_are_pinned(tmp_path):
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, net_init((9, 7, 5, 3), RandomSource(0)))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_CHECKPOINT_SHA256


def test_checkpoint_loads_the_float64_layout_as_its_float32_cast(tmp_path):
    # LWNET001 holds the same header and a float64 payload
    sizes = (3, 4, 2)
    payload = RandomSource(4).normal(shape=26)
    old = tmp_path / "old.ckpt"
    old.write_bytes(b"LWNET001" + bytes([4]) + b"tanh" + np.array([3], "<u4").tobytes()
                    + np.array(sizes, "<u4").tobytes() + payload.astype("<f8").tobytes())
    loaded = load_checkpoint(old)
    assert loaded.sizes == sizes
    assert loaded.vector.dtype == DTYPE and loaded.vector.flags.writeable
    assert np.array_equal(loaded.vector, payload.astype(DTYPE))
    # saved again, it takes the float32 layout
    new = tmp_path / "new.ckpt"
    save_checkpoint(new, loaded)
    blob = new.read_bytes()
    assert blob[:8] == b"LWNET002" and len(blob) == len(old.read_bytes()) - 4 * 26
    truncated = tmp_path / "truncated.ckpt"
    truncated.write_bytes(old.read_bytes()[:-4])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(truncated)


def test_checkpoint_load_then_save_returns_the_same_bytes(tmp_path):
    first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
    save_checkpoint(first, net_init((9, 7, 5, 3), RandomSource(0)))
    loaded = load_checkpoint(first)
    assert loaded.vector.flags.writeable
    save_checkpoint(second, loaded)
    assert second.read_bytes() == first.read_bytes()


def test_checkpoint_rejects_an_unknown_activation(tmp_path):
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, net_init([3, 4, 2], RandomSource(8)))
    blob = path.read_bytes()
    assert blob[8:13] == b"\x04tanh"
    bad = tmp_path / "relu.ckpt"
    bad.write_bytes(blob[:9] + b"relu" + blob[13:])
    with pytest.raises(CheckpointError, match="unknown activation"):
        load_checkpoint(bad)
    # no command writes softplus any longer, so its files are refused alike
    bad.write_bytes(blob[:8] + bytes([8]) + b"softplus" + blob[13:])
    with pytest.raises(CheckpointError, match="unknown activation 'softplus'"):
        load_checkpoint(bad)
