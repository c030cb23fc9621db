"""Supervised flow-matching training and the bundled demonstration generator.

The regression target follows the rectified-flow convention: for a clean
segment x, noise eps, and t ~ Uniform(0,1], the latent is
z_t = (1-t)*x + t*eps and the velocity target is eps - x.
"""

from __future__ import annotations

import numpy as np

from ..errors import DivergenceError, LoopwmError
from ..memory import WorldMemory
from ..microworld import DomainSpec, reference_segment
from ..numerics import (
    DTYPE,
    NetParams,
    RandomSource,
    net_activations,
    net_backward_batch,
    opt_init,
    opt_step,
    require_finite,
)
from ..planner import PlanStep
from .context import context_width, embed_condition
from .sampler import SamplerConfig

# the longest demonstration walk, in operator steps
MAX_WALK = 6


def velocity_net_sizes(spec: DomainSpec, config: SamplerConfig, hidden: int = 64,
                       depth: int = 3) -> list[int]:
    """Layer sizes for a velocity net over (z, t, cond) on this domain."""
    latent = config.n_frames * spec.n_channels
    return [latent + 1 + context_width(spec)] + [hidden] * depth + [latent]


def sft_train(theta: NetParams, dataset: list[tuple[np.ndarray, np.ndarray]], epochs: int,
              lr: float, rng: RandomSource, batch_size: int = 16) -> tuple[NetParams, list[float]]:
    """Minibatch Adam on the flow-matching objective, updating `theta` in place.

    `dataset` holds (condition, frames) pairs. The inputs are validated
    once, at entry: every condition and segment must be finite, and their
    widths must fit the net. Each batch then runs one
    unchecked forward and one unchecked backward; a non-finite batch loss,
    which a diverging net produces, raises DivergenceError before its
    backward and its step. The demos are cast to `DTYPE` once, here, and
    each batch's (t, eps) draws are float64 draws cast to it, so the
    forward, the backward and the step run in `DTYPE`; only the batch loss
    is summed in float64.

    Returns (theta, per-epoch mean training loss), where theta is the object
    passed in.  Zero epochs leave the parameters untouched.
    """
    if not dataset:
        raise LoopwmError("sft_train requires a non-empty dataset")
    conds = np.stack([c for c, _ in dataset], dtype=DTYPE)
    xs = np.stack([frames.reshape(-1) for _, frames in dataset], dtype=DTYPE)
    require_finite(conds, "demo conditions")
    require_finite(xs, "demo segments")
    n, latent = xs.shape
    width = latent + 1 + conds.shape[-1]
    if conds.ndim != 2 or theta.sizes[0] != width or theta.sizes[-1] != latent:
        raise LoopwmError(f"demos of latent width {latent} under conditions of shape "
                          f"{conds.shape[1:]} do not fit a net of sizes {theta.sizes}")
    # net input rows [z | t | cond]; the condition columns never change
    inputs = np.empty((n, width), dtype=DTYPE)
    inputs[:, latent + 1:] = conds
    state = opt_init(theta)
    history: list[float] = []
    for _ in range(epochs):
        order = list(range(n))
        rng.shuffle(order)
        order = np.array(order)
        epoch_losses = []
        for lo in range(0, n, batch_size):
            idx = order[lo:lo + batch_size]
            # float64 draws cast once, so the batch is DTYPE throughout
            ts = (1.0 - rng.uniform(shape=len(idx))).astype(DTYPE)  # uniform on (0, 1]
            eps = rng.normal(shape=(len(idx), latent)).astype(DTYPE)
            x, t = xs[idx], ts[:, None]
            # the batch's rows, their latents z_t = (1-t)*x + t*eps written in place
            rows = inputs[idx]
            z = np.multiply(1.0 - t, x, out=rows[:, :latent])
            z += t * eps
            rows[:, latent] = ts
            # one forward; its (batch, width) layer outputs are transposed views
            # of feature-major blocks, which the backward copies row-major once
            acts = net_activations(theta, rows)
            # mean squared velocity error, then, in place, its gradient w.r.t.
            # the output; resid is a new row-major array
            resid = acts[-1] - (eps - x)
            loss = float(np.add.reduce(resid * resid, axis=None, dtype=np.float64)
                         / resid.size)
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite flow-matching loss {loss}")
            resid *= 2.0
            resid /= resid.size
            net_backward_batch(theta, acts, resid, out=state.grad)
            opt_step(theta, state.grad.vector, state, lr=lr)
            epoch_losses.append(loss)
        history.append(float(np.mean(epoch_losses)))
    return theta, history


def build_demos(spec: DomainSpec, n_demos: int, rng: RandomSource, n_frames: int = 16,
                jitter: float = 0.005) -> list[tuple[np.ndarray, np.ndarray]]:
    """Generate (condition, frames) pairs from random operator walks.

    Each walk starts at the domain's initial state and applies 1 to
    `MAX_WALK` random applicable operators; segments come from the reference
    generator and the memory is advanced exactly as the loop would, so
    conditioning frames chain realistically.
    """
    demos: list[tuple[np.ndarray, np.ndarray]] = []
    while len(demos) < n_demos:
        memory = WorldMemory.fresh(spec)
        walk_len = int(rng.integers(1, MAX_WALK + 1))
        for sid in range(1, walk_len + 1):
            applicable = [i for i, op in enumerate(spec.operators)
                          if spec.holds(memory.state, op.pre)]
            if not applicable:
                break
            step = PlanStep(sid, applicable[int(rng.integers(0, len(applicable)))])
            frames = reference_segment(spec, memory.state, step.op,
                                       n_frames=n_frames, rng=rng, jitter=jitter)
            cond = embed_condition(spec, step, memory)
            demos.append((cond, frames))
            memory.advance(step, frames)
            if len(demos) >= n_demos:
                break
    return demos
