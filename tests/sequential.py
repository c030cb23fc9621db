"""Sequential references that the lockstep and batched paths are tested against.

The package serves segments only in lockstep rounds (`run_suite` calls one
`fulfil` per round) and samples rows only in batches (`sample_group`,
`sample_rows`). These are the one-at-a-time versions of the same contracts:

- `run_episode` drives one `episode` by itself, serving each request as it
  comes and scoring each critique in a one-row call of its `rows` scorer
  (`evaluate_rows` unless a test passes another), as `run_suite` scores a
  pass;
- `SequentialPolicy` serves a `WorldModelPolicy`'s requests one at a time:
  the same block draw per request, then one `sample_one` call per
  candidate taken;
- `sample_one` is the one-row `sample_group` call, and `sample_sde` and
  `sample_ode` are that call drawing the path's noise from one stream, or
  none;
- `GeneratePolicy` turns a `generate(step, memory, rng)` method into a
  policy, one call for the request's step per candidate taken, and
  `FrozenPolicy` is one.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from loopwm.critic import DEFAULT_WEIGHTS, evaluate_rows
from loopwm.errors import LoopwmError
from loopwm.loop import Critique, LoopConfig, episode
from loopwm.worldmodel import embed_condition, sample_group


def run_episode(spec, goal, policy, config=None, rng=None, rows=evaluate_rows):
    """Drive one `episode` by itself.

    `rows` scores each critique as `rows(spec, frames, steps, weights, tau)`,
    at the default weights and the loop's tau.
    """
    config = config or LoopConfig()
    running = episode(spec, goal, config, rng)
    try:
        wanted = next(running)
        while True:
            if isinstance(wanted, Critique):
                (answer,) = rows(spec, [wanted.frames], [wanted.step],
                                 DEFAULT_WEIGHTS, config.tau)
            else:
                (answer,) = policy.fulfil([wanted])
            wanted = running.send(answer)
    except StopIteration as done:
        return done.value


def sample_one(theta, cond, z_init, config, noise):
    """The one-row `sample_group` call: (the row's (F, C) frames, its (K,) transitions)."""
    frames, trace = sample_group(theta, cond, z_init, config, noise)
    return frames[0], trace.row(0)


def sample_sde(theta, cond, z_init, config, rng):
    """One stochastic path: its (1, K, L) noise drawn from `rng`, none at eta_scale 0."""
    noise = None
    if config.eta_scale > 0.0:
        noise = rng.normal(shape=(1, config.k_steps, theta.sizes[-1]))
    return sample_one(theta, cond, z_init, config, noise)


def sample_ode(theta, cond, z_init, config):
    """Deterministic Euler integration of dz = u dt from t=1 to t=0."""
    frames, _ = sample_one(theta, cond, z_init, replace(config, eta_scale=0.0), None)
    return frames


def block_draw(config, latent, rng, n):
    """A request's draw for n candidates: (n, 1 + K, L), or (n, L) at eta_scale 0."""
    if config.eta_scale > 0.0:
        return rng.normal(shape=(n, 1 + config.k_steps, latent))
    return rng.normal(shape=(n, latent))


class SequentialPolicy:
    """A `WorldModelPolicy` serving one request, and one candidate, at a time."""

    def __init__(self, policy):
        self.policy = policy

    def fulfil(self, requests):
        return [self.serve(request) for request in requests]

    def serve(self, request):
        theta, spec, config = self.policy.theta, self.policy.spec, self.policy.config
        try:
            cond = embed_condition(spec, request.step, request.memory)
        except LoopwmError as exc:
            failure = exc

            def refuse():
                raise failure

            return refuse
        rows = iter(block_draw(config, theta.sizes[-1], request.rng, request.n))

        def draw():
            row = next(rows)
            if config.eta_scale > 0.0:
                return sample_one(theta, cond, row[0], config, row[None, 1:])[0]
            return sample_one(theta, cond, row, config, None)[0]

        return draw


class GeneratePolicy:
    """A policy from its `generate(step, memory, rng)`: one call per candidate taken."""

    def fulfil(self, requests):
        return [lambda r=r: self.generate(r.step, r.memory, r.rng) for r in requests]


class FrozenPolicy(GeneratePolicy):
    """Adversarial stub: repeats the current conditioning frame F times.

    Preconditions hold at frame 0 but nothing ever changes, so post literals
    stay unmet and the critic rejects every attempt.
    """

    def __init__(self, spec, n_frames=16):
        self.spec = spec
        self.n_frames = n_frames

    def generate(self, step, memory, rng):
        return np.tile(memory.frame, (self.n_frames, 1))
