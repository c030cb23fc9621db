"""Parameter bundle, checkpoint sidecar, and the segment-generating policy.

`WorldModelPolicy.fulfil` serves a lockstep round of the loop engine's
requests: one block draw per request, one `sample_rows` batch per round.

The sidecar manifest pins only what the weights depend on: its `format`,
the `domain_hash` and `n_frames`. The domain fixes the frame and context
widths, so its hash pins the net's widths given the frame count. The
velocity net is trained on continuous t, so any `k_steps` and `eta_scale`
can sample from any checkpoint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ..errors import CheckpointError, DivergenceError, LoopwmError
from ..microworld import DomainSpec, domain_hash
from ..numerics import NetParams, clone_params, load_checkpoint, save_checkpoint
from .context import embed_condition
from .sampler import SamplerConfig, sample_rows

MANIFEST_FORMAT = "loopwm-policy-v1"


@dataclass
class PolicyBundle:
    """The three parameter sets optimization juggles.

    ``theta`` is the live policy, ``theta_old`` the sampling snapshot synced
    at the start of each iteration, and ``reference`` the frozen supervised
    checkpoint the KL term pulls toward.
    """

    theta: NetParams
    theta_old: NetParams
    reference: NetParams

    def __post_init__(self):
        if not (self.theta.sizes == self.theta_old.sizes == self.reference.sizes):
            raise CheckpointError("bundle parameter sets must share one architecture")
        if any(np.shares_memory(self.theta_old.vector, other.vector)
               for other in (self.theta, self.reference)):
            raise LoopwmError("theta_old must own its parameters: sync_old writes into them")

    @classmethod
    def from_reference(cls, reference: NetParams) -> "PolicyBundle":
        return cls(theta=clone_params(reference), theta_old=clone_params(reference),
                   reference=reference)

    def sync_old(self) -> None:
        """theta_old <- theta, copied into theta_old's own vector between iterations."""
        np.copyto(self.theta_old.vector, self.theta.vector)


def _manifest_path(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def policy_manifest(spec: DomainSpec, config: SamplerConfig) -> dict:
    return {
        "format": MANIFEST_FORMAT,
        "domain_hash": domain_hash(spec),
        "n_frames": config.n_frames,
    }


def save_policy(path: str | Path, theta: NetParams, spec: DomainSpec,
                config: SamplerConfig) -> None:
    """Write the parameter checkpoint plus a JSON sidecar describing its world."""
    path = Path(path)
    save_checkpoint(path, theta)
    sidecar = _manifest_path(path)
    sidecar.write_text(json.dumps(policy_manifest(spec, config), indent=2, sort_keys=True))


def load_policy(path: str | Path, spec: DomainSpec, config: SamplerConfig) -> NetParams:
    """Load a checkpoint, refusing when the sidecar disagrees with (spec, config)."""
    path = Path(path)
    sidecar = _manifest_path(path)
    if not sidecar.exists():
        raise CheckpointError(f"missing policy manifest {sidecar}")
    try:
        manifest = json.loads(sidecar.read_text())
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"unreadable policy manifest {sidecar}: {exc}") from exc
    expected = policy_manifest(spec, config)
    # older sidecars also carry sampling settings and the frame and context
    # widths; only the expected keys count
    mismatched = [key for key in expected if manifest.get(key) != expected[key]]
    if mismatched:
        detail = ", ".join(
            f"{k}: checkpoint {manifest.get(k)!r} vs requested {expected[k]!r}"
            for k in mismatched
        )
        raise CheckpointError(f"policy manifest mismatch ({detail})")
    return load_checkpoint(path)


class WorldModelPolicy:
    """Generates segments by denoising noise conditioned on (step, memory).

    The condition reads the step's operator, channel mask and sid and the
    memory's context frame, never the instruction text, so the policy serves
    a whole round of the loop engine's requests in one batch (`fulfil`).
    """

    def __init__(self, theta: NetParams, spec: DomainSpec, config: SamplerConfig):
        self.theta = theta
        self.spec = spec
        self.config = config

    def fulfil(self, requests) -> list[Callable]:
        """Serve every request's candidates with one `sample_rows` call.

        Each request draws its n candidates from its own stream in one
        block, `rng.normal(shape=(n, 1 + K, L))`: row j's z_init is
        `block[j, 0]` and its noise `block[j, 1:]`. At eta_scale 0 the block
        is (n, L), the z_inits alone. Each row is sampled under its own
        request's condition, and a request's draw, called with no
        arguments, hands out its candidates in turn. The round's conditions
        are stacked once and repeated to one row per candidate, and the
        segments are views of one array of the round's final frames
        (`sample_rows`). A request whose condition cannot be built draws
        nothing and fails at its first candidate; a row that diverges fails
        at its own candidate, naming its request's step; neither touches the
        other requests.
        """
        latent, k_steps = self.theta.sizes[-1], self.config.k_steps
        stochastic = self.config.eta_scale > 0.0
        conds, blocks, served = [], [], []
        for request in requests:
            try:
                conds.append(embed_condition(self.spec, request.step, request.memory))
            except LoopwmError as exc:
                served.append((exc, 0))
                continue
            shape = (request.n, 1 + k_steps, latent) if stochastic else (request.n, latent)
            blocks.append(request.rng.normal(shape=shape))
            served.append((None, request.n))
        segments = []
        if blocks:
            block = np.concatenate(blocks)
            z_init, noise = (block[:, 0], block[:, 1:]) if stochastic else (block, None)
            rows = np.repeat(np.stack(conds), [len(b) for b in blocks], axis=0)
            segments = sample_rows(self.theta, rows, z_init, self.config, noise)
        draws, first = [], 0
        for request, (failure, n) in zip(requests, served):
            draws.append(_draw(iter(segments[first:first + n]), failure, request.step.sid))
            first += n
        return draws


def _draw(segments, failure: LoopwmError | None, sid: int):
    """Hand out one request's segments, finite (F, C) frames, in turn."""

    def draw() -> np.ndarray:
        if failure is not None:
            raise failure
        frames = next(segments)
        if frames is None:
            raise DivergenceError(f"sampler state of step {sid} went non-finite")
        return frames

    return draw
