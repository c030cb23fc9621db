"""Parameter bundle, checkpoint sidecar, and the segment-generating policy.

The sidecar manifest pins only what the weights depend on: the domain hash
and the net's input and output widths (`n_frames`, `frame_width`,
`context_width`). The velocity net is trained on continuous t, so any
`k_steps`, `eta_scale` and `delta` can sample from any checkpoint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ..errors import CheckpointError, DivergenceError, LoopwmError
from ..microworld import DomainSpec, Segment, domain_hash
from ..numerics import NetParams, RandomSource, clone_params, load_checkpoint, save_checkpoint
from .context import context_width, embed_condition
from .sampler import SamplerConfig, sample_rows, sample_sde

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

    @classmethod
    def from_reference(cls, reference: NetParams) -> "PolicyBundle":
        return cls(theta=clone_params(reference), theta_old=clone_params(reference),
                   reference=reference)

    def sync_old(self) -> None:
        """theta_old <- theta (atomic snapshot swap between iterations)."""
        self.theta_old = clone_params(self.theta)


def _manifest_path(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def policy_manifest(spec: DomainSpec, config: SamplerConfig) -> dict:
    return {
        "format": MANIFEST_FORMAT,
        "domain_hash": domain_hash(spec),
        "n_frames": config.n_frames,
        "frame_width": config.frame_width,
        "context_width": context_width(spec),
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
    # older sidecars also carry sampling settings; only the expected keys count
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
    the loop engine's requests in batches through `fulfil`.
    """

    def __init__(self, theta: NetParams, spec: DomainSpec, config: SamplerConfig):
        self.theta = theta
        self.spec = spec
        self.config = config

    def generate(self, step, memory, rng: RandomSource) -> Segment:
        """One segment: draws z_init, then the path's (K, L) noise, from `rng`."""
        cond = embed_condition(self.spec, step, memory)
        z_init = np.asarray(rng.normal(shape=self.config.latent_width), dtype=np.float64)
        segment, _ = sample_sde(self.theta, cond, z_init, self.config, rng)
        return segment

    def fulfil(self, requests) -> list[Callable]:
        """Serve every request's candidates with one `sample_rows` call.

        Each request's z_init and (K, L) noise are drawn from its own stream
        in the order its n `generate` calls would draw them, and each of its
        rows is sampled under its own condition. Its draw hands out the
        candidates in turn and, before candidate j, puts the stream where j+1
        `generate` calls leave it. A request whose condition cannot be built
        draws nothing and fails at its first candidate; a row that diverges
        fails at its own candidate; neither touches the other requests.
        """
        latent, k_steps = self.config.latent_width, self.config.k_steps
        stochastic = self.config.eta_scale > 0.0
        total = sum(request.n for request in requests)
        cond = np.empty((total, context_width(self.spec)))
        z_init = np.empty((total, latent))
        noise = np.empty((total, k_steps, latent)) if stochastic else None
        served, row = [], 0
        for request in requests:
            try:
                request_cond = embed_condition(self.spec, request.step, request.memory)
            except LoopwmError as exc:
                served.append((exc, []))
                continue
            positions = []
            for _ in range(request.n):
                cond[row] = request_cond
                z_init[row] = request.rng.normal(shape=latent)
                if stochastic:
                    noise[row] = request.rng.normal(shape=(k_steps, latent))
                positions.append(request.rng.tell())
                row += 1
            served.append((None, positions))
        segments = []
        if row:
            segments = sample_rows(self.theta, cond[:row], z_init[:row], self.config,
                                   None if noise is None else noise[:row])
        draws, first = [], 0
        for request, (failure, positions) in zip(requests, served):
            last = first + len(positions)
            draws.append(_draw(request.rng, segments[first:last], positions, failure))
            first = last
        return draws


def _draw(rng: RandomSource, segments: list, positions: list, failure: LoopwmError | None):
    """Hand out one request's segments in turn, each from its stream position."""
    candidates = iter(zip(segments, positions))

    def draw(step) -> Segment:
        if failure is not None:
            raise failure
        segment, position = next(candidates)
        rng.seek(position)
        if segment is None:
            raise DivergenceError(f"sampler state of step {step.sid} went non-finite")
        return segment

    return draw
