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
from typing import Iterator

import numpy as np

from ..errors import CheckpointError, DivergenceError
from ..microworld import DomainSpec, Segment, domain_hash
from ..numerics import NetParams, RandomSource, clone_params, load_checkpoint, save_checkpoint
from .context import context_width, embed_condition
from .sampler import SamplerConfig, sample_group, sample_sde

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
    memory's context frame, never the instruction text, so the policy offers
    the loop engine's batched `generate_many`.
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

    def generate_many(self, step, memory, rng: RandomSource, n: int) -> Iterator[Segment]:
        """Lazily yield the n segments of n successive `generate` calls.

        Candidate j's z_init and noise are drawn in the order n sequential
        calls would draw them, and all n rows are sampled in one
        `sample_group` call on the first request. Before candidate j is
        yielded, `rng` is put where the sequential calls leave it after j+1
        candidates, so a caller may stop at any candidate. If the batch
        diverges, the candidates are generated one at a time instead, and
        only a candidate that diverges on its own raises.
        """
        if n < 1:
            return
        cond = embed_condition(self.spec, step, memory)
        latent, stochastic = self.config.latent_width, self.config.eta_scale > 0.0
        start = rng.tell()
        z_init = np.empty((n, latent))
        noise = np.empty((n, self.config.k_steps, latent)) if stochastic else None
        positions = []
        for j in range(n):
            z_init[j] = rng.normal(shape=latent)
            if stochastic:
                noise[j] = rng.normal(shape=(self.config.k_steps, latent))
            positions.append(rng.tell())
        try:
            rows = sample_group(self.theta, cond, z_init, self.config, noise)
        except DivergenceError:
            rows = None
        if rows is None:
            rng.seek(start)
            for _ in range(n):
                yield self.generate(step, memory, rng)
            return
        for (segment, _), position in zip(rows, positions):
            rng.seek(position)
            yield segment
