"""Shared-noise group rollouts and group-wise advantage normalization.

Every member of a group denoises from the same initial latent; members differ
only through the Wiener increments of their reverse-SDE paths. Sharing the
initial noise keeps the group comparable so that reward differences reflect
the stochastic paths rather than the starting point. The group is sampled in
one `sample_group` call: member i is row i, with its own row of noise, and
its trace is row i of the sampler's (G, K) record array. The critic then
scores the group in one `evaluate_rows` call, whose rows all share the step,
so the G segments go through one vectorized pass.

A group is its members plus their group-normalized advantages, nothing more:
each member's trace carries its own condition (`trace.cond`) and its start
(the first transition's `z`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..critic import DEFAULT_WEIGHTS, CriticReport, CriticWeights, evaluate_rows
from ..errors import LoopwmError
from ..memory import WorldMemory
from ..microworld import DomainSpec, Segment
from ..numerics import NetParams, RandomSource
from ..planner import PlanStep
from ..worldmodel import DenoiseTrace, SamplerConfig, embed_condition, sample_group
from .config import GrpoConfig

__all__ = [
    "GroupMember",
    "RolloutGroup",
    "compute_advantages",
    "member_reward",
    "rollout_group",
]


@dataclass(frozen=True)
class GroupMember:
    segment: Segment
    trace: DenoiseTrace
    report: CriticReport
    reward: float


@dataclass(frozen=True)
class RolloutGroup:
    """One shared-noise group: the members and their advantages, in member order."""

    members: tuple[GroupMember, ...]
    advantages: np.ndarray

    @property
    def rewards(self) -> np.ndarray:
        return np.array([m.reward for m in self.members], dtype=np.float64)

    def best_member(self) -> GroupMember:
        """Member with the highest reward (first on ties)."""
        index = int(np.argmax(self.rewards))
        return self.members[index]


def compute_advantages(rewards, delta: float = 1e-8) -> np.ndarray:
    """Group-normalized advantages A_i = (r_i - mean) / (population std + delta)."""
    rewards = np.asarray(rewards, dtype=np.float64)
    if rewards.ndim != 1 or rewards.size < 2:
        raise LoopwmError(f"advantages need at least two rewards, got shape {rewards.shape}")
    if delta <= 0.0:
        raise LoopwmError(f"delta must be positive, got {delta}")
    std = float(rewards.std())
    return (rewards - rewards.mean()) / (std + delta)


def member_reward(report: CriticReport, config: GrpoConfig) -> float:
    """Scalar reward for one rollout: the critic scalar, or one named dimension."""
    if config.reward_dimension is None:
        return float(report.scalar)
    return float(report.scores[config.reward_dimension])


def rollout_group(
    theta_old: NetParams,
    spec: DomainSpec,
    step: PlanStep,
    memory: WorldMemory,
    sampler_config: SamplerConfig,
    grpo_config: GrpoConfig,
    rng: RandomSource,
    weights: CriticWeights = DEFAULT_WEIGHTS,
) -> RolloutGroup:
    """Sample G segments from one shared z_init under the frozen sampling policy.

    Row contract: the G members share `cond` and `z_init` (drawn from `rng`)
    and are sampled together, one (G, width) network evaluation per denoise
    step; member i's (K, L) noise is row i of one (G, K, L) draw from `rng`
    after `z_init`, so every group gets fresh noise. The programmatic critic
    scores the G segments in one `evaluate_rows` call, `member_reward`
    turns each member's report into its reward, and the rewards are
    normalized with `grpo_config.delta`.
    """
    if sampler_config.eta_scale <= 0.0:
        raise LoopwmError(
            "group rollouts need eta_scale > 0; with a deterministic sampler "
            "all members would coincide and there is nothing to rank"
        )
    cond = embed_condition(spec, step, memory)
    z_init = np.asarray(rng.normal(shape=sampler_config.latent_width), dtype=np.float64)
    noise = np.asarray(rng.normal(shape=(grpo_config.group_size, sampler_config.k_steps,
                                         sampler_config.latent_width)))
    samples = sample_group(theta_old, cond, z_init, sampler_config, noise)
    reports = evaluate_rows(spec, [segment.frames for segment, _ in samples],
                            [step] * len(samples), weights)
    members = tuple(
        GroupMember(segment=segment, trace=trace, report=report,
                    reward=member_reward(report, grpo_config))
        for (segment, trace), report in zip(samples, reports)
    )
    rewards = [m.reward for m in members]
    return RolloutGroup(members, compute_advantages(rewards, grpo_config.delta))
