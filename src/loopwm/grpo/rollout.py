"""Shared-noise group rollouts and group-wise advantage normalization.

Every member of a group denoises from the same initial latent; members differ
only through the Wiener increments of their reverse-SDE paths. Sharing the
initial noise keeps the group comparable so that reward differences reflect
the stochastic paths rather than the starting point.

A group is one set of arrays from the sampler to the update: member i is row
i of each. The group is sampled in one `sample_group` call, which returns
the (G, F, C) frames and the (G, K) transitions the objective reads. The
critic's core scores the frames in one `score_group` call, and the group
keeps its five score columns and its (G,) rewards and advantages. No report
is built and nothing is copied per member: `members` hands out each
member's row as views, its (F, C) frames and its (K,) transitions, and
`best_segment` is the best member's frames, the one row the training loop
carries on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..critic import DEFAULT_WEIGHTS, CriticWeights, GroupScores, score_group
from ..errors import LoopwmError
from ..memory import WorldMemory
from ..microworld import DomainSpec
from ..numerics import NetParams, RandomSource
from ..planner import PlanStep
from ..worldmodel import SamplerConfig, Transitions, embed_condition, sample_group
from .config import GrpoConfig

__all__ = [
    "GroupMember",
    "RolloutGroup",
    "compute_advantages",
    "group_rewards",
    "rollout_group",
]


@dataclass(frozen=True)
class RolloutGroup:
    """One shared-noise group as arrays, member i at row i of each.

    `frames` is (G, F, C), `trace` the (G, K) transitions, `scores` the
    critic's (G,) column per dimension, and `rewards` and `advantages` (G,).
    """

    frames: np.ndarray
    trace: Transitions
    scores: dict[str, np.ndarray]
    rewards: np.ndarray
    advantages: np.ndarray

    @property
    def members(self) -> tuple[GroupMember, ...]:
        return tuple(GroupMember(self, i) for i in range(self.rewards.size))

    def best_segment(self) -> np.ndarray:
        """The (F, C) frames of the member with the highest reward (first on ties), a view."""
        return self.members[int(np.argmax(self.rewards))].frames


@dataclass(frozen=True)
class GroupMember:
    """Member `index` of a group: views of its row, made when read."""

    group: RolloutGroup
    index: int

    @property
    def frames(self) -> np.ndarray:
        return self.group.frames[self.index]

    @property
    def trace(self) -> Transitions:
        return self.group.trace.row(self.index)


def compute_advantages(rewards, delta: float = 1e-8) -> np.ndarray:
    """Group-normalized advantages A_i = (r_i - mean) / (population std + delta)."""
    rewards = np.asarray(rewards, dtype=np.float64)
    if rewards.ndim != 1 or rewards.size < 2:
        raise LoopwmError(f"advantages need at least two rewards, got shape {rewards.shape}")
    if delta <= 0.0:
        raise LoopwmError(f"delta must be positive, got {delta}")
    std = float(rewards.std())
    return (rewards - rewards.mean()) / (std + delta)


def group_rewards(scored: GroupScores, config: GrpoConfig) -> np.ndarray:
    """The (G,) rewards: the critic scalar, or one named dimension's column."""
    if config.reward_dimension is None:
        return scored.scalar
    return scored.scores[config.reward_dimension]


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
    scores the G segments in one `score_group` call, `group_rewards` picks
    the reward column, and the rewards are normalized with
    `grpo_config.delta`.
    """
    if sampler_config.eta_scale <= 0.0:
        raise LoopwmError(
            "group rollouts need eta_scale > 0; with a deterministic sampler "
            "all members would coincide and there is nothing to rank"
        )
    cond = embed_condition(spec, step, memory)
    latent = theta_old.sizes[-1]
    z_init = np.asarray(rng.normal(shape=latent), dtype=np.float64)
    noise = np.asarray(rng.normal(shape=(grpo_config.group_size, sampler_config.k_steps, latent)))
    frames, trace = sample_group(theta_old, cond, z_init, sampler_config, noise)
    scored = score_group(spec, frames, step, weights)
    rewards = group_rewards(scored, grpo_config)
    return RolloutGroup(frames, trace, scored.scores, rewards,
                        compute_advantages(rewards, grpo_config.delta))
