"""Curriculum training: plan a goal, roll out groups per step, update, advance.

One iteration = one episode walked under the frozen sampling policy. The
sampling policy is resynced to the live parameters at the top of every
iteration, and memory always advances with the highest-reward member of each
group, with no acceptance threshold at training time (the inference loop is
where the threshold lives).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..critic import DEFAULT_WEIGHTS, CriticWeights
from ..errors import LoopwmError, NoPlanError
from ..memory import WorldMemory
from ..microworld import DomainSpec
from ..numerics import NetParams, RandomSource, opt_init
from ..planner import Goal, PlanSequence, plan
from ..report import write_csv
from ..worldmodel import SamplerConfig
from .config import GrpoConfig, curriculum_schedule
from .rollout import rollout_group
from .update import grpo_update

__all__ = ["TrainingLog", "TrainingRecord", "train"]

# bounded goal resampling per iteration; a pool that cannot produce a plan
# within the curriculum level is a configuration problem, not a retry loop
_MAX_GOAL_TRIES = 64

CSV_HEADER = (
    "iteration",
    "mean_reward",
    "adherence_mean",
    "coherence_mean",
    "kl_mean",
    "clip_fraction",
    "curriculum_level",
)


@dataclass(frozen=True)
class TrainingRecord:
    iteration: int
    mean_reward: float
    adherence_mean: float
    coherence_mean: float
    kl_mean: float
    clip_fraction: float
    curriculum_level: int


@dataclass
class TrainingLog:
    """One record per completed iteration plus free-form events.

    Events name resampled goals, skipped updates and groups whose rewards all tie.
    """

    records: list[TrainingRecord] = field(default_factory=list)
    events: list[str] = field(default_factory=list)

    def rows(self) -> list[tuple]:
        return [
            (
                r.iteration,
                f"{r.mean_reward:.6f}",
                f"{r.adherence_mean:.6f}",
                f"{r.coherence_mean:.6f}",
                f"{r.kl_mean:.6f}",
                f"{r.clip_fraction:.6f}",
                r.curriculum_level,
            )
            for r in self.records
        ]

    def write_csv(self, path: str | Path) -> Path:
        return write_csv(path, CSV_HEADER, self.rows())


def _sample_goal(
    spec: DomainSpec,
    goals: list[Goal],
    level: int,
    rng: RandomSource,
    log: TrainingLog,
    iteration: int,
    plans: dict[int, PlanSequence | None],
) -> tuple[Goal, PlanSequence]:
    """Draw pool goals until one plans within `level` steps.

    `plans` memoizes the search's answer per pool index (None for no plan),
    so each goal is planned once per `train` call. Every draw consumes one
    random number, and every draw of an unplannable goal logs an event.
    """
    for _ in range(_MAX_GOAL_TRIES):
        index = rng.choice(len(goals))
        goal = goals[index]
        if index not in plans:
            try:
                plans[index] = plan(spec, goal, spec.initial_state())
            except NoPlanError:
                plans[index] = None
        sequence = plans[index]
        if sequence is None:
            log.events.append(f"iteration {iteration}: no plan for '{goal.text}', resampled")
            continue
        if 1 <= len(sequence.steps) <= level:
            return goal, sequence
    raise LoopwmError(
        f"no goal in the pool yields a plan of length 1..{level} "
        f"after {_MAX_GOAL_TRIES} draws (iteration {iteration})"
    )


def train(
    bundle,
    spec: DomainSpec,
    goals: list[Goal],
    sampler_config: SamplerConfig,
    grpo_config: GrpoConfig,
    rng: RandomSource,
    *,
    start_iteration: int = 1,
    weights: CriticWeights = DEFAULT_WEIGHTS,
) -> tuple[NetParams, TrainingLog]:
    """Run the configured number of iterations and return (theta, log).

    Each pool goal is planned at most once, by this module's `plan` (the
    search answers the same goal from the same state the same way); every
    group is scored by the programmatic critic under `weights`, and the
    objective recomputes each transition mean with the sampler's `delta`.
    Zero iterations returns the parameters untouched.

    `start_iteration` resumes numbering mid-schedule: records and the
    curriculum both use the global iteration count, and iterations before
    the start are simply not run (optimizer moments start fresh).
    """
    if start_iteration < 1:
        raise LoopwmError(f"start_iteration must be at least 1, got {start_iteration}")
    log = TrainingLog()
    if start_iteration > grpo_config.iterations:
        return bundle.theta, log
    if not goals:
        raise LoopwmError("goal pool is empty")
    opt_state = opt_init(bundle.theta)
    plans: dict[int, PlanSequence | None] = {}
    for iteration in range(start_iteration, grpo_config.iterations + 1):
        level = curriculum_schedule(grpo_config, iteration)
        goal, sequence = _sample_goal(spec, goals, level, rng, log, iteration, plans)
        bundle.sync_old()
        memory = WorldMemory.fresh(spec)
        rewards, adherence, coherence, kls, clips = [], [], [], [], []
        for step in sequence.steps:
            group = rollout_group(bundle.theta_old, spec, step, memory,
                                  sampler_config, grpo_config, rng, weights)
            _, opt_state, terms = grpo_update(bundle, group, grpo_config, opt_state,
                                              delta=sampler_config.delta)
            if terms.skipped:
                log.events.append(
                    f"iteration {iteration}: update skipped at step {step.sid} "
                    f"(all members dropped)"
                )
            else:
                kls.append(terms.kl)
                clips.append(terms.clip_fraction)
            if np.all(group.rewards == group.rewards[0]):
                log.events.append(
                    f"iteration {iteration}: all {group.rewards.size} rewards tie at step "
                    f"{step.sid}; update is KL-only"
                )
            rewards.extend(group.rewards.tolist())
            adherence.extend(group.scores["action_adherence"].tolist())
            coherence.extend(group.scores["temporal_coherence"].tolist())
            memory.advance(step, group.best_member().segment)
        log.records.append(
            TrainingRecord(
                iteration=iteration,
                mean_reward=float(np.mean(rewards)),
                adherence_mean=float(np.mean(adherence)),
                coherence_mean=float(np.mean(coherence)),
                kl_mean=float(np.mean(kls)) if kls else 0.0,
                clip_fraction=float(np.mean(clips)) if clips else 0.0,
                curriculum_level=level,
            )
        )
    return bundle.theta, log
