"""Curriculum training: plan a goal, roll out groups per step, update, advance.

One iteration = one episode walked under the frozen sampling policy. The
sampling policy is resynced to the live parameters at the top of every
iteration, and memory always advances with the highest-reward member of each
group, with no acceptance threshold at training time (the inference loop is
where the threshold lives).

Rollouts denoise at the train-time K, `rollout_k_steps` of the sampler's K
(`ROLLOUT_K_RULE`), after Flow-GRPO (arXiv:2505.05470), which trains at 10
of its 40 inference steps: every group and its objective cost scale with
that K, while evaluation (`bench`, `WorldModelPolicy`) keeps sampling at the
sampler's own K. The net is trained on continuous t, so one checkpoint
serves any K.
"""

from __future__ import annotations

import csv
import typing
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ..critic import DEFAULT_WEIGHTS, CriticWeights
from ..errors import LoopwmError, NoPlanError
from ..memory import WorldMemory
from ..microworld import DomainSpec
from ..numerics import NetParams, RandomSource, opt_init
from ..planner import Goal, PlanStep, plan
from ..report import write_csv
from ..worldmodel import SamplerConfig
from .config import GrpoConfig, curriculum_schedule
from .rollout import rollout_group
from .update import grpo_update

__all__ = ["ROLLOUT_K_RULE", "TrainingLog", "TrainingRecord", "rollout_k_steps", "train"]

@dataclass(frozen=True)
class TrainingRecord:
    """One iteration's means over its groups' members, one row of the training log.

    `mean_reward` is the critic reward of the training rollouts, sampled at
    the train-time K (`rollout_k_steps`), not at the sampler's K that bench
    samples at; it is not a bench figure, and coarser rollouts score lower
    (about 2% from 5 to 3 steps at --k-steps 10).
    """

    iteration: int
    mean_reward: float
    adherence_mean: float
    coherence_mean: float
    kl_mean: float
    clip_fraction: float
    curriculum_level: int


# the training log's columns: every field of a record, ints as they are and
# floats at 6 decimals
_COLUMNS = typing.get_type_hints(TrainingRecord)
CSV_HEADER = tuple(_COLUMNS)


@dataclass
class TrainingLog:
    """One record per completed iteration plus free-form events.

    Events name resampled goals, skipped updates and groups whose rewards all tie.
    """

    records: list[TrainingRecord] = field(default_factory=list)
    events: list[str] = field(default_factory=list)

    def rows(self) -> list[tuple]:
        return [tuple(f"{getattr(r, name):.6f}" if tp is float else getattr(r, name)
                      for name, tp in _COLUMNS.items()) for r in self.records]

    def write_csv(self, path: str | Path) -> Path:
        return write_csv(path, CSV_HEADER, self.rows())

    @classmethod
    def read_csv(cls, path: str | Path) -> "TrainingLog":
        """The records of a log `write_csv` wrote; a LoopwmError names a file of another form."""
        with Path(path).open(newline="") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != list(CSV_HEADER):
                raise LoopwmError(f"{path} is not a training log")
            try:
                return cls([TrainingRecord(*_fit(row)) for row in reader])
            except ValueError as exc:
                raise LoopwmError(f"{path} holds malformed rows: {exc}") from exc


def _fit(row: list[str]) -> list:
    """A csv row as a record's field values; a ValueError if it does not fit."""
    if len(row) != len(_COLUMNS):
        raise ValueError(f"{len(row)} fields in a row of {len(_COLUMNS)}")
    return [tp(value) for tp, value in zip(_COLUMNS.values(), row)]


# The one statement of `rollout_k_steps`' rule; the grpo help and the resume
# warning print it. Three steps is the measured floor: two Euler-Maruyama
# steps (dt = 0.5) lose the bench quality that three keep.
ROLLOUT_K_RULE = ("a quarter of --k-steps rounded up, at least 3 steps and at most "
                  "--k-steps, so --k-steps 4R rolls out at R steps for R >= 3")


def rollout_k_steps(k_steps: int) -> int:
    """Denoising steps of a GRPO rollout under a sampler of `k_steps` (`ROLLOUT_K_RULE`)."""
    return min(k_steps, max(3, (k_steps + 3) // 4))


def _plan_or_none(spec: DomainSpec, goal: Goal) -> tuple[PlanStep, ...] | None:
    try:
        return plan(spec, goal)
    except NoPlanError:
        return None


def _sample_goal(
    goals: list[Goal],
    plans: list[tuple[PlanStep, ...] | None],
    shortest: int | None,
    level: int,
    rng: RandomSource,
    log: TrainingLog,
    iteration: int,
) -> tuple[Goal, tuple[PlanStep, ...]]:
    """Draw pool goals until one plans within `level` steps.

    `plans` holds the planner's answer per pool index (None for no plan) and
    `shortest` the length of the pool's shortest nonempty plan (None when
    it has none). Every draw consumes one random number, and every draw of
    an unplannable goal logs an event. A level below `shortest` is an
    error; at any other level the pool is drawn from until a goal fits,
    however few fit.
    """
    if shortest is None or level < shortest:
        raise LoopwmError(
            f"no goal in the pool yields a plan of length 1..{level} (iteration {iteration})"
        )
    while True:
        index = rng.choice(len(goals))
        steps = plans[index]
        if steps is None:
            log.events.append(
                f"iteration {iteration}: no plan for '{goals[index].text}', resampled")
        elif 1 <= len(steps) <= level:
            return goals[index], steps


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

    Each pool goal is planned once, up front, by this module's `plan` (it
    reads the domain's fixed plan graph, so a goal's plan never changes); every
    group is scored by the programmatic critic under `weights`.
    Groups are rolled out with `sampler_config` at the train-time K,
    `rollout_k_steps(sampler_config.k_steps)`; nothing else of the sampler
    changes. Zero iterations returns the parameters untouched.

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
    rollout_config = replace(sampler_config, k_steps=rollout_k_steps(sampler_config.k_steps))
    opt_state = opt_init(bundle.theta)
    plans = [_plan_or_none(spec, goal) for goal in goals]
    shortest = min((len(p) for p in plans if p), default=None)
    for iteration in range(start_iteration, grpo_config.iterations + 1):
        level = curriculum_schedule(grpo_config, iteration)
        goal, steps = _sample_goal(goals, plans, shortest, level, rng, log, iteration)
        bundle.sync_old()
        memory = WorldMemory.fresh(spec)
        rewards, adherence, coherence, kls, clips = [], [], [], [], []
        for step in steps:
            group = rollout_group(bundle.theta_old, spec, step, memory,
                                  rollout_config, grpo_config, rng, weights)
            _, opt_state, terms = grpo_update(bundle, group, grpo_config, opt_state)
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
            memory.advance(step, group.best_segment())
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
