"""Closed-loop episode driver: plan, generate, critique, retry.

Control flow per step: generate a segment, score it, accept into memory at
scalar >= tau. A rejection triggers the inner loop (the same step with
fresh noise, up to k_retries). When the retries run out, the outer loop
starts the same step again: a fresh first try plus k_retries more, at most
max_outer_replans times per episode, each time recording the best report's
tags. The plan is fixed at the start: memory advances by applying each
accepted step's operator, so a failed step's preconditions still hold and
the plan from the initial state stays the plan. An episode therefore makes
at most (plan length + max_outer_replans) * (1 + k_retries) attempts.

An episode is one generator, `episode`, that plans once from the domain's
plan graph (`plan`) and calls neither the policy nor the critic.
Where it needs segments it yields a `Request` for n candidates of one
(step, memory) from its own stream: n = 1 for a step's first try, and
n = k_retries for `inner_refine`. It is resumed with a draw, which it calls
once per candidate it takes; a draw returns a segment's (F, C) frames,
finite because the policy makes them so (see `Policy`). Where it needs a
score it yields a `Critique(frames, step)` and is resumed with the critic's
report. The episode log keeps each attempt and each outer pass; the
critic's tags are its whole failure record.

A policy's `fulfil(requests)` turns a list of requests into their draws
(see `Policy`). `bench.metrics.run_suite` drives the episodes of a suite in
lockstep, one `fulfil` call per round for every pending request, then one
`evaluate_rows` call per pass for every pending critique.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator

import numpy as np

from ..critic import CriticReport
from ..errors import LoopwmError
from ..memory import WorldMemory
from ..microworld import DomainSpec
from ..numerics import RandomSource
from ..planner import Goal, PlanStep, plan

STATUS_SUCCESS = "success"
STATUS_PLAN_FAILURE = "plan-failure"


@dataclass(frozen=True)
class LoopConfig:
    tau: float = 0.7
    k_retries: int = 3
    max_outer_replans: int = 2

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise LoopwmError(f"tau must lie in (0, 1), got {self.tau}")
        if self.k_retries < 0 or self.max_outer_replans < 0:
            raise LoopwmError("retry and replan budgets must be >= 0")


@dataclass(frozen=True)
class AttemptRecord:
    sid: int
    attempt: int  # 0 = first generation, 1..k = inner retries
    report: CriticReport
    accepted: bool
    # the scored segment's frames; kept for metrics, left out of the episode log
    frames: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class ReplanEvent:
    """One outer pass: the step started again and its best report's tags."""

    at_sid: int
    tags: tuple[str, ...]


@dataclass
class EpisodeLog:
    """What one episode did."""

    goal: Goal
    status: str = "in-progress"
    attempts: list[AttemptRecord] = field(default_factory=list)
    replans: list[ReplanEvent] = field(default_factory=list)
    plan_length: int = 0

    @property
    def succeeded(self) -> bool:
        return self.status == STATUS_SUCCESS


@dataclass(frozen=True)
class Request:
    """n candidate segments for (step, memory), drawn from one episode's stream."""

    step: PlanStep
    memory: WorldMemory
    rng: RandomSource
    n: int


@dataclass(frozen=True)
class Critique:
    """A score wanted for one segment's (F, C) frames under the step they were made for."""

    frames: np.ndarray
    step: PlanStep


# called once per candidate taken; returns its (F, C) frames
Draw = Callable[[], np.ndarray]
Episode = Generator[Request | Critique, Draw | CriticReport, EpisodeLog]


def inner_refine(step: PlanStep, report: CriticReport, memory: WorldMemory,
                 config: LoopConfig, rng: RandomSource
                 ) -> Generator[Request | Critique, Draw | CriticReport,
                                tuple[np.ndarray | None, CriticReport, list[AttemptRecord]]]:
    """Retry a rejected step with fresh noise.

    Returns (accepted frames or None, best report seen, attempt records).
    With k_retries = 0 it fails at once without generating. Otherwise it
    yields one request for k_retries candidates, takes them in turn and
    yields a `Critique` for each candidate it takes.
    """
    best = report
    records: list[AttemptRecord] = []
    if config.k_retries < 1:
        return None, best, records
    draw = yield Request(step, memory, rng, config.k_retries)
    for attempt in range(1, config.k_retries + 1):
        frames = draw()
        current = yield Critique(frames, step)
        accepted = current.scalar >= config.tau
        records.append(AttemptRecord(step.sid, attempt, current, accepted, frames))
        if current.scalar > best.scalar:
            best = current
        if accepted:
            return frames, current, records
    return None, best, records


def episode(spec: DomainSpec, goal: Goal, config: LoopConfig | None = None,
            rng: RandomSource | None = None) -> Episode:
    """One closed-loop episode, run to success or plan failure.

    Yields a `Request` wherever it needs segments and expects the request's
    draw back, and a `Critique` wherever it needs a score and expects the
    report back; returns the `EpisodeLog`. It plans once with this module's
    `plan`, looked up when called; an unsolvable goal raises NoPlanError up
    front. A step whose retries run out is started again while outer passes
    remain, and otherwise ends the episode as a plan failure.
    """
    config = config or LoopConfig()
    rng = rng or RandomSource(0)

    steps = plan(spec, goal)
    memory = WorldMemory.fresh(spec)
    log = EpisodeLog(goal=goal, plan_length=len(steps))

    i = 0
    while i < len(steps):
        step = steps[i]
        draw = yield Request(step, memory, rng, 1)
        frames = draw()
        report = yield Critique(frames, step)
        accepted = report.scalar >= config.tau
        log.attempts.append(AttemptRecord(step.sid, 0, report, accepted, frames))
        if not accepted:
            frames, best, records = yield from inner_refine(step, report, memory, config,
                                                            rng)
            log.attempts.extend(records)
            if frames is None:
                if len(log.replans) >= config.max_outer_replans:
                    log.status = STATUS_PLAN_FAILURE
                    return log
                log.replans.append(ReplanEvent(step.sid, best.tags))
                continue
        memory.advance(step, frames)
        i += 1

    # memory applies the plan's operators, so it now satisfies the goal
    log.status = STATUS_SUCCESS
    return log
