"""Closed-loop episode driver: plan, generate, critique, refine, replan.

Control flow per step: generate a segment, score it, accept into memory at
scalar >= tau. A rejection triggers the inner loop (revised instruction and
fresh noise, up to k_retries). Inner exhaustion triggers the outer loop:
replan from the simulated state, at most max_outer_replans times per
episode. Accepted history is never revisited.

An episode is one generator, `episode`, that plans with the breadth-first
search (`plan`, `replan`) and calls neither the policy nor the critic. Where
it needs segments it yields a `Request` for n candidates of one (step,
memory) from its own stream: n = 1 for a step's first try, and n = the
retry budget for `inner_refine`. It is resumed with a draw, which it calls
once per candidate it takes, with the step that candidate is for (a retry's
step carries the revised instruction). Where it needs a score it yields a
`Critique(segment, step)` and is resumed with the critic's report. When a
step's retries run out, the best report's tags are the failure record: the
replanner gets them, and `retry-same` when the step is still symbolically
valid. The episode log keeps each attempt and each replan; its segment
count is the number of attempts.

A policy's `fulfil(requests)` turns a list of requests into their draws
(see `Policy`). `bench.metrics.run_suite` drives the episodes of a suite in
lockstep, one `fulfil` call per round for every pending request, then one
`evaluate_rows` call per pass for every pending critique.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator

from ..critic import CriticReport
from ..errors import LoopwmError, NoPlanError
from ..memory import WorldMemory
from ..microworld import DomainSpec, Segment
from ..numerics import RandomSource
from ..planner import RETRY_SAME_TAG, FailureContext, Goal, PlanStep, plan, replan

STATUS_SUCCESS = "success"
STATUS_PLAN_FAILURE = "plan-failure"
STATUS_BUDGET = "budget-exhausted"


@dataclass(frozen=True)
class LoopConfig:
    tau: float = 0.7
    k_retries: int = 3
    max_outer_replans: int = 2
    max_total_segments: int = 64

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise LoopwmError(f"tau must lie in (0, 1), got {self.tau}")
        if self.k_retries < 0 or self.max_outer_replans < 0:
            raise LoopwmError("retry and replan budgets must be >= 0")
        if self.max_total_segments < 1:
            raise LoopwmError("max_total_segments must be >= 1")


@dataclass(frozen=True)
class AttemptRecord:
    sid: int
    attempt: int  # 0 = first generation, 1..k = inner retries
    instruction: str
    report: CriticReport
    accepted: bool
    # the scored segment; kept for metrics, left out of the episode log
    segment: Segment = field(repr=False, compare=False)


@dataclass(frozen=True)
class ReplanEvent:
    at_sid: int
    tags: tuple[str, ...]
    outcome: str  # "replanned" | "no-plan"
    new_length: int


@dataclass
class EpisodeLog:
    """What one episode did."""

    goal: Goal
    status: str = "in-progress"
    attempts: list[AttemptRecord] = field(default_factory=list)
    replans: list[ReplanEvent] = field(default_factory=list)
    # length of the plan in force at episode end (replans update it)
    plan_length: int = 0

    @property
    def segments_generated(self) -> int:
        return len(self.attempts)

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
    """A score wanted for one segment under the step it was generated for."""

    segment: Segment
    step: PlanStep


# called once per candidate taken, with the step that candidate is for
Draw = Callable[[PlanStep], Segment]
Episode = Generator[Request | Critique, Draw | CriticReport, EpisodeLog]


def inner_refine(step: PlanStep, report: CriticReport, memory: WorldMemory,
                 config: LoopConfig, rng: RandomSource,
                 budget: int) -> Generator[Request | Critique, Draw | CriticReport,
                                           tuple[Segment | None, CriticReport,
                                                 list[AttemptRecord]]]:
    """Retry a rejected step with revised instructions and fresh noise.

    Returns (accepted segment or None, best report seen, attempt records).
    ``budget`` already accounts for both k_retries and the episode's segment
    budget; zero means fail immediately without generating. Otherwise it
    yields one request for ``budget`` candidates and takes them in turn,
    each for the step with the instruction the last report revised, and
    yields a `Critique` for each candidate it takes.
    """
    best = report
    records: list[AttemptRecord] = []
    if budget < 1:
        return None, best, records
    current = report
    draw = yield Request(step, memory, rng, budget)
    for attempt in range(1, budget + 1):
        retry_step = step
        if current.revised_instruction != step.instruction:
            retry_step = step.with_instruction(current.revised_instruction)
        segment = draw(retry_step)
        current = yield Critique(segment, retry_step)
        accepted = current.scalar >= config.tau
        records.append(AttemptRecord(step.sid, attempt, retry_step.instruction,
                                     current, accepted, segment))
        if current.scalar > best.scalar:
            best = current
        if accepted:
            return segment, current, records
    return None, best, records


def _failure_context(goal: Goal, step: PlanStep, best: CriticReport,
                     remaining: tuple[PlanStep, ...], memory: WorldMemory) -> FailureContext:
    tags = list(best.tags)
    if memory.state.satisfies(step.pre) and RETRY_SAME_TAG not in tags:
        # the step is still symbolically valid, so the failure was generative;
        # allow the planner to hand the same plan back for a fresh-noise pass
        tags.append(RETRY_SAME_TAG)
    return FailureContext(goal=goal, failed_step=step, tags=tuple(tags),
                          remaining=remaining, state=memory.state.copy())


def episode(spec: DomainSpec, goal: Goal, config: LoopConfig | None = None,
            rng: RandomSource | None = None) -> Episode:
    """One closed-loop episode, run to success, plan failure, or budget end.

    Yields a `Request` wherever it needs segments and expects the request's
    draw back, and a `Critique` wherever it needs a score and expects the
    report back; returns the `EpisodeLog`. It plans with this module's `plan`
    and `replan`, looked up when called. An unsolvable goal raises
    NoPlanError up front; a failed replan mid-episode is recorded as a replan
    event and ends the episode as a plan failure.
    """
    config = config or LoopConfig()
    rng = rng or RandomSource(0)

    sequence = plan(spec, goal, spec.initial_state())
    memory = WorldMemory.fresh(spec)
    log = EpisodeLog(goal=goal, plan_length=len(sequence.steps))

    steps = list(sequence.steps)
    i = 0
    replans_used = 0
    status = None
    while status is None:
        if i >= len(steps):
            status = STATUS_SUCCESS if memory.state.satisfies(goal.literals) \
                else STATUS_PLAN_FAILURE
            break
        step = steps[i]
        if log.segments_generated >= config.max_total_segments:
            status = STATUS_BUDGET
            break
        draw = yield Request(step, memory, rng, 1)
        segment = draw(step)
        report = yield Critique(segment, step)
        accepted = report.scalar >= config.tau
        log.attempts.append(AttemptRecord(step.sid, 0, step.instruction, report, accepted,
                                          segment))
        if accepted:
            memory.advance(step, segment)
            i += 1
            continue

        budget = min(config.k_retries,
                     config.max_total_segments - log.segments_generated)
        refined, best, records = yield from inner_refine(step, report, memory, config, rng,
                                                         budget)
        log.attempts.extend(records)
        if refined is not None:
            memory.advance(step, refined)
            i += 1
            continue
        if budget < config.k_retries:
            status = STATUS_BUDGET
            break

        if replans_used >= config.max_outer_replans:
            status = STATUS_PLAN_FAILURE
            break
        failure = _failure_context(goal, step, best, tuple(steps[i + 1:]), memory)
        replans_used += 1
        try:
            new_sequence = replan(spec, goal, failure)
        except NoPlanError:
            log.replans.append(ReplanEvent(step.sid, failure.tags, "no-plan", 0))
            status = STATUS_PLAN_FAILURE
            break
        log.replans.append(ReplanEvent(step.sid, failure.tags, "replanned",
                                       len(new_sequence.steps)))
        steps = steps[:i] + list(new_sequence.steps)
        # keep plan_length honest: it reports the plan in force at episode end
        log.plan_length = len(steps)

    log.status = status
    return log
