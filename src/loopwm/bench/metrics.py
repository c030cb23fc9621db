"""Action-quality metrics over a task suite.

One closed-loop episode per task. Action completeness is the fraction of
the final plan's steps that were executed with their post literals actually
holding in the generated frames (not just in symbolic memory). The three
1-5 scale metrics are affine maps 1 + 4*u of unit-interval critic scores,
averaged over every generated segment in the bucket:

  motion smoothness   intra-segment temporal coherence, plus one boundary
                      sample per consecutive accepted pair scoring the jump
                      between segments against the same curvature scale
  object interaction  contact-window score, skipping segments whose step
                      has no motion profile; all-skipped buckets report N/A
  physical fidelity   per-frame physics compliance

Every task's episode runs on its own stream split from the evaluation's, so
a task's draws do not depend on the others. The episodes run in lockstep,
in rounds. A round is one call of the policy's `fulfil`, to which every
episode waiting for segments hands its request, so a batching policy
samples the whole round in one batch. Then come critique passes: in each,
every episode waiting for a score hands its segment to one `evaluate_rows`
call at the loop's tau, which scores the pass; the passes repeat while an
episode takes another candidate of its draw, and the next round starts
once every episode waits for segments again. A row's last bits may depend
on which rows share its sampler batch (see `sample_group`), so a task's
frames equal those of its rows sampled one at a time up to float32
rounding, not bitwise; its reports are those the critic gives each row
alone on those frames (see `evaluate_rows`), scored in float64.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
import json

import numpy as np

from ..critic import DEFAULT_WEIGHTS, CriticWeights, evaluate_rows
from ..critic.scoring import coherence_score
from ..errors import DivergenceError, NoPlanError, NumericError, ParseError, SuiteError
from ..loop import Critique, EpisodeLog, LoopConfig, Policy, episode
from ..numerics import RandomSource
from ..parse import build
from .suite import DIFFICULTIES, PromptSuite

REPORT_FORMAT = "loopwm-report-v1"

# loop configurations for the standard ablation rows
MODES = ("open-loop", "inner-only", "full")

# a step counts as completed only if its accepted segment really shows the
# post literals; the score is a mean of 0/1 hits, so 1.0 is exact
_COMPLETE_EPS = 1e-9


def mode_config(mode: str, loop: LoopConfig) -> LoopConfig:
    """`loop` under a mode preset: no feedback, inner retries only, or both loops.

    Open-loop zeroes both budgets, inner-only zeroes the replan budget, and
    full returns `loop` unchanged; every other setting passes through.
    """
    if mode == "open-loop":
        return replace(loop, k_retries=0, max_outer_replans=0)
    if mode == "inner-only":
        return replace(loop, max_outer_replans=0)
    if mode == "full":
        return loop
    raise SuiteError(f"unknown mode {mode!r}, expected one of {MODES}")


@dataclass
class MetricRow:
    """Aggregates for one bucket of tasks (a difficulty level, or all)."""

    n_tasks: int
    action_completeness: float
    success_rate: float
    motion_smoothness: float | None
    object_interaction: float | None
    physical_fidelity: float | None

    def to_dict(self) -> dict:
        def r(v):
            return None if v is None else round(v, 6)

        return {
            "n_tasks": self.n_tasks,
            "action_completeness": r(self.action_completeness),
            "success_rate": r(self.success_rate),
            "motion_smoothness": r(self.motion_smoothness),
            "object_interaction": r(self.object_interaction),
            "physical_fidelity": r(self.physical_fidelity),
        }


@dataclass
class MetricReport:
    domain: str
    suite_digest: str
    overall: MetricRow
    by_difficulty: dict[str, MetricRow]

    def to_dict(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "domain": self.domain,
            "suite_digest": self.suite_digest,
            "overall": self.overall.to_dict(),
            "by_difficulty": {d: row.to_dict() for d, row in self.by_difficulty.items()},
        }

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path


def _report_key(path: tuple) -> str:
    return f"report key {'.'.join(map(str, path))!r}"


def load_report(path: str | Path) -> MetricReport:
    """A `write_json` report; a SuiteError names the file and any key at fault."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SuiteError(f"cannot read report file {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.pop("format", None) != REPORT_FORMAT:
        raise SuiteError(f"{path} is not a {REPORT_FORMAT} file")
    try:
        return build(MetricReport, payload, _report_key)
    except ParseError as exc:
        raise SuiteError(f"{path}: malformed report: {exc}") from exc


@dataclass
class _EpisodeSamples:
    completeness: float
    succeeded: bool
    smoothness: list[float]
    interaction: list[float]
    fidelity: list[float]


def _boundary_score(prev: np.ndarray, nxt: np.ndarray) -> float:
    """Score the jump between the frames of consecutive accepted segments.

    The next segment should pick up where the last one stopped; the mean
    squared frame delta across the junction is judged against the same
    scale the critic uses for intra-segment curvature, in float64 like the
    critic's scores.
    """
    delta = np.subtract(nxt[0], prev[-1], dtype=np.float64)
    return coherence_score(float(np.mean(delta * delta)))


def _episode_samples(log: EpisodeLog) -> _EpisodeSamples:
    completed = 0
    smooth: list[float] = []
    inter: list[float] = []
    fidel: list[float] = []
    accepted: list[np.ndarray] = []
    for attempt in log.attempts:
        scores = attempt.report.scores
        smooth.append(scores["temporal_coherence"])
        if attempt.report.contact_applicable:
            inter.append(scores["object_interaction"])
        fidel.append(scores["physical_realism"])
        if attempt.accepted:
            accepted.append(attempt.frames)
            if scores["goal_achievement"] >= 1.0 - _COMPLETE_EPS:
                completed += 1
    for prev, nxt in zip(accepted, accepted[1:]):
        smooth.append(_boundary_score(prev, nxt))
    denom = max(log.plan_length, 1)
    return _EpisodeSamples(
        completeness=completed / denom,
        succeeded=log.succeeded,
        smoothness=smooth,
        interaction=inter,
        fidelity=fidel,
    )


def _aggregate(samples: list[_EpisodeSamples]) -> MetricRow:
    def pooled(lists: list[list[float]]) -> float | None:
        flat = [v for chunk in lists for v in chunk]
        if not flat:
            return None
        return 1.0 + 4.0 * float(np.mean(flat))

    return MetricRow(
        n_tasks=len(samples),
        action_completeness=float(np.mean([s.completeness for s in samples])),
        success_rate=float(np.mean([1.0 if s.succeeded else 0.0 for s in samples])),
        motion_smoothness=pooled([s.smoothness for s in samples]),
        object_interaction=pooled([s.interaction for s in samples]),
        physical_fidelity=pooled([s.fidelity for s in samples]),
    )


def run_suite(
    policy: Policy,
    suite: PromptSuite,
    config: LoopConfig | None = None,
    rng: RandomSource | None = None,
    weights: CriticWeights = DEFAULT_WEIGHTS,
) -> list[EpisodeLog | None]:
    """Run one episode per task in lockstep; None marks an episode that failed.

    Every episode starts at once, task i on `rng.split(i)`. Each round
    hands the requests of all episodes still running to one
    `policy.fulfil` call and resumes each episode with its draw. Then, as
    long as any episode waits for a score, a pass scores every pending
    critique in one `evaluate_rows` call under `weights` at the loop's tau
    and resumes each episode with its report. Rounds go on until every
    episode has ended. An unsolvable task, or an episode whose numbers go
    non-finite (a diverged sampler, NaN frames), fails alone and the rest
    run on.
    """
    config = config or LoopConfig()
    rng = rng or RandomSource(0)
    spec = suite.spec
    running = [episode(spec, task.goal, config, rng.split(i))
               for i, task in enumerate(suite.tasks)]
    logs: list[EpisodeLog | None] = [None] * len(running)
    pending = {}

    def advance(i: int, answer) -> None:
        try:
            pending[i] = running[i].send(answer)
        except StopIteration as done:
            logs[i] = done.value
        except (NoPlanError, DivergenceError, NumericError):
            pass

    for i in range(len(running)):
        advance(i, None)
    while pending:
        waiting = [i for i, wanted in pending.items() if isinstance(wanted, Critique)]
        if waiting:
            items = [pending.pop(i) for i in waiting]
            answers = evaluate_rows(spec, [item.frames for item in items],
                                    [item.step for item in items], weights, config.tau)
        else:
            waiting = list(pending)
            answers = policy.fulfil([pending.pop(i) for i in waiting])
        for i, answer in zip(waiting, answers):
            advance(i, answer)
    return logs


def evaluate_policy(
    policy: Policy,
    suite: PromptSuite,
    config: LoopConfig | None = None,
    rng: RandomSource | None = None,
    weights: CriticWeights = DEFAULT_WEIGHTS,
) -> MetricReport:
    """Run one episode per task (`run_suite`) and aggregate the metric set.

    Every segment is scored under `weights` at the loop's tau. Unsolvable
    tasks and episodes whose numbers go non-finite do not raise: they
    contribute zero completeness and a failed episode, per the convention
    that evaluation never aborts.
    """
    if not suite.tasks:
        raise SuiteError("cannot evaluate an empty suite")
    logs = run_suite(policy, suite, config, rng, weights)
    per_task = [_EpisodeSamples(0.0, False, [], [], []) if log is None
                else _episode_samples(log) for log in logs]

    by_difficulty = {}
    for name in DIFFICULTIES:
        bucket = [s for s, t in zip(per_task, suite.tasks) if t.difficulty == name]
        if bucket:
            by_difficulty[name] = _aggregate(bucket)
    return MetricReport(
        domain=suite.domain,
        suite_digest=suite.digest,
        overall=_aggregate(per_task),
        by_difficulty=by_difficulty,
    )
