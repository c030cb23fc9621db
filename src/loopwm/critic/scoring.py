"""Programmatic segment scoring along five fixed dimensions.

Every dimension is a deterministic formula over (domain, segment, step); no
learned component is involved here. Dimension scores live in [0, 1] and the
scalar is their weighted mean. Feedback tags are emitted exactly when the
scalar falls below the acceptance threshold, ordered most-severe first
(ascending dimension score). The tags are all the feedback a report gives:
the loop records the best report's tags for each outer pass, which starts
the same step again. A step is scored by its operator alone, from the
operator's table.

physical_realism note: the score is the fraction of frames that respect the
per-frame delta bound (0.25) and the value box [-0.05, 1.05], multiplied by
a severity factor clamp(1 - worst_excess/0.25, 0, 1). The plain fraction
barely reacts to a single hard teleport in a long segment; the severity
factor makes one large violation collapse the score, which is what the
feedback loop needs to catch physically broken rollouts.

Scores are float64: both entry points cast the frames, which the sampler
makes in float32, to float64 before any sum or threshold.

Row contract: every dimension reduces along a contiguous per-row axis, so a
row's numbers do not depend on the rows it is scored with. `DomainSpec`
compiles one table per operator, `spec.operator_tables[step.op]`.
`score_group` scores G rows of one plan step, frames of shape (G, F, C),
and returns each dimension score and the scalar as a (G,) column: a GRPO
group reads them and builds no report. `evaluate_rows` scores G rows, each
a segment's (F, C) frames with its own plan step, and returns one report
per row in input order. The rows share one frame shape, as every segment
of a run has the run's frame count: it stacks them once as (G, F, C) and
scores temporal coherence and physical realism over the whole stack, then
the three step-dependent dimensions once per operator from its table. Each
report takes its tags from the table's feedback, so two rows of one
operator at different sids get equal reports. Every report is bitwise
equal to the one that `evaluate_rows` gives the row by itself.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..microworld.dynamics import contact_window_frames
from ..microworld.types import DECODE_THRESHOLD, DomainSpec, OperatorTable
from ..planner.types import PlanStep

DIMENSIONS = (
    "action_adherence",
    "object_interaction",
    "goal_achievement",
    "temporal_coherence",
    "physical_realism",
)

DEFAULT_TAU = 0.7
CONTACT_RADIUS = 0.15
MAX_FRAME_DELTA = 0.25
VALUE_BOX = (-0.05, 1.05)
COHERENCE_SCALE = 0.01
MONOTONE_FRACTION = 0.8
_MONO_EPS = 1e-9


@dataclass(frozen=True)
class CriticWeights:
    action_adherence: float = 0.4
    object_interaction: float = 0.15
    goal_achievement: float = 0.2
    temporal_coherence: float = 0.15
    physical_realism: float = 0.1

    def as_dict(self) -> dict[str, float]:
        return {d: getattr(self, d) for d in DIMENSIONS}

    def __post_init__(self) -> None:
        vals = self.as_dict()
        if any(v < 0 for v in vals.values()):
            raise ValueError("critic weights must be non-negative")
        if sum(vals.values()) <= 0:
            raise ValueError("critic weights must not all be zero")


DEFAULT_WEIGHTS = CriticWeights()


@dataclass(frozen=True)
class CriticReport:
    """One row's verdict, built once from the row's scores and literal hits.

    The tags, most severe first, are the whole failure record: the best
    report's tags are recorded when the loop starts a step again after its
    retries run out. They are empty when the scalar clears tau.
    """

    scores: dict[str, float]
    tags: tuple[str, ...]
    scalar: float
    # False when the step has no motion profile, so the contact check scored nothing
    contact_applicable: bool


def _weighted_mean(scores: dict[str, float], weights: CriticWeights) -> float:
    """Weighted mean of the five dimension scores, which the critic builds in [0, 1].

    Works alike on one row's floats and on (G,) columns.
    """
    w = weights.as_dict()
    total = sum(w.values())
    return sum(w[d] * scores[d] for d in DIMENSIONS) / total


def coherence_score(msd: float | np.ndarray) -> float | np.ndarray:
    """Map mean squared frame differences to [0, 1]: 1 at zero, 0 from COHERENCE_SCALE up.

    Elementwise: a float gives a float, a (G,) column a column.
    """
    return 1.0 - np.minimum(np.maximum(msd / COHERENCE_SCALE, 0.0), 1.0)


def _row_mean(values: np.ndarray) -> np.ndarray:
    """Mean along the last axis: np.mean's sum-then-divide, without its call overhead."""
    return values.sum(axis=-1) / values.shape[-1]


def _hit_fraction(hits: np.ndarray) -> np.ndarray:
    """Per-row share of hits; 1 for every row when there are no literals."""
    if hits.shape[1] == 0:
        return np.ones(hits.shape[0])
    return _row_mean(hits)


def _contact_fraction(motion: tuple | None, frames: np.ndarray) -> np.ndarray:
    """Per-row share of contact-window frames with the acting entity near the target."""
    if motion is None:
        return np.ones(frames.shape[0])
    (ax, ay), _, target, target_moves, fractions = motion
    w0, w1 = contact_window_frames(fractions, frames.shape[1])
    window = frames[:, w0 : w1 + 1]
    tx, ty = (window[:, :, target[0]], window[:, :, target[1]]) if target_moves else target
    dist = np.hypot(window[:, :, ax] - tx, window[:, :, ay] - ty)
    return _row_mean(dist <= CONTACT_RADIUS)


def _second_difference_msd(frames: np.ndarray) -> np.ndarray:
    """Per-row mean squared second difference; 0 below three frames."""
    rows, n_frames = frames.shape[:2]
    if n_frames < 3:
        return np.zeros(rows)
    second = frames[:, 2:] - 2.0 * frames[:, 1:-1] + frames[:, :-2]
    return _row_mean((second * second).reshape(rows, -1))


def _realism(frames: np.ndarray) -> np.ndarray:
    """Per-row score. See the module docstring for the severity factor."""
    lo, hi = VALUE_BOX
    range_excess = np.maximum(frames - hi, lo - frames).max(axis=2)
    range_excess = np.maximum(range_excess, 0.0)
    deltas = np.abs(np.diff(frames, axis=1)).max(axis=2)
    delta_excess = np.concatenate(
        [np.zeros((frames.shape[0], 1)), np.maximum(deltas - MAX_FRAME_DELTA, 0.0)], axis=1
    )
    per_frame_excess = np.maximum(range_excess, delta_excess)
    compliant = _row_mean(per_frame_excess <= 0.0)
    worst = per_frame_excess.max(axis=1)
    severity = np.clip(1.0 - worst / MAX_FRAME_DELTA, 0.0, 1.0)
    return compliant * severity


def _checked(spec: DomainSpec, frames: np.ndarray) -> dict[str, np.ndarray]:
    """Check (G, F, C) frames against the domain; return their step-independent columns."""
    if frames.ndim != 3:
        raise ValueError(f"each row must be 2-D (frames, channels), got shape {frames.shape[1:]}")
    if frames.shape[2] != spec.n_channels:
        raise ValueError(
            f"segment has {frames.shape[2]} channels, domain {spec.name!r} has {spec.n_channels}"
        )
    if frames.shape[1] < 2:
        raise ValueError("segments need at least 2 frames to score")
    return {"temporal_coherence": coherence_score(_second_difference_msd(frames)),
            "physical_realism": _realism(frames)}


def _step_scores(table: OperatorTable, frames: np.ndarray):
    """(step-dependent columns, pre hits, post hits) of (G, F, C) frames of one operator.

    A predicate channel reads true at DECODE_THRESHOLD and above, ties
    included.
    """
    pre_cols, pre_values, _ = table.pre
    post_cols, post_values, _ = table.post
    pre_hits = (frames[:, 0, pre_cols] >= DECODE_THRESHOLD) == pre_values
    post_hits = (frames[:, -1, post_cols] >= DECODE_THRESHOLD) == post_values
    cols, targets = table.writes
    # the fraction of consecutive frames whose distance to the post literals does not grow
    dist = np.abs(frames[:, :, cols] - targets).sum(axis=2)
    monos = _row_mean(np.diff(dist, axis=1) <= _MONO_EPS)
    mono_scores = np.where(monos >= MONOTONE_FRACTION, 1.0, monos / MONOTONE_FRACTION)
    goal_scores = _hit_fraction(post_hits)
    scores = {
        "action_adherence": (_hit_fraction(pre_hits) + goal_scores + mono_scores) / 3.0,
        "object_interaction": _contact_fraction(table.motion, frames),
        "goal_achievement": goal_scores,
    }
    return scores, pre_hits, post_hits


def evaluate_rows(
    spec: DomainSpec,
    frames: Sequence[np.ndarray],
    steps: Sequence[PlanStep],
    weights: CriticWeights = DEFAULT_WEIGHTS,
    tau: float = DEFAULT_TAU,
) -> list[CriticReport]:
    """Score row i, frames of shape (F, C), against steps[i]; one report per row, in order.

    The rows, all of one shape, are stacked once and scored per operator,
    each report under its own step's operator table (see the row contract
    in the module docstring).
    """
    if len(frames) != len(steps):
        raise ValueError(f"{len(frames)} rows of frames but {len(steps)} steps")
    stack = np.asarray(frames, dtype=np.float64)
    columns = {d: np.empty(len(steps)) for d in DIMENSIONS}
    columns.update(_checked(spec, stack))
    ops: dict[int, list[int]] = {}
    for i, step in enumerate(steps):
        ops.setdefault(step.op, []).append(i)
    hits: list[tuple] = [()] * len(steps)
    for op, picks in ops.items():
        table = spec.operator_tables[op]
        scores, pre_hits, post_hits = _step_scores(table, stack[picks])
        for d, column in scores.items():
            columns[d][picks] = column
        for i, pre_hit, post_hit in zip(picks, pre_hits.tolist(), post_hits.tolist()):
            hits[i] = (table, pre_hit, post_hit)
    scalars = _weighted_mean(columns, weights).tolist()
    return [_report(table, tau, row_scores, scalar, pre_hit, post_hit)
            for row_scores, scalar, (table, pre_hit, post_hit)
            in zip(zip(*(columns[d].tolist() for d in DIMENSIONS)), scalars, hits)]


@dataclass(frozen=True)
class GroupScores:
    """The critic's numbers for G rows of one plan step, one (G,) column each.

    `scores` maps each dimension to its column and `scalar` is their
    weighted mean: all a GRPO reward reads.
    """

    scores: dict[str, np.ndarray]
    scalar: np.ndarray


def score_group(
    spec: DomainSpec,
    frames: np.ndarray,
    step: PlanStep,
    weights: CriticWeights = DEFAULT_WEIGHTS,
) -> GroupScores:
    """Score G rows, frames of shape (G, F, C), against one plan step, as columns.

    The columns are the ones `evaluate_rows` builds its reports from, and
    the frames are cast to float64 first, as `evaluate_rows` stacks them.
    """
    frames = np.asarray(frames, dtype=np.float64)
    scores = _checked(spec, frames)
    scores.update(_step_scores(spec.operator_tables[step.op], frames)[0])
    return GroupScores(scores, _weighted_mean(scores, weights))


def _report(
    table: OperatorTable,
    tau: float,
    row_scores: tuple[float, ...],
    scalar: float,
    pre_hits: list[bool],
    post_hits: list[bool],
) -> CriticReport:
    """Assemble one row's report from its scores (in DIMENSIONS order), scalar and literal hits.

    A fault is (its dimension's score, tag); the faults sort most severe
    first.
    """
    adherence, interaction, goal, coherence, realism = row_scores
    scores = dict(zip(DIMENSIONS, row_scores))
    tags = ()
    if scalar < tau:
        faults = [(adherence, tag) for tag, ok in zip(table.pre[2], pre_hits) if not ok]
        faults += [(goal, tag) for tag, ok in zip(table.post[2], post_hits) if not ok]
        if table.motion is not None and interaction < 0.5:
            faults.append((interaction, "interaction-missed"))
        if coherence < 0.5:
            faults.append((coherence, "incoherent-motion"))
        if realism < 0.5:
            faults.append((realism, "physics-violation"))
        if not faults:
            worst = min(DIMENSIONS, key=lambda d: (scores[d], d))
            faults.append((scores[worst], f"low-score:{worst}"))
        faults.sort()
        tags = tuple(tag for _, tag in faults)
    return CriticReport(scores, tags, scalar, table.motion is not None)
