"""Programmatic segment scoring along five fixed dimensions.

Every dimension is a deterministic formula over (domain, segment, step); no
learned component is involved here. Dimension scores live in [0, 1] and the
scalar is their weighted mean. Feedback tags are emitted exactly when the
scalar falls below the acceptance threshold, ordered most-severe first
(ascending dimension score). The tags are all the feedback a report gives:
they pick the revised instruction, and the loop hands them to the replanner.

physical_realism note: the score is the fraction of frames that respect the
per-frame delta bound (0.25) and the value box [-0.05, 1.05], multiplied by
a severity factor clamp(1 - worst_excess/0.25, 0, 1). The plain fraction
barely reacts to a single hard teleport in a long segment; the severity
factor makes one large violation collapse the score, which is what the
feedback loop needs to catch physically broken rollouts.

Row contract: `score_group` is the one scoring core. It scores G rows of
one plan step, frames of shape (G, F, C), in one vectorized pass, with
every reduction taken along a contiguous per-row axis, and returns each
dimension score and the scalar as a (G,) column, with the (G, n) hits of
the step's pre and post literals. A row's numbers therefore do not depend
on the other rows. A GRPO group, G segments of one step, reads the columns
and builds no report. `evaluate_rows` scores G rows, each a segment's
(F, C) frames with its own plan step, and returns one report per row in
input order: rows whose steps share (action, pre, post) and whose frames
share a shape form a group, stacked and scored by the core, and each row's
report is built from its row of the scores, the scalar and the literal hits
under its own step, so two rows of one group that differ only in their
instruction (a first try and a retry) get the tags and revised instruction
each would get alone. Every report is bitwise equal to the one that
`evaluate_rows` gives the row by itself.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..microworld.dynamics import contact_window_frames
from ..microworld.frames import DECODE_THRESHOLD
from ..microworld.types import MAX_INSTRUCTION_WORDS, DomainSpec, Literal, Operator, parse_literal
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

    The tags, most severe first, are the whole failure record: they pick the
    revised instruction and the replan's `retry-same` decision. They are
    empty when the scalar clears tau, and then the revised instruction is
    the step's own.
    """

    scores: dict[str, float]
    tags: tuple[str, ...]
    revised_instruction: str
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


def tag_dimension(tag: str) -> str:
    """The dimension a feedback tag is charged against."""
    if tag.startswith("post-condition-unmet:"):
        return "goal_achievement"
    if tag.startswith("pre-condition-violated:"):
        return "action_adherence"
    if tag == "interaction-missed":
        return "object_interaction"
    if tag == "incoherent-motion":
        return "temporal_coherence"
    if tag == "physics-violation":
        return "physical_realism"
    if tag.startswith("low-score:"):
        return tag.split(":", 1)[1]
    return "action_adherence"


def coherence_score(msd: float | np.ndarray) -> float | np.ndarray:
    """Map mean squared frame differences to [0, 1]: 1 at zero, 0 from COHERENCE_SCALE up.

    Elementwise: a float gives a float, a (G,) column a column.
    """
    return 1.0 - np.minimum(np.maximum(msd / COHERENCE_SCALE, 0.0), 1.0)


def _row_mean(values: np.ndarray) -> np.ndarray:
    """Mean along the last axis: np.mean's sum-then-divide, without its call overhead."""
    return values.sum(axis=-1) / values.shape[-1]


def _literal_hits(
    spec: DomainSpec, frame: np.ndarray, literals: tuple[Literal, ...]
) -> tuple[tuple[Literal, ...], np.ndarray]:
    """(distinct literals, (G, n) hits) of the literals in one (G, C) frame per row.

    A predicate channel reads true at DECODE_THRESHOLD and above, ties
    included.
    """
    distinct = tuple(dict.fromkeys(literals))
    cols = [spec.channel_index[lit.pred] for lit in distinct]
    values = np.array([lit.value for lit in distinct], dtype=bool)
    return distinct, (frame[:, cols] >= DECODE_THRESHOLD) == values


def _hit_fraction(hits: np.ndarray) -> np.ndarray:
    """Per-row share of hits; 1 for every row when there are no literals."""
    if hits.shape[1] == 0:
        return np.ones(hits.shape[0])
    return _row_mean(hits)


def _interaction(
    spec: DomainSpec, frames: np.ndarray, op: Operator
) -> tuple[np.ndarray, bool]:
    """(scores, applicable) for the contact check."""
    actor = spec.acting_entity(op)
    if actor is None:
        return np.ones(frames.shape[0]), False
    w0, w1 = contact_window_frames(op.motion.contact, frames.shape[1])
    window = frames[:, w0 : w1 + 1]
    ax = spec.channel_index[f"{actor}.x"]
    ay = spec.channel_index[f"{actor}.y"]
    target = op.motion.target
    if spec.objects[target].movable:
        tx = window[:, :, spec.channel_index[f"{target}.x"]]
        ty = window[:, :, spec.channel_index[f"{target}.y"]]
    else:
        tx, ty = spec.objects[target].position
    dist = np.hypot(window[:, :, ax] - tx, window[:, :, ay] - ty)
    return _row_mean(dist <= CONTACT_RADIUS), True


def _progress_monotone_fraction(
    frames: np.ndarray, post: tuple[Literal, ...], spec: DomainSpec
) -> np.ndarray:
    """Per-row fraction of consecutive frames whose distance-to-post is non-increasing."""
    cols = [spec.channel_index[lit.pred] for lit in post]
    targets = np.array([1.0 if lit.value else 0.0 for lit in post])
    dist = np.abs(frames[:, :, cols] - targets).sum(axis=2)
    return _row_mean(np.diff(dist, axis=1) <= _MONO_EPS)


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


def evaluate_rows(
    spec: DomainSpec,
    frames: Sequence[np.ndarray],
    steps: Sequence[PlanStep],
    weights: CriticWeights = DEFAULT_WEIGHTS,
    tau: float = DEFAULT_TAU,
) -> list[CriticReport]:
    """Score row i, frames of shape (F, C), against steps[i]; one report per row, in order.

    Rows are scored in groups, each report under its own step (see the row
    contract in the module docstring).
    """
    if len(frames) != len(steps):
        raise ValueError(f"{len(frames)} rows of frames but {len(steps)} steps")
    groups: dict[tuple, list[int]] = {}
    for i, (row, step) in enumerate(zip(frames, steps)):
        groups.setdefault((step.actions[0], step.pre, step.post, np.shape(row)), []).append(i)
    reports: list[CriticReport | None] = [None] * len(steps)
    for rows in groups.values():
        block = np.asarray([frames[i] for i in rows], dtype=np.float64)
        group = _score_group(spec, block, [steps[i] for i in rows], weights, tau)
        for i, report in zip(rows, group):
            reports[i] = report
    return reports


@dataclass(frozen=True)
class GroupScores:
    """The critic's numbers for G rows of one plan step, one (G,) column each.

    `scores` maps each dimension to its column and `scalar` is their
    weighted mean: all a GRPO reward reads. The other fields are what a
    report's tags name: whether the contact check applied, and the (G, n)
    literal hits with their literals.
    """

    scores: dict[str, np.ndarray]
    scalar: np.ndarray
    applicable: bool
    post_lits: tuple[Literal, ...]
    post_hits: np.ndarray
    pre_lits: tuple[Literal, ...]
    pre_hits: np.ndarray


def score_group(
    spec: DomainSpec,
    frames: np.ndarray,
    step: PlanStep,
    weights: CriticWeights = DEFAULT_WEIGHTS,
) -> GroupScores:
    """Score G rows, frames of shape (G, F, C), against one plan step, as columns.

    The one scoring core: `evaluate_rows` builds its reports from these
    columns, and a GRPO group reads them as they are.
    """
    if frames.ndim != 3:
        raise ValueError(f"each row must be 2-D (frames, channels), got shape {frames.shape[1:]}")
    if frames.shape[2] != spec.n_channels:
        raise ValueError(
            f"segment has {frames.shape[2]} channels, domain {spec.name!r} has {spec.n_channels}"
        )
    if frames.shape[1] < 2:
        raise ValueError("segments need at least 2 frames to score")
    op = spec.find_operator(step.actions[0])

    post_lits, post_hits = _literal_hits(spec, frames[:, -1], step.post)
    pre_lits, pre_hits = _literal_hits(spec, frames[:, 0], step.pre)
    goal_scores = _hit_fraction(post_hits)
    monos = _progress_monotone_fraction(frames, step.post, spec)
    mono_scores = np.where(monos >= MONOTONE_FRACTION, 1.0, monos / MONOTONE_FRACTION)
    interactions, applicable = _interaction(spec, frames, op)
    scores = {
        "action_adherence": (_hit_fraction(pre_hits) + goal_scores + mono_scores) / 3.0,
        "object_interaction": interactions,
        "goal_achievement": goal_scores,
        "temporal_coherence": coherence_score(_second_difference_msd(frames)),
        "physical_realism": _realism(frames),
    }
    return GroupScores(scores, _weighted_mean(scores, weights), applicable, post_lits,
                       post_hits, pre_lits, pre_hits)


def _score_group(
    spec: DomainSpec,
    frames: np.ndarray,
    steps: list[PlanStep],
    weights: CriticWeights,
    tau: float,
) -> list[CriticReport]:
    """One report per row of frames (G, F, C), whose steps share (action, pre, post)."""
    scored = score_group(spec, frames, steps[0], weights)
    scores = zip(*(scored.scores[d].tolist() for d in DIMENSIONS))
    rows = zip(steps, scores, scored.scalar.tolist(), scored.post_hits.tolist(),
               scored.pre_hits.tolist())
    return [
        _report(row_step, tau, scored.applicable, dict(zip(DIMENSIONS, row_scores)), scalar,
                dict(zip(scored.post_lits, post_hit)), dict(zip(scored.pre_lits, pre_hit)))
        for row_step, row_scores, scalar, post_hit, pre_hit in rows
    ]


def _report(
    step: PlanStep,
    tau: float,
    applicable: bool,
    scores: dict[str, float],
    scalar: float,
    post_hits: dict[Literal, bool],
    pre_hits: dict[Literal, bool],
) -> CriticReport:
    """Assemble one row's report from its scores, scalar and literal hits."""
    tags: list[str] = []
    if scalar < tau:
        for lit, ok in pre_hits.items():
            if not ok:
                tags.append(f"pre-condition-violated:{lit}")
        for lit, ok in post_hits.items():
            if not ok:
                tags.append(f"post-condition-unmet:{lit}")
        if applicable and scores["object_interaction"] < 0.5:
            tags.append("interaction-missed")
        if scores["temporal_coherence"] < 0.5:
            tags.append("incoherent-motion")
        if scores["physical_realism"] < 0.5:
            tags.append("physics-violation")
        if not tags:
            worst_dim = min(DIMENSIONS, key=lambda d: (scores[d], d))
            tags.append(f"low-score:{worst_dim}")
        tags.sort(key=lambda t: (scores[tag_dimension(t)], t))
    ordered = tuple(tags)
    return CriticReport(scores, ordered, revise_instruction(step, ordered), scalar, applicable)


def _clause_for(tag: str, step: PlanStep) -> str:
    if tag.startswith("post-condition-unmet:"):
        lit = tag.split(":", 1)[1]
        return f"Ensure post-condition '{parse_literal(lit).render()}' is reached before the segment ends"
    if tag.startswith("pre-condition-violated:"):
        lit = tag.split(":", 1)[1]
        return f"Confirm pre-condition '{parse_literal(lit).render()}' holds at the start"
    if tag == "interaction-missed":
        target = step.actions[0].objects[-1]
        return f"Maintain contact with the {target} during the whole action window"
    if tag == "incoherent-motion":
        return "Move smoothly without sudden jumps between frames"
    if tag == "physics-violation":
        return "Keep every per-frame motion small and inside the workspace"
    if tag.startswith("low-score:"):
        return f"Improve {tag.split(':', 1)[1].replace('_', ' ')}"
    return "Execute the step more carefully"


def revise_instruction(step: PlanStep, tags: Sequence[str]) -> str:
    """Deterministic template revision; identity when there are no tags.

    Clauses are appended most-severe first (a report's tags are already
    ordered); at most two are used and clauses are dropped from the back if
    the word budget (`MAX_INSTRUCTION_WORDS`, which `PlanStep` enforces)
    would be exceeded. Re-running with identical tags returns the same text.
    """
    if not tags:
        return step.instruction
    clauses = [_clause_for(t, step) for t in tags[:2]]
    while clauses:
        suffix = " ".join(c + "." for c in clauses)
        if suffix in step.instruction:
            return step.instruction
        text = f"{step.instruction} {suffix}"
        if len(text.split()) <= MAX_INSTRUCTION_WORDS:
            return text
        clauses.pop()
    words = step.instruction.split()[:MAX_INSTRUCTION_WORDS]
    return " ".join(words)
