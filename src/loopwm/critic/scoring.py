"""Programmatic segment scoring along five fixed dimensions.

Every dimension is a deterministic formula over (domain, segment, step); no
learned component is involved here. Dimension scores live in [0, 1] and the
scalar is their weighted mean. Feedback tags are emitted exactly when the
scalar falls below the acceptance threshold, ordered most-severe first
(ascending dimension score).

physical_realism note: the score is the fraction of frames that respect the
per-frame delta bound (0.25) and the value box [-0.05, 1.05], multiplied by
a severity factor clamp(1 - worst_excess/0.25, 0, 1). The plain fraction
barely reacts to a single hard teleport in a long segment; the severity
factor makes one large violation collapse the score, which is what the
feedback loop needs to catch physically broken rollouts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..microworld.dynamics import contact_window_frames
from ..microworld.frames import decode_frame
from ..microworld.types import DomainSpec, Literal, Operator, Segment
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


@dataclass
class CriticReport:
    scores: dict[str, float]
    reasons: dict[str, str]
    tags: tuple[str, ...]
    revised_instruction: str
    scalar: float
    details: dict = field(default_factory=dict)


def aggregate(scores: dict[str, float], weights: CriticWeights = DEFAULT_WEIGHTS) -> float:
    """Weighted mean of the five dimension scores."""
    missing = [d for d in DIMENSIONS if d not in scores]
    if missing:
        raise ValueError(f"scores missing dimensions: {missing}")
    for d in DIMENSIONS:
        if not 0.0 <= scores[d] <= 1.0:
            raise ValueError(f"{d} score {scores[d]} outside [0, 1]")
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


def coherence_score(msd: float) -> float:
    """Map a mean squared frame difference to [0, 1]: 1 at zero, 0 from COHERENCE_SCALE up."""
    return 1.0 - min(max(msd / COHERENCE_SCALE, 0.0), 1.0)


def _interaction(
    spec: DomainSpec, frames: np.ndarray, op: Operator
) -> tuple[float, bool, float, tuple[int, int]]:
    """(score, applicable, mean window distance, window) for the contact check."""
    actor = spec.acting_entity(op)
    if actor is None:
        return 1.0, False, 0.0, (0, 0)
    w0, w1 = contact_window_frames(op.motion.contact, frames.shape[0])
    ax = spec.channel_index[f"{actor}.x"]
    ay = spec.channel_index[f"{actor}.y"]
    target = op.motion.target
    if spec.objects[target].movable:
        tx = frames[:, spec.channel_index[f"{target}.x"]]
        ty = frames[:, spec.channel_index[f"{target}.y"]]
    else:
        tx, ty = spec.objects[target].position
    dist = np.hypot(frames[:, ax] - tx, frames[:, ay] - ty)
    window = dist[w0 : w1 + 1]
    score = float(np.mean(window <= CONTACT_RADIUS))
    return score, True, float(window.mean()), (w0, w1)


def _progress_monotone_fraction(
    frames: np.ndarray, post: tuple[Literal, ...], spec: DomainSpec
) -> float:
    """Fraction of consecutive frames whose distance-to-post is non-increasing."""
    if frames.shape[0] < 2:
        return 1.0
    cols = [spec.channel_index[lit.pred] for lit in post]
    targets = np.array([1.0 if lit.value else 0.0 for lit in post])
    dist = np.abs(frames[:, cols] - targets).sum(axis=1)
    return float(np.mean(np.diff(dist) <= _MONO_EPS))


def _realism(frames: np.ndarray) -> tuple[float, float]:
    """(score, worst_excess). See the module docstring for the severity factor."""
    lo, hi = VALUE_BOX
    range_excess = np.maximum(frames - hi, lo - frames).max(axis=1)
    range_excess = np.maximum(range_excess, 0.0)
    deltas = np.abs(np.diff(frames, axis=0)).max(axis=1)
    delta_excess = np.concatenate([[0.0], np.maximum(deltas - MAX_FRAME_DELTA, 0.0)])
    per_frame_excess = np.maximum(range_excess, delta_excess)
    compliant = float(np.mean(per_frame_excess <= 0.0))
    worst = float(per_frame_excess.max())
    severity = min(max(1.0 - worst / MAX_FRAME_DELTA, 0.0), 1.0)
    return compliant * severity, worst


def evaluate(
    spec: DomainSpec,
    segment: Segment,
    step: PlanStep,
    weights: CriticWeights = DEFAULT_WEIGHTS,
    tau: float = DEFAULT_TAU,
) -> CriticReport:
    """Score one generated segment against its plan step."""
    frames = segment.frames
    if frames.shape[1] != spec.n_channels:
        raise ValueError(
            f"segment has {frames.shape[1]} channels, domain {spec.name!r} has {spec.n_channels}"
        )
    if frames.shape[0] < 2:
        raise ValueError("segments need at least 2 frames to score")
    op = spec.find_operator(step.actions[0])
    first = decode_frame(spec, frames[0])
    final = decode_frame(spec, frames[-1])

    post_hits = {lit: lit.holds_in(final.predicates) for lit in step.post}
    goal_score = float(np.mean([v for v in post_hits.values()])) if post_hits else 1.0

    pre_hits = {lit: lit.holds_in(first.predicates) for lit in step.pre}
    pre_frac = float(np.mean([v for v in pre_hits.values()])) if pre_hits else 1.0
    mono = _progress_monotone_fraction(frames, step.post, spec)
    mono_score = 1.0 if mono >= MONOTONE_FRACTION else mono / MONOTONE_FRACTION
    adherence = (pre_frac + goal_score + mono_score) / 3.0

    interaction, applicable, mean_dist, window = _interaction(spec, frames, op)

    if frames.shape[0] < 3:
        msd = 0.0
    else:
        second = frames[2:] - 2.0 * frames[1:-1] + frames[:-2]
        msd = float(np.mean(second * second))
    coherence = coherence_score(msd)

    realism, worst_excess = _realism(frames)

    scores = {
        "action_adherence": adherence,
        "object_interaction": interaction,
        "goal_achievement": goal_score,
        "temporal_coherence": coherence,
        "physical_realism": realism,
    }
    scalar = aggregate(scores, weights)

    reasons = {
        "action_adherence": (
            f"preconditions {pre_frac:.2f} at start, postconditions {goal_score:.2f} at end, "
            f"progress non-increasing over {mono:.2f} of frames"
        ),
        "object_interaction": (
            f"pose within {CONTACT_RADIUS} of {op.motion.target} for {interaction:.2f} "
            f"of the contact window (mean distance {mean_dist:.3f})"
            if applicable
            else "no motion profile; contact check not applicable"
        ),
        "goal_achievement": (
            f"{sum(post_hits.values())}/{len(post_hits)} post literals hold in the final frame"
        ),
        "temporal_coherence": f"mean squared second difference {msd:.5f}",
        "physical_realism": (
            f"worst per-frame excess {worst_excess:.3f} beyond delta {MAX_FRAME_DELTA} "
            f"or box {VALUE_BOX}"
        ),
    }

    tags: list[str] = []
    if scalar < tau:
        for lit, ok in pre_hits.items():
            if not ok:
                tags.append(f"pre-condition-violated:{lit}")
        for lit, ok in post_hits.items():
            if not ok:
                tags.append(f"post-condition-unmet:{lit}")
        if applicable and interaction < 0.5:
            tags.append("interaction-missed")
        if coherence < 0.5:
            tags.append("incoherent-motion")
        if realism < 0.5:
            tags.append("physics-violation")
        if not tags:
            worst_dim = min(DIMENSIONS, key=lambda d: (scores[d], d))
            tags.append(f"low-score:{worst_dim}")
        tags.sort(key=lambda t: (scores[tag_dimension(t)], t))

    details = {
        "contact_applicable": applicable,
        "contact_window": window,
        "per_action": [
            {
                "verb": b.verb,
                "tool": b.tool or "",
                "match": bool(applicable and interaction >= 0.5),
                "score": interaction,
                "reason": reasons["object_interaction"],
            }
            for b in step.actions
        ],
        "per_event": [
            {
                "event_id": str(lit),
                "score": 1.0 if ok else 0.0,
                "reason": f"final frame {'satisfies' if ok else 'violates'} '{lit}'",
            }
            for lit, ok in post_hits.items()
        ],
    }

    report = CriticReport(scores, reasons, tuple(tags), step.instruction, scalar, details)
    report.revised_instruction = revise_instruction(step, report)
    return report


def _clause_for(tag: str, step: PlanStep) -> str:
    if tag.startswith("post-condition-unmet:"):
        lit = tag.split(":", 1)[1]
        from ..microworld.types import parse_literal

        return f"Ensure post-condition '{parse_literal(lit).render()}' is reached before the segment ends"
    if tag.startswith("pre-condition-violated:"):
        lit = tag.split(":", 1)[1]
        from ..microworld.types import parse_literal

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


def revise_instruction(step: PlanStep, report: CriticReport, max_words: int = 36) -> str:
    """Deterministic template revision; identity when the report carries no tags.

    Clauses are appended most-severe first (report tags are already ordered);
    at most two are used and clauses are dropped from the back if the word
    budget would be exceeded. Re-running with an identical report returns the
    same text.
    """
    if not report.tags:
        return step.instruction
    clauses = [_clause_for(t, step) for t in report.tags[:2]]
    while clauses:
        suffix = " ".join(c + "." for c in clauses)
        if suffix in step.instruction:
            return step.instruction
        text = f"{step.instruction} {suffix}"
        if len(text.split()) <= max_words:
            return text
        clauses.pop()
    words = step.instruction.split()[:max_words]
    return " ".join(words)
