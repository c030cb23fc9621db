"""Reference-only definitions: the tests check the package against these.

Nothing in the package calls any of them. Each is either an independent
oracle for a fast path or a reader or view that only the tests need:

- `finite_diff_grad` is the central-difference gradient that every
  hand-written backward pass is checked against, always in float64;
- `net_input` builds net input rows [z | t | cond] in a given dtype, and
  `flow_matching_loss` is one SFT batch's loss and gradient through it, with
  every argument checked, in the dtype of the net's parameters: on a
  `NetParams` it runs the same float32 operations as `sft_train`, which
  validates its demos once and runs them on its own input rows, and on a
  float64 `PlainNet` it is the float64 oracle;
- `decode_frame` reads a frame back into plain dicts of predicate truth
  values and poses, thresholding predicate channels as the critic does;
- `channel_mask` is one step's block of the condition tails that
  `DomainSpec` compiles;
- `evaluate` scores one segment against its plan step: the one-row
  `evaluate_rows` call, which the critic's row contract and GRPO's group
  scores are checked against;
- `reference_rows` and `reference_score_group` are the critic as it was
  before `DomainSpec` compiled its tables: per group of rows of one
  operator (`step.op`), they read the operator, its acting entity, its
  literals' channels and the tags anew;
  the package's reports and columns are checked equal to theirs, bit for
  bit. `tag_dimension` is their tag reader;
- `aggregate` is the critic's weighted mean with its inputs checked;
- `load_suite` reads a suite that `save_suite` wrote.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from loopwm.bench import DIFFICULTIES, PromptSuite, SuiteTask
from loopwm.bench.suite import SUITE_FORMAT
from loopwm.critic import (
    DEFAULT_TAU,
    DEFAULT_WEIGHTS,
    DIMENSIONS,
    CriticReport,
    CriticWeights,
    evaluate_rows,
)
from loopwm.critic.scoring import (
    _MONO_EPS,
    CONTACT_RADIUS,
    MONOTONE_FRACTION,
    _hit_fraction,
    _realism,
    _row_mean,
    _second_difference_msd,
    _weighted_mean,
    coherence_score,
)
from loopwm.errors import LoopwmError, SuiteError
from loopwm.microworld import (
    DomainSpec,
    Literal,
    contact_window_frames,
    load_domain,
)
from loopwm.microworld.types import DECODE_THRESHOLD, Operator
from loopwm.numerics import (
    Tensor,
    net_activations,
    net_backward_batch,
    require_finite,
)
from loopwm.planner import Goal, PlanStep
from per_array import PlainNet


def finite_diff_grad(fn: Callable[[PlainNet], float], params, h: float = 1e-5) -> Tensor:
    """Central differences of a scalar objective over every parameter coordinate.

    Independent oracle for `net_backward_batch`-derived gradients; keep it free of
    any analytic-gradient code. `fn` is called with a float64 `PlainNet` copy
    of `params` whose coordinates move one at a time, so the objective runs
    in float64. Returns one float64 vector in the layout of `params.vector`.
    O(2 * n_params) objective evaluations, so use small nets.
    """
    if h <= 0:
        raise ValueError("step size h must be positive")
    work = PlainNet.float64(params)
    flat = work.vector
    grad = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = fn(work)
        flat[i] = orig - h
        f_minus = fn(work)
        flat[i] = orig
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def net_input(z: np.ndarray, t, cond: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Network input rows [z | t | cond], shape (n, L + 1 + C), of `dtype`.

    `z` is one latent of shape (L,) or n of them, (n, L). `t` is one time for
    every row or one per row, each in (0, 1]. `cond` is one condition (C,)
    shared by every row, or one per row, (n, C).
    """
    z = np.atleast_2d(np.asarray(z, dtype=dtype))
    t = np.asarray(t, dtype=dtype)
    if not np.all((t > 0.0) & (t <= 1.0)):
        raise LoopwmError(f"t must lie in (0, 1], got {t}")
    cond = np.asarray(cond, dtype=dtype)
    n, latent = z.shape
    x = np.empty((n, latent + 1 + cond.shape[-1]), dtype=dtype)
    x[:, :latent] = z
    x[:, latent] = t
    x[:, latent + 1:] = cond
    return x


def flow_matching_loss(theta, conds: np.ndarray, xs: np.ndarray,
                       ts: np.ndarray, eps: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared velocity error and its parameter gradient on one batch.

    The (t, eps) draws are explicit arguments so a finite-difference oracle
    can re-evaluate the exact same loss surface. Every array is cast to the
    dtype of `theta.vector` and the loss is summed in float64, as
    `sft_train` does. Every argument is checked: the batch arrays must agree
    on length, the net input must fit the net and be finite, and so must the
    net's output.
    """
    dtype = theta.vector.dtype
    conds = np.asarray(conds, dtype=dtype)
    xs = np.asarray(xs, dtype=dtype)
    ts = np.asarray(ts, dtype=dtype).reshape(-1, 1)
    eps = np.asarray(eps, dtype=dtype)
    if not (conds.shape[0] == xs.shape[0] == ts.shape[0] == eps.shape[0]):
        raise LoopwmError("batch arrays disagree on length")
    z_t = (1.0 - ts) * xs + ts * eps
    x = net_input(z_t, ts[:, 0], conds, dtype)
    if x.shape[1] != theta.sizes[0]:
        raise ValueError(f"input has shape {x.shape}, expected (n, {theta.sizes[0]})")
    require_finite(x, "net input")
    acts = net_activations(theta, x)
    require_finite(acts[-1], "net output")
    resid = acts[-1] - (eps - xs)
    return (float(np.sum(resid * resid, dtype=np.float64) / resid.size),
            net_backward_batch(theta, acts, 2.0 * resid / resid.size))


def decode_frame(spec: DomainSpec, frame: np.ndarray) -> tuple[dict[str, bool], dict[str, float]]:
    """(predicates, poses) by name: predicates thresholded at 0.5 (ties decode to true),
    poses clipped into [0, 1]."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape != (spec.n_channels,):
        raise ValueError(f"frame has shape {frame.shape}, expected ({spec.n_channels},)")
    preds = {pred: bool(frame[i] >= DECODE_THRESHOLD)
             for i, (pred, _) in enumerate(spec.predicates)}
    poses = {}
    for obj in spec.movable_entities():
        for axis in ("x", "y"):
            ch = f"{obj}.{axis}"
            poses[ch] = float(np.clip(frame[spec.channel_index[ch]], 0.0, 1.0))
    return preds, poses


def channel_mask(spec: DomainSpec, step: PlanStep) -> np.ndarray:
    """1.0 on channels the step should change: post predicates and moving poses."""
    n_ops = len(spec.operators)
    return spec.condition_tails[step.op, 0, n_ops:-1].copy()


def evaluate(
    spec: DomainSpec,
    frames: np.ndarray,
    step: PlanStep,
    weights: CriticWeights = DEFAULT_WEIGHTS,
    tau: float = DEFAULT_TAU,
) -> CriticReport:
    """Score one generated segment's (F, C) frames against its plan step."""
    return evaluate_rows(spec, [frames], [step], weights, tau)[0]


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

def reference_rows(
    spec: DomainSpec,
    frames: Sequence[np.ndarray],
    steps: Sequence[PlanStep],
    weights: CriticWeights = DEFAULT_WEIGHTS,
    tau: float = DEFAULT_TAU,
) -> list[CriticReport]:
    """Score row i, frames of shape (F, C), against steps[i]; one report per row, in order.

    Rows whose steps share an operator and whose frames share a shape form
    a group, stacked and scored by `reference_score_group`; each report is
    built under its own step.
    """
    if len(frames) != len(steps):
        raise ValueError(f"{len(frames)} rows of frames but {len(steps)} steps")
    groups: dict[tuple, list[int]] = {}
    for i, (row, step) in enumerate(zip(frames, steps)):
        groups.setdefault((step.op, np.shape(row)), []).append(i)
    reports: list[CriticReport | None] = [None] * len(steps)
    for rows in groups.values():
        block = np.asarray([frames[i] for i in rows], dtype=np.float64)
        group = _score_group(spec, block, steps[rows[0]], weights, tau)
        for i, report in zip(rows, group):
            reports[i] = report
    return reports


@dataclass(frozen=True)
class ReferenceScores:
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


def reference_score_group(
    spec: DomainSpec,
    frames: np.ndarray,
    step: PlanStep,
    weights: CriticWeights = DEFAULT_WEIGHTS,
) -> ReferenceScores:
    """Score G rows, frames of shape (G, F, C), against one plan step, as columns.

    Every call reads the step's operator, its acting entity and the channels
    of its literals anew; `reference_rows` builds its reports from the columns.
    """
    if frames.ndim != 3:
        raise ValueError(f"each row must be 2-D (frames, channels), got shape {frames.shape[1:]}")
    if frames.shape[2] != spec.n_channels:
        raise ValueError(
            f"segment has {frames.shape[2]} channels, domain {spec.name!r} has {spec.n_channels}"
        )
    if frames.shape[1] < 2:
        raise ValueError("segments need at least 2 frames to score")
    op = spec.operators[step.op]

    post_lits, post_hits = _literal_hits(spec, frames[:, -1], op.post)
    pre_lits, pre_hits = _literal_hits(spec, frames[:, 0], op.pre)
    goal_scores = _hit_fraction(post_hits)
    monos = _progress_monotone_fraction(frames, op.post, spec)
    mono_scores = np.where(monos >= MONOTONE_FRACTION, 1.0, monos / MONOTONE_FRACTION)
    interactions, applicable = _interaction(spec, frames, op)
    scores = {
        "action_adherence": (_hit_fraction(pre_hits) + goal_scores + mono_scores) / 3.0,
        "object_interaction": interactions,
        "goal_achievement": goal_scores,
        "temporal_coherence": coherence_score(_second_difference_msd(frames)),
        "physical_realism": _realism(frames),
    }
    return ReferenceScores(scores, _weighted_mean(scores, weights), applicable, post_lits,
                       post_hits, pre_lits, pre_hits)


def _score_group(
    spec: DomainSpec,
    frames: np.ndarray,
    step: PlanStep,
    weights: CriticWeights,
    tau: float,
) -> list[CriticReport]:
    """One report per row of frames (G, F, C) of one operator."""
    scored = reference_score_group(spec, frames, step, weights)
    scores = zip(*(scored.scores[d].tolist() for d in DIMENSIONS))
    rows = zip(scores, scored.scalar.tolist(), scored.post_hits.tolist(),
               scored.pre_hits.tolist())
    return [
        _report(tau, scored.applicable, dict(zip(DIMENSIONS, row_scores)), scalar,
                dict(zip(scored.post_lits, post_hit)), dict(zip(scored.pre_lits, pre_hit)))
        for row_scores, scalar, post_hit, pre_hit in rows
    ]


def _report(
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
    return CriticReport(scores, tuple(tags), scalar, applicable)


def aggregate(scores: dict[str, float], weights: CriticWeights = DEFAULT_WEIGHTS) -> float:
    """Weighted mean of the five dimension scores, each checked present and in [0, 1]."""
    missing = [d for d in DIMENSIONS if d not in scores]
    if missing:
        raise ValueError(f"scores missing dimensions: {missing}")
    for d in DIMENSIONS:
        if not 0.0 <= scores[d] <= 1.0:
            raise ValueError(f"{d} score {scores[d]} outside [0, 1]")
    w = weights.as_dict()
    total = sum(w.values())
    return sum(w[d] * scores[d] for d in DIMENSIONS) / total


def load_suite(path: str | Path, spec: DomainSpec | None = None) -> PromptSuite:
    """Read a saved suite; loads the builtin domain unless a spec is passed."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SuiteError(f"cannot read suite file {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != SUITE_FORMAT:
        raise SuiteError(f"{path} is not a {SUITE_FORMAT} file")
    domain = payload.get("domain", "")
    if spec is None:
        spec = load_domain(domain)
    elif spec.name != domain:
        raise SuiteError(f"suite was built for domain {domain!r}, got spec {spec.name!r}")
    tasks = []
    for i, row in enumerate(payload.get("tasks", [])):
        try:
            literals = tuple(Literal(pred, bool(value)) for pred, value in row["literals"])
            task = SuiteTask(
                Goal(literals, row.get("text", "")),
                row["difficulty"],
                int(row["min_steps"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SuiteError(f"{path}: malformed task {i}: {exc}") from exc
        if task.difficulty not in DIFFICULTIES:
            raise SuiteError(f"{path}: task {i} has unknown difficulty {task.difficulty!r}")
        tasks.append(task)
    return PromptSuite(spec, tuple(tasks))
