"""Reference-only definitions: the tests check the package against these.

Nothing in the package calls any of them. Each is either an independent
oracle for a fast path or a reader or view that only the tests need:

- `finite_diff_grad` is the central-difference gradient that every
  hand-written backward pass is checked against;
- `net_input` builds net input rows [z | t | cond], and
  `flow_matching_loss` is one SFT batch's loss and gradient through it, with
  every argument checked; `sft_train` validates its demos once and runs the
  same float operations on its own input rows;
- `decode_frame` reads a frame back into a symbolic state, thresholding
  predicate channels as the critic does;
- `channel_mask` is one step's block of the condition tails that
  `DomainSpec` compiles;
- `evaluate` scores one segment against its plan step: the one-row
  `evaluate_rows` call, which the critic's row contract and GRPO's group
  scores are checked against;
- `aggregate` is the critic's weighted mean with its inputs checked;
- `load_suite` reads a suite that `save_suite` wrote.
"""

from __future__ import annotations

import json
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
from loopwm.errors import LoopwmError, SuiteError
from loopwm.microworld import DomainSpec, Literal, Segment, SymbolicState, load_domain
from loopwm.microworld.frames import DECODE_THRESHOLD
from loopwm.numerics import (
    NetParams,
    Tensor,
    clone_params,
    net_activations,
    net_backward_batch,
    require_finite,
)
from loopwm.planner import Goal, PlanStep


def finite_diff_grad(
    fn: Callable[[NetParams], float], params: NetParams, h: float = 1e-5
) -> Tensor:
    """Central differences of a scalar objective over every parameter coordinate.

    Independent oracle for `net_backward_batch`-derived gradients; keep it free of
    any analytic-gradient code. Returns one vector in the layout of
    `params.vector`. O(2 * n_params) objective evaluations, so use small nets.
    """
    if h <= 0:
        raise ValueError("step size h must be positive")
    work = clone_params(params)
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


def net_input(z: np.ndarray, t, cond: np.ndarray) -> np.ndarray:
    """Network input rows [z | t | cond], shape (n, L + 1 + C).

    `z` is one latent of shape (L,) or n of them, (n, L). `t` is one time for
    every row or one per row, each in (0, 1]. `cond` is one condition (C,)
    shared by every row, or one per row, (n, C).
    """
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    t = np.asarray(t, dtype=np.float64)
    if not np.all((t > 0.0) & (t <= 1.0)):
        raise LoopwmError(f"t must lie in (0, 1], got {t}")
    cond = np.asarray(cond, dtype=np.float64)
    n, latent = z.shape
    x = np.empty((n, latent + 1 + cond.shape[-1]))
    x[:, :latent] = z
    x[:, latent] = t
    x[:, latent + 1:] = cond
    return x


def flow_matching_loss(theta: NetParams, conds: np.ndarray, xs: np.ndarray,
                       ts: np.ndarray, eps: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared velocity error and its parameter gradient on one batch.

    The (t, eps) draws are explicit arguments so a finite-difference oracle
    can re-evaluate the exact same loss surface. Every argument is checked:
    the batch arrays must agree on length, the net input must fit the net
    and be finite, and so must the net's output.
    """
    conds = np.asarray(conds, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    ts = np.asarray(ts, dtype=np.float64).reshape(-1, 1)
    eps = np.asarray(eps, dtype=np.float64)
    if not (conds.shape[0] == xs.shape[0] == ts.shape[0] == eps.shape[0]):
        raise LoopwmError("batch arrays disagree on length")
    z_t = (1.0 - ts) * xs + ts * eps
    x = net_input(z_t, ts[:, 0], conds)
    if x.shape[1] != theta.sizes[0]:
        raise ValueError(f"input has shape {x.shape}, expected (n, {theta.sizes[0]})")
    require_finite(x, "net input")
    acts = net_activations(theta, x)
    require_finite(acts[-1], "net output")
    resid = acts[-1] - (eps - xs)
    return (float(np.sum(resid * resid) / resid.size),
            net_backward_batch(theta, acts, 2.0 * resid / resid.size))


def decode_frame(spec: DomainSpec, frame: np.ndarray) -> SymbolicState:
    """Threshold predicates at 0.5 (ties decode to true); clip poses into [0, 1]."""
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
    return SymbolicState(preds, poses)


def channel_mask(spec: DomainSpec, step: PlanStep) -> np.ndarray:
    """1.0 on channels the step should change: post predicates and moving poses."""
    n_ops = len(spec.operators)
    return spec.condition_tails[spec.operator_id(step.actions[0]), 0, n_ops:-1].copy()


def evaluate(
    spec: DomainSpec,
    segment: Segment,
    step: PlanStep,
    weights: CriticWeights = DEFAULT_WEIGHTS,
    tau: float = DEFAULT_TAU,
) -> CriticReport:
    """Score one generated segment against its plan step."""
    return evaluate_rows(spec, [segment.frames], [step], weights, tau)[0]


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
    start = spec.initial_state()
    tasks = []
    for i, row in enumerate(payload.get("tasks", [])):
        try:
            literals = tuple(Literal(pred, bool(value)) for pred, value in row["literals"])
            task = SuiteTask(
                Goal(literals, row.get("text", "")),
                start,
                row["difficulty"],
                int(row["min_steps"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SuiteError(f"{path}: malformed task {i}: {exc}") from exc
        if task.difficulty not in DIFFICULTIES:
            raise SuiteError(f"{path}: task {i} has unknown difficulty {task.difficulty!r}")
        tasks.append(task)
    return PromptSuite(spec, tuple(tasks))
