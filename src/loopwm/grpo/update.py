"""Clipped importance-weighted surrogate with a KL pull toward the reference.

Ratios are formed per denoise step rather than per whole trace: a product of
K Gaussian likelihood ratios under- or overflows long before it is useful,
while per-step ratios stay near 1 and give the clip a clean interpretation.
The surrogate is averaged over steps and members; the KL term is the
closed-form Gaussian divergence against the frozen reference, averaged the
same way. The objective reads the group's trace records as they are: the
members' (K,) rows, concatenated, are its G*K rows, and each row is scored
under the condition its own trace recorded. A group is its members plus
their advantages, and `grpo_update` reports the `ObjectiveTerms` it stepped
along.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..errors import LoopwmError
from ..numerics import (
    NetParams,
    OptState,
    net_activations,
    net_backward_batch,
    net_forward_batch,
    opt_init,
    opt_step,
)
from ..numerics.stats import LOG_2PI
from ..worldmodel import mean_affine_coeffs, net_input, transition_mean
from .config import GrpoConfig
from .rollout import RolloutGroup

__all__ = [
    "ObjectiveTerms",
    "grpo_update",
    "kl_term",
    "objective_terms",
    "surrogate_rows",
]

_log = logging.getLogger(__name__)


def surrogate_rows(
    ratios: np.ndarray, advantages: np.ndarray, epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row clipped surrogate min(rho*A, clip(rho)*A) and the binding mask.

    The mask marks rows where the clipped branch is strictly selected, i.e.
    where the gradient through the ratio is cut off.
    """
    ratios = np.asarray(ratios, dtype=np.float64)
    advantages = np.asarray(advantages, dtype=np.float64)
    clipped_ratio = np.clip(ratios, 1.0 - epsilon, 1.0 + epsilon)
    values = np.minimum(ratios * advantages, clipped_ratio * advantages)
    binding = ((advantages > 0.0) & (ratios > 1.0 + epsilon)) | (
        (advantages < 0.0) & (ratios < 1.0 - epsilon)
    )
    return values, binding


def kl_term(theta: NetParams, reference: NetParams, trace, delta: float) -> float:
    """Mean over denoise steps of the Gaussian KL between theta and reference.

    Both transition kernels share the recorded std, so each step reduces to
    ||mu_theta - mu_ref||^2 / (2 std^2). Nonnegative, zero exactly when the
    two nets produce identical means along the trace.
    """
    steps = trace.steps
    if len(steps) == 0:
        raise LoopwmError("kl_term needs a non-empty trace")
    if np.any(steps["std"] <= 0.0):
        raise LoopwmError("kl_term needs stochastic trace steps (std > 0)")
    total = 0.0
    for ts in steps:
        diff = (transition_mean(theta, ts, trace.cond, delta=delta)
                - transition_mean(reference, ts, trace.cond, delta=delta))
        total += float(diff @ diff) / (2.0 * ts["std"] * ts["std"])
    return float(total / len(steps))


@dataclass(frozen=True)
class ObjectiveTerms:
    """Value and gradient of the GRPO objective for one group."""

    value: float
    surrogate: float
    kl: float
    grads: np.ndarray
    clip_fraction: float
    ratios: np.ndarray
    kept: tuple[int, ...]
    dropped: int

    @property
    def skipped(self) -> bool:
        """True when every member was dropped, so there is nothing to step along."""
        return not self.kept


def objective_terms(
    theta: NetParams,
    reference: NetParams,
    group: RolloutGroup,
    config: GrpoConfig,
    delta: float,
) -> ObjectiveTerms:
    """Evaluate surrogate - beta*KL and its parameter gradient for one group.

    Each row is scored under the condition its member's trace recorded, and
    `delta` is the sigma floor the sampler used, so each recomputed
    transition mean matches the one the trace was drawn from.

    Members whose ratios go non-finite are dropped with a warning and excluded
    from every average. Gradients flow only through rows where the clip does
    not bind; clipped rows still count toward the surrogate value.
    """
    advantages = np.asarray(group.advantages, dtype=np.float64)
    members = group.members
    k_steps = len(members[0].trace.steps)
    if any(len(m.trace.steps) != k_steps for m in members):
        raise LoopwmError("all group traces must share the same number of denoise steps")

    # rows run member-major, step-minor
    rows = np.concatenate([m.trace.steps for m in members])
    t, dt, std, z, z_next = rows["t"], rows["dt"], rows["std"], rows["z"], rows["z_next"]
    if np.any(std <= 0.0):
        raise LoopwmError("grpo update needs stochastic traces (std > 0)")
    adv = np.repeat(advantages, k_steps)
    cond = np.repeat(np.stack([m.trace.cond for m in members]), k_steps, axis=0)
    latent = z.shape[1]

    x = net_input(z, t, cond)
    # transition mean is affine in the velocity: mean = base + coeff * u
    scale, coeff = mean_affine_coeffs(t, dt, std, delta=delta)
    base = z * scale[:, None]
    coeff = coeff[:, None]
    std = std[:, None]

    acts = net_activations(theta, x)
    u_ref = net_forward_batch(reference, x)
    mean_theta = base + coeff * acts[-1]
    mean_ref = base + coeff * u_ref
    resid = z_next - mean_theta
    logp_theta = (
        -0.5 * LOG_2PI * latent
        - latent * np.log(std[:, 0])
        - 0.5 * np.sum((resid / std) ** 2, axis=1)
    )
    # overflow to inf is fine here: the member gets dropped just below
    with np.errstate(over="ignore"):
        ratios = np.exp(logp_theta - rows["logp"])

    member_rows = ratios.reshape(len(members), k_steps)
    finite = np.isfinite(member_rows).all(axis=1)
    kept = tuple(i for i in range(len(members)) if finite[i])
    dropped = len(members) - len(kept)
    for i in range(len(members)):
        if not finite[i]:
            _log.warning("dropping rollout member %d: non-finite importance ratio", i)
    if not kept:
        return ObjectiveTerms(
            value=0.0, surrogate=0.0, kl=0.0, grads=np.empty(0), clip_fraction=0.0,
            ratios=np.empty(0), kept=(), dropped=dropped,
        )

    keep_rows = np.repeat(finite, k_steps)
    acts = [a[keep_rows] for a in acts]
    coeff, std, adv = coeff[keep_rows], std[keep_rows], adv[keep_rows]
    mean_theta, mean_ref, resid = mean_theta[keep_rows], mean_ref[keep_rows], resid[keep_rows]
    ratios = ratios[keep_rows]
    n_rows = ratios.size

    values, binding = surrogate_rows(ratios, adv, config.epsilon)
    surrogate = float(values.mean())
    clip_fraction = float(binding.mean())

    mean_diff = mean_theta - mean_ref
    kl = float(np.sum(mean_diff * mean_diff / (2.0 * std * std)) / n_rows)
    value = surrogate - config.beta * kl

    flow = (~binding).astype(np.float64)[:, None]
    weight = (flow * adv[:, None] * ratios[:, None] * resid - config.beta * mean_diff) / (
        std * std
    )
    out_grads = coeff * weight / n_rows
    grads = net_backward_batch(theta, acts, out_grads)
    return ObjectiveTerms(
        value=value, surrogate=surrogate, kl=kl, grads=grads,
        clip_fraction=clip_fraction, ratios=ratios, kept=kept, dropped=dropped,
    )


def grpo_update(
    bundle,
    group: RolloutGroup,
    config: GrpoConfig,
    opt_state: OptState | None = None,
    *,
    delta: float,
) -> tuple[NetParams, OptState, ObjectiveTerms]:
    """One ascent step on the group objective; updates bundle.theta in place.

    Returns (theta, opt_state, terms), where terms are the objective's terms
    at the parameters before the step. When every member is dropped the
    update is skipped (`terms.skipped`) and parameters pass through unchanged.
    """
    if opt_state is None:
        opt_state = opt_init(bundle.theta)
    terms = objective_terms(bundle.theta, bundle.reference, group, config, delta)
    if terms.skipped:
        _log.warning("skipping update: all %d members dropped", terms.dropped)
    else:
        # opt_step descends, so feed the negated ascent gradient; a sign
        # flip is exact, so this is the same step as ascending along grads
        opt_step(bundle.theta, -terms.grads, opt_state, lr=config.lr)
    return bundle.theta, opt_state, terms
