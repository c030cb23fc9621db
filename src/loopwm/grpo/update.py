"""Clipped importance-weighted surrogate with a KL pull toward the reference.

Ratios are formed per denoise step rather than per whole trace: a product of
K Gaussian likelihood ratios under- or overflows long before it is useful,
while per-step ratios stay near 1 and give the clip a clean interpretation.
The surrogate is averaged over steps and members; the KL term is the
closed-form Gaussian divergence against the frozen reference, averaged the
same way. The objective reads the group's arrays as the sampler wrote them:
its G*K rows are the (G, K) transitions reshaped, member-major and
step-minor, and its net input is the sampler's own (G, K, W) input block
reshaped to (G*K, W), so each row is scored under the condition and time it
was sampled at, and nothing is copied or rebuilt. Every member shares the
sampler's time grid, so the terms that depend on the step alone (the mean's
affine coefficients, the std and the density's normalizer) are computed once
per step and broadcast over the members. The nets run in float32 (`DTYPE`);
the transition means, log-densities, ratios, KL and output gradient are
float64: the means are affine in the net output, with the terms the sampler
computed once with `mean_terms` and carried on the trace, the log-densities
come from the sampler's own `transition_logp`, and the output gradient is
cast to `DTYPE` for the backward alone.
`grpo_update` reports the `ObjectiveTerms` it stepped along.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..errors import LoopwmError
from ..numerics import (
    DTYPE,
    NetParams,
    OptState,
    net_activations,
    net_backward_batch,
    opt_init,
    opt_step,
    require_finite,
)
from ..worldmodel import transition_logp
from .config import GrpoConfig
from .rollout import RolloutGroup

__all__ = [
    "ObjectiveTerms",
    "grpo_update",
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
    out: NetParams | None = None,
) -> ObjectiveTerms:
    """Evaluate surrogate - beta*KL and its parameter gradient for one group.

    Each row is scored under the condition and time it was sampled at, and
    its mean is affine in the net output with the terms the trace carries
    (`trace.base`, `trace.coeff`), the ones the sampler drew the row with,
    so each recomputed transition mean matches the one the trace was drawn
    from.

    A non-finite output of theta's or the reference's net raises
    NumericError. Members whose ratios go non-finite are dropped with a
    warning and excluded from every average. Gradients flow only through
    rows where the clip does not bind; clipped rows still count toward the
    surrogate value. The gradient is written into `out` when it is given,
    as by `net_backward_batch`, and allocated otherwise.
    """
    trace = group.trace
    n_members, k_steps, width = trace.steps.shape
    latent = trace.z_next.shape[2]
    if np.any(trace.std <= 0.0):
        raise LoopwmError("grpo update needs stochastic traces (std > 0)")

    # the nets read the G*K rows member-major, step-minor; everything else
    # is a (G, K, .) view, and what depends on the step alone is computed
    # once per step and broadcast over the members
    x = trace.steps.reshape(n_members * k_steps, width)
    adv = np.asarray(group.advantages, dtype=np.float64)[:, None]

    # transition mean is affine in the velocity: mean = base + coeff * u
    base, coeff = trace.base, trace.coeff
    std = trace.std[:, None]

    acts = net_activations(theta, x)
    require_finite(acts[-1], "net output")
    u_ref = net_activations(reference, x)[-1]
    require_finite(u_ref, "net output")
    mean_theta = base + coeff * acts[-1].reshape(n_members, k_steps, latent)
    mean_ref = base + coeff * u_ref.reshape(n_members, k_steps, latent)
    resid = trace.z_next - mean_theta
    logp_theta = transition_logp(resid, trace.std)
    # overflow to inf is fine here: the member gets dropped just below
    with np.errstate(over="ignore"):
        ratios = np.exp(logp_theta - trace.logp)

    finite = np.isfinite(ratios).all(axis=1)
    kept = tuple(i for i in range(n_members) if finite[i])
    dropped = n_members - len(kept)
    if dropped:
        for i in np.flatnonzero(~finite):
            _log.warning("dropping rollout member %d: non-finite importance ratio", i)
        if not kept:
            return ObjectiveTerms(
                value=0.0, surrogate=0.0, kl=0.0, grads=np.empty(0, dtype=DTYPE),
                clip_fraction=0.0,
                ratios=np.empty(0), kept=(), dropped=dropped,
            )
        keep_rows = np.repeat(finite, k_steps)
        acts = [a[keep_rows] for a in acts]
        adv, ratios = adv[finite], ratios[finite]
        mean_theta, mean_ref, resid = mean_theta[finite], mean_ref[finite], resid[finite]
    n_rows = ratios.size

    values, binding = surrogate_rows(ratios, adv, config.epsilon)
    surrogate = float(values.mean())
    clip_fraction = float(binding.mean())

    mean_diff = mean_theta - mean_ref
    kl = float(np.sum(mean_diff * mean_diff / (2.0 * std * std)) / n_rows)
    value = surrogate - config.beta * kl

    flow = (~binding).astype(np.float64)[:, :, None]
    weight = (flow * adv[:, :, None] * ratios[:, :, None] * resid
              - config.beta * mean_diff) / (std * std)
    out_grads = (coeff * weight / n_rows).reshape(n_rows, latent).astype(DTYPE)
    grads = net_backward_batch(theta, acts, out_grads, out=out)
    return ObjectiveTerms(
        value=value, surrogate=surrogate, kl=kl, grads=grads,
        clip_fraction=clip_fraction, ratios=ratios.reshape(-1), kept=kept, dropped=dropped,
    )


def grpo_update(
    bundle,
    group: RolloutGroup,
    config: GrpoConfig,
    opt_state: OptState | None = None,
) -> tuple[NetParams, OptState, ObjectiveTerms]:
    """One ascent step on the group objective; updates bundle.theta in place.

    Returns (theta, opt_state, terms), where terms are the objective's terms
    at the parameters before the step. `terms.grads` is the optimizer's own
    gradient vector, `opt_state.grad.vector`, so the next update overwrites
    it. When every member is dropped the update is skipped (`terms.skipped`)
    and parameters pass through unchanged.
    """
    if opt_state is None:
        opt_state = opt_init(bundle.theta)
    terms = objective_terms(bundle.theta, bundle.reference, group, config, out=opt_state.grad)
    if terms.skipped:
        _log.warning("skipping update: all %d members dropped", terms.dropped)
    else:
        # opt_step descends, so ascend with the step size negated: a sign
        # flip is exact, so this is the step along -grads at lr, bit for bit
        opt_step(bundle.theta, terms.grads, opt_state, lr=-config.lr)
    return bundle.theta, opt_state, terms
