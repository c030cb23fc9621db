"""Per-row and record-array references for the GRPO group arrays.

The package keeps a rollout group as arrays from the sampler to the update:
`sample_group` writes every transition into (G, K) arrays (`Transitions`),
and `objective_terms` reads them as they are. These are the versions the
package had before, and the one-transition densities they were checked
against:

- `gaussian_logpdf` and `gaussian_logpdf_rows` are the normal log-densities
  with a shared scalar std;
- `trace_dtype` and `DenoiseTrace` are the record-array trace: one record
  per transition with fields `t`, `dt`, `std`, `logp`, `z` and `z_next`,
  and the condition kept beside the records;
- `transition_mean`, `transition_logprob` and `kl_term` recompute one
  record's transition mean, its log-density, and one trace's KL, in
  float64;
- `sample_group_records` is the sampler that wrote those records column by
  column: each step's state update in float32, as the package runs it, and
  its density in float64, one `gaussian_logpdf_rows` call per denoise step
  around the mean's affine form a*z + c*u (`mean_affine_coeffs`), which the
  package's `mean_terms` evaluates for every step at once;
- `objective_terms_records` is the objective that concatenated the members'
  records, rebuilt the net input (in `DTYPE`) and repeated each member's
  condition;
- `as_records` and `as_record_group` copy a package trace, or a package
  group, into that record form.

The record sampler and objective do the same float operations in the same
order as the package, so results must be equal bit for bit, not merely
close.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from loopwm.errors import DivergenceError, LoopwmError
from loopwm.grpo import ObjectiveTerms, surrogate_rows
from loopwm.numerics import DTYPE, net_activations, net_backward_batch
from loopwm.numerics.tensor import LOG_2PI
from loopwm.worldmodel import mean_affine_coeffs, score_term
from oracles import net_input


def gaussian_logpdf(x, mean, std: float) -> float:
    """Sum of elementwise normal log-densities with a shared scalar std."""
    x = np.asarray(x, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    if x.shape != mean.shape:
        raise ValueError(f"x shape {x.shape} does not match mean shape {mean.shape}")
    return float(gaussian_logpdf_rows(x.reshape(1, -1), mean.reshape(1, -1), std)[0])


def gaussian_logpdf_rows(x, mean, std: float):
    """`gaussian_logpdf` of each row of the (n, L) arrays x and mean, shape (n,)."""
    if not std > 0.0:
        raise ValueError(f"std must be positive, got {std}")
    z = (x - mean) / std
    n = x.shape[1]
    return -0.5 * LOG_2PI * n - n * math.log(std) - 0.5 * np.sum(z * z, axis=1)


@cache
def trace_dtype(latent: int) -> np.dtype:
    """Record layout of one denoising transition at latent width `latent`."""
    return np.dtype([("t", "f8"), ("dt", "f8"), ("std", "f8"), ("logp", "f8"),
                     ("z", "f8", (latent,)), ("z_next", "f8", (latent,))])


@dataclass
class DenoiseTrace:
    """Full record of one SDE rollout: the condition and its (K,) transitions."""

    cond: np.ndarray
    steps: np.ndarray


def transition_mean(theta, step, cond):
    """Recompute a trace record's transition mean under fresh parameters.

    The std never depends on theta, so callers reuse step["std"].
    """
    t, dt, std, z = step["t"], step["dt"], step["std"], step["z"]
    u = net_activations(theta, net_input(z, t, cond))[-1][0]
    x_pred = z - t * u
    eta_sq = (std * std) / dt
    drift = u - 0.5 * eta_sq * score_term(z, x_pred, t)
    return z - drift * dt


def transition_logprob(theta, step, cond) -> float:
    """Log-density of the recorded next state under theta's transition mean."""
    if step["std"] <= 0.0:
        raise LoopwmError(
            "transition has degenerate std; stochastic sampling (eta_scale > 0) "
            "is required for likelihood ratios"
        )
    mean = transition_mean(theta, step, cond)
    return gaussian_logpdf(step["z_next"], mean, step["std"])


def kl_term(theta, reference, trace: DenoiseTrace) -> float:
    """Mean over denoise steps of the Gaussian KL between theta and reference.

    Both transition kernels share the recorded std, so each step reduces to
    ||mu_theta - mu_ref||^2 / (2 std^2).
    """
    steps = trace.steps
    if len(steps) == 0:
        raise LoopwmError("kl_term needs a non-empty trace")
    if np.any(steps["std"] <= 0.0):
        raise LoopwmError("kl_term needs stochastic trace steps (std > 0)")
    total = 0.0
    for ts in steps:
        diff = (transition_mean(theta, ts, trace.cond)
                - transition_mean(reference, ts, trace.cond))
        total += float(diff @ diff) / (2.0 * ts["std"] * ts["std"])
    return float(total / len(steps))


def sample_group_records(theta, cond, z_init, config, noise):
    """The record-array sampler: [((F, C) frames, DenoiseTrace)] per row.

    Takes inputs that pass the package's row contract and casts them to
    `DTYPE`; writes denoise step k's column of one (G, K) record array field
    by field, and raises at the first non-finite state.
    """
    cond = np.asarray(cond, dtype=DTYPE)
    z = np.array(z_init, dtype=DTYPE, ndmin=2)
    if noise is not None:
        noise = np.asarray(noise, dtype=DTYPE)
        rows = noise.shape[0]
    else:
        rows = max(z.shape[0], cond.shape[0] if cond.ndim == 2 else 1)
    if z.shape[0] != rows:
        z = np.tile(z, (rows, 1))
    latent = theta.sizes[-1]
    steps = np.zeros((rows, config.k_steps), dtype=trace_dtype(latent))
    steps["dt"] = 1.0 / config.k_steps
    stochastic = config.eta_scale > 0.0
    x = net_input(z, 1.0, cond, DTYPE)
    dt = 1.0 / config.k_steps
    for k, t in enumerate(config.time_grid()):
        x[:, :latent] = z
        x[:, latent] = t
        u = net_activations(theta, x)[-1]
        if not stochastic:
            z_next = z - u * dt
        else:
            x_pred = z - t * u
            eta = config.eta_scale * math.sqrt(t)
            drift = u - 0.5 * eta * eta * score_term(z, x_pred, t)
            std = eta * math.sqrt(dt)
            z_next = (z - drift * dt) + std * noise[:, k]
        column = steps[:, k]
        column["t"] = x[0, latent]
        column["z"] = z
        column["z_next"] = z_next
        if stochastic:
            column["std"] = std
            scale, coeff = mean_affine_coeffs(x[0, latent], dt, std)
            column["logp"] = gaussian_logpdf_rows(z_next, z * scale + coeff * u, std)
        z = z_next
        if not np.isfinite(z).all():
            raise DivergenceError("sampler state went non-finite")
    return [(np.array(z[i]).reshape(config.n_frames, -1),
             DenoiseTrace(cond=cond if cond.ndim == 1 else cond[i], steps=steps[i]))
            for i in range(rows)]


@dataclass(frozen=True)
class RecordMember:
    trace: DenoiseTrace


@dataclass(frozen=True)
class RecordGroup:
    """A group in record form: one `RecordMember` per member, and the advantages."""

    members: tuple[RecordMember, ...]
    advantages: np.ndarray


def as_records(trace) -> DenoiseTrace:
    """One row's (K,) package `Transitions`, copied into a record trace."""
    k_steps = trace.steps.shape[0]
    latent = trace.z_next.shape[1]
    steps = np.zeros(k_steps, dtype=trace_dtype(latent))
    steps["t"] = trace.steps[:, latent]
    steps["dt"] = 1.0 / k_steps
    steps["std"] = trace.std
    steps["logp"] = trace.logp
    steps["z"] = trace.steps[:, :latent]
    steps["z_next"] = trace.z_next
    return DenoiseTrace(trace.steps[0, latent + 1:].copy(), steps)


def as_record_group(group) -> RecordGroup:
    """A package `RolloutGroup` in record form, one record trace per member."""
    members = tuple(RecordMember(as_records(group.trace.row(i)))
                    for i in range(len(group.advantages)))
    return RecordGroup(members, np.asarray(group.advantages))


def objective_terms_records(theta, reference, group, config) -> ObjectiveTerms:
    """The record-array objective: the members' records concatenated, in member order."""
    advantages = np.asarray(group.advantages, dtype=np.float64)
    members = group.members
    k_steps = len(members[0].trace.steps)
    if any(len(m.trace.steps) != k_steps for m in members):
        raise LoopwmError("all group traces must share the same number of denoise steps")

    rows = np.concatenate([m.trace.steps for m in members])
    t, dt, std, z, z_next = rows["t"], rows["dt"], rows["std"], rows["z"], rows["z_next"]
    if np.any(std <= 0.0):
        raise LoopwmError("grpo update needs stochastic traces (std > 0)")
    adv = np.repeat(advantages, k_steps)
    cond = np.repeat(np.stack([m.trace.cond for m in members]), k_steps, axis=0)
    latent = z.shape[1]

    x = net_input(z, t, cond, DTYPE)
    scale, coeff = mean_affine_coeffs(t, dt, std)
    base = z * scale[:, None]
    coeff = coeff[:, None]
    std = std[:, None]

    acts = net_activations(theta, x)
    u_ref = net_activations(reference, x)[-1]
    mean_theta = base + coeff * acts[-1]
    mean_ref = base + coeff * u_ref
    resid = z_next - mean_theta
    logp_theta = (
        -0.5 * LOG_2PI * latent
        - latent * np.log(std[:, 0])
        - 0.5 * np.sum((resid / std) ** 2, axis=1)
    )
    with np.errstate(over="ignore"):
        ratios = np.exp(logp_theta - rows["logp"])

    member_rows = ratios.reshape(len(members), k_steps)
    finite = np.isfinite(member_rows).all(axis=1)
    kept = tuple(i for i in range(len(members)) if finite[i])
    dropped = len(members) - len(kept)
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
    out_grads = (coeff * weight / n_rows).astype(DTYPE)
    grads = net_backward_batch(theta, acts, out_grads)
    return ObjectiveTerms(
        value=value, surrogate=surrogate, kl=kl, grads=grads,
        clip_fraction=clip_fraction, ratios=ratios, kept=kept, dropped=dropped,
    )
