"""Segment samplers for the velocity-field policy.

Noise convention: a segment is generated as one flat vector of width F*d.
Latents follow z_t = (1-t)*x0 + t*eps, so t=1 is pure noise and t=0 is data.
The network predicts the velocity u = dz/dt (target eps - x0); generation
integrates from t=1 down to t=0 on a uniform grid with step dt = 1/K.

The stochastic sampler adds the analytic score correction

    dz = [u - 0.5*eta_t^2 * score] dt + eta_t dW,   eta_t = a*sqrt(t)

with score = -(z - alpha_t*x_pred)/sigma_t^2, alpha_t = 1-t,
sigma_t = max(t, SIGMA_FLOOR), and the rectified-flow identity x_pred = z - t*u.
The grid's smallest t is 1/K, so the floor binds only from K = 1001 on.
Every stochastic transition is Gaussian with mean z - drift*dt and
std eta_t*sqrt(dt); traces record enough per step to recompute the mean
under fresh parameters, which is what importance ratios need.

Every state, net input and noise array is `DTYPE` (float32): `_inputs`
casts the caller's condition, initial latents and float64 noise draws once,
and the step updates stay in that dtype. Only the densities are float64.

A segment's latent is the net's output, of width L = `theta.sizes[-1]`, which
holds the F frames of C channels each; the config fixes F, the net fixes L.

A group's trace is a `Transitions` of arrays, the layout the GRPO objective
reads: `steps` (G, K, W) holds the net input [z | t | cond] of every row at
every denoise step, `z_next` (G, K, L) each step's next state, `std` (K,)
each step's std, `logp` (G, K) each transition's log-density, and `base`
(G, K, L) and `coeff` (K, 1) the float64 terms of `mean_terms`, with which
a transition's mean is base + coeff*u for the net output u. The sampler
writes each step's z into its block of `steps` and forwards that (G, W)
block as it is, so the objective's (G*K, W) input is a reshape of what the
sampler fed the net. It keeps each step's net output and, after the last
step, computes every transition's mean terms and log-density in float64
with `mean_terms` and `transition_logp`. The objective reads the mean terms
from the trace and recomputes the log-densities with `transition_logp`
from its own forward, so at equal parameters the two agree up to the
rounding of the float32 forward. Deterministic transitions (eta_scale = 0)
record std = 0 and logp = 0: they carry no density.

Sampling works on rows: `sample_group` denoises G paths, each under the
shared condition or its own, with one (G, width) network evaluation per step.
It takes the initial latents and every step's noise as arrays, so the caller
decides which stream draws what; GRPO samples a group under one condition.
`sample_rows` integrates the same rows without recording traces and fails
row by row instead of raising; the world-model policy samples a round of
requests from many episodes with it. A one-row call is the plain sampler:
at eta_scale = 0 it is the deterministic Euler integration of dz = u dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DivergenceError, LoopwmError
from ..numerics import DTYPE, NetParams, net_activations, require_finite
from ..numerics.tensor import LOG_2PI


# the floor of sigma_t in the score; below every grid time 1/K for K <= 1000
SIGMA_FLOOR = 1e-3


@dataclass(frozen=True)
class SamplerConfig:
    """Denoising schedule parameters plus the frame count of a segment."""

    k_steps: int = 10
    eta_scale: float = 0.3
    n_frames: int = 16

    def __post_init__(self):
        if self.k_steps < 1:
            raise LoopwmError(f"k_steps must be >= 1, got {self.k_steps}")
        if self.eta_scale < 0:
            raise LoopwmError(f"eta_scale must be >= 0, got {self.eta_scale}")
        if self.n_frames < 2:
            raise LoopwmError(f"n_frames must be >= 2, got {self.n_frames}")

    def time_grid(self) -> list[float]:
        """Evaluation times t_k = 1 - k/K for k = 0..K-1 (uniform on (0,1])."""
        return [1.0 - k / self.k_steps for k in range(self.k_steps)]


@dataclass(frozen=True)
class Transitions:
    """Denoising transitions as arrays: (G, K) of them for a group, (K,) for one row.

    `steps` holds each transition's net input [z | t | cond], `z_next` its
    next state, `std` each denoise step's std (one per step, shared by the
    rows) and `logp` each transition's log-density under the sampling net.
    `base` and `coeff` are `mean_terms` of the states, times and stds:
    a transition's mean under a net whose output is u is base + coeff*u,
    with `base` one entry per transition and `coeff` one per step.
    `steps` and `z_next` are `DTYPE`; `std`, `logp`, `base` and `coeff`
    are float64.
    """

    steps: np.ndarray
    z_next: np.ndarray
    std: np.ndarray
    logp: np.ndarray
    base: np.ndarray
    coeff: np.ndarray

    def row(self, i: int) -> "Transitions":
        """Row i's (K,) transitions, as views."""
        return Transitions(self.steps[i], self.z_next[i], self.std, self.logp[i],
                           self.base[i], self.coeff)


def score_term(z: np.ndarray, x_pred: np.ndarray, t: float) -> np.ndarray:
    """Analytic conditional score -(z - (1-t)*x_pred) / max(t, SIGMA_FLOOR)^2.

    t is a point of `SamplerConfig.time_grid()`, which lies in (0, 1].
    """
    sigma = max(t, SIGMA_FLOOR)
    return -(z - (1.0 - t) * x_pred) / (sigma * sigma)


def _inputs(theta: NetParams, cond: np.ndarray, z_init: np.ndarray, config: SamplerConfig,
            noise: np.ndarray | None, blocks: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Check the row contract once; return (net inputs, noise), both `DTYPE`.

    The net inputs have shape (G, blocks, W): every block holds its denoise
    step's t and the row's condition, and the first block holds z_init.
    """
    cond = np.asarray(cond, dtype=DTYPE)
    z = np.array(z_init, dtype=DTYPE, ndmin=2)
    latent = theta.sizes[-1]
    if latent % config.n_frames:
        raise LoopwmError(f"net output width {latent} does not hold {config.n_frames} frames")
    if z.ndim != 2 or z.shape[1] != latent:
        raise LoopwmError(
            f"z_init has shape {np.shape(z_init)}, expected ({latent},) or (G, {latent})"
        )
    if cond.ndim not in (1, 2) or latent + 1 + cond.shape[-1] != theta.sizes[0]:
        raise LoopwmError(
            f"net input width {latent + 1 + cond.shape[-1]} does not match "
            f"net input {theta.sizes[0]}"
        )
    require_finite(cond, "cond")
    require_finite(z, "z_init")
    if noise is None:
        if config.eta_scale > 0.0:
            raise LoopwmError("sampling needs noise when eta_scale > 0")
        rows = max(z.shape[0], cond.shape[0] if cond.ndim == 2 else 1)
    else:
        noise = np.asarray(noise, dtype=DTYPE)
        rows = noise.shape[0] if noise.ndim == 3 else 0
        if noise.shape != (rows, config.k_steps, latent):
            raise LoopwmError(
                f"noise has shape {noise.shape}, expected (G, {config.k_steps}, {latent})"
            )
    if rows < 1:
        raise LoopwmError("sampling needs at least one row")
    if z.shape[0] not in (1, rows) or (cond.ndim == 2 and cond.shape[0] != rows):
        raise LoopwmError(
            f"z_init has {z.shape[0]} rows and cond {cond.shape}; each must be shared "
            f"or give one per row of the {rows}"
        )
    x = np.empty((rows, blocks, theta.sizes[0]), dtype=DTYPE)
    x[:, 0, :latent] = z
    x[:, :, latent] = config.time_grid()[:blocks]
    x[:, :, latent + 1:] = cond[:, None] if cond.ndim == 2 else cond
    return x, noise


def _denoise(theta: NetParams, x: np.ndarray, config: SamplerConfig, noise: np.ndarray | None,
             record: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
             ) -> tuple[np.ndarray, np.ndarray]:
    """Integrate rows from t=1 to t=0: (final states, rows gone non-finite).

    Without `record`, x is (G, 1, W) and each step rewrites its z and t. With
    `record` = (z_next, u, std), of shapes (G, K, L), (G, K, L) and (K,),
    x is (G, K, W): step k forwards block k, computes its next state
    straight into the record at k, keeps its net output and its std, and
    copies its next state into block k + 1. Both ways run the same
    operations, so they give the same states bit for bit.
    """
    latent = theta.sizes[-1]
    stochastic = config.eta_scale > 0.0
    dt = 1.0 / config.k_steps
    diverged = np.zeros(x.shape[0], dtype=bool)
    block = x[:, 0]
    z_out = None
    for k, t in enumerate(config.time_grid()):
        if record is None:
            block[:, latent] = t
        else:
            z_out = record[0][:, k]
        z = block[:, :latent]
        u = net_activations(theta, block)[-1]
        if not stochastic:
            # the plain Euler step, a transition with no spread
            z_next = np.subtract(z, u * dt, out=z_out)
            std = 0.0
        else:
            x_pred = z - t * u
            eta = config.eta_scale * math.sqrt(t)
            drift = u - 0.5 * eta * eta * score_term(z, x_pred, t)
            std = eta * math.sqrt(dt)
            # the transition mean, then the noise added to it in place
            z_next = np.subtract(z, drift * dt, out=z_out)
            z_next += std * noise[:, k]
        if record is not None:
            record[1][:, k] = u
            record[2][k] = std
        if not np.isfinite(z_next).all():
            finite = np.isfinite(z_next).all(axis=1)
            diverged |= ~finite
            if diverged.all():
                break
            # a diverged row restarts from zeros so it stops spreading
            # non-finite values; it is reported and never returned
            z_next[~finite] = 0.0
        if k + 1 < config.k_steps:
            if record is not None:
                block = x[:, k + 1]
            block[:, :latent] = z_next
    return z_next, diverged


def sample_group(theta: NetParams, cond: np.ndarray, z_init: np.ndarray,
                 config: SamplerConfig,
                 noise: np.ndarray | None) -> tuple[np.ndarray, Transitions]:
    """Euler-Maruyama integration of the score-corrected reverse SDE, one path per row.

    Returns (frames, trace): the rows' segments as one (G, F, C) array, a
    view of the last step's `trace.z_next`, and their (G, K) transitions.

    Row contract: `cond` is one condition of shape (C,) shared by the G
    rows, or one per row, (G, C). `z_init` is one initial latent of shape
    (L,) shared by every row, or one per row, (G, L). `noise` holds every
    row's Wiener increments, shape (G, K, L): row i takes `noise[i, k]` at
    denoise step k. Row i equals the one-row call on its own condition,
    z_init and `noise[i:i + 1]`, up to float32 rounding: BLAS may sum a
    G-row matrix product in another order than a one-row product, so a
    row's last bits may depend on which other rows share its call. Each
    step makes one (G, width) network evaluation. Rows never mix, so each
    row's state is checked on its own. The condition, z_init and noise are
    cast to `DTYPE`, and so are the frames and the trace's states;
    `trace.std`, `trace.logp` and the mean terms `trace.base` and
    `trace.coeff` are float64; the log-densities are computed from the
    kept net outputs through those terms and `transition_logp`, as the
    GRPO objective computes them.

    `theta`, the widths, `cond`, `z_init` and the noise shape are validated
    once, here; inside the loop only each row's state is checked. A row
    whose state goes non-finite (from a net that returns NaN or infinity,
    non-finite noise, or a blow-up) restarts from zeros, so it stops
    spreading non-finite values, and the call raises DivergenceError at the
    end, or as soon as every row has diverged. With
    eta_scale = 0 the noise is not used and may be None: the diffusion and
    score terms vanish and every row follows the plain Euler path
    z <- z - u*dt.
    """
    k_steps, latent = config.k_steps, theta.sizes[-1]
    x, noise = _inputs(theta, cond, z_init, config, noise, k_steps)
    rows = x.shape[0]
    z_next, u = (np.empty((rows, k_steps, latent), dtype=DTYPE) for _ in range(2))
    std = np.zeros(k_steps)
    _, diverged = _denoise(theta, x, config, noise, (z_next, u, std))
    if diverged.any():
        raise DivergenceError(f"sampler state went non-finite in {int(diverged.sum())} "
                              f"of {rows} rows")
    base, coeff = mean_terms(x[:, :, :latent], x[0, :, latent], std)
    logp = np.zeros((rows, k_steps))
    if config.eta_scale > 0.0:
        logp = transition_logp(z_next - (base + coeff * u), std)
    frames = z_next[:, -1].reshape(rows, config.n_frames, -1)
    return frames, Transitions(x, z_next, std, logp, base, coeff)


def sample_rows(theta: NetParams, cond: np.ndarray, z_init: np.ndarray,
                config: SamplerConfig, noise: np.ndarray | None) -> list[np.ndarray | None]:
    """The (F, C) frames of `sample_group`'s rows, without traces, failing row by row.

    Same row contract and the same frames bit for bit, but no transition is
    recorded, and a row whose state goes non-finite comes back as None while
    the other rows are returned as usual. The rows' final states are one
    new (G, L) `DTYPE` array that nothing else holds; read as (G, F, C)
    frames, each segment is a view of its row, so the round's frames are
    stored once. `_denoise` has checked every row's finiteness, so every
    row returned is finite.
    """
    x, noise = _inputs(theta, cond, z_init, config, noise, 1)
    z, diverged = _denoise(theta, x, config, noise)
    frames = z.reshape(z.shape[0], config.n_frames, -1)
    return [None if diverged[i] else frames[i] for i in range(frames.shape[0])]


def mean_affine_coeffs(t, dt, std) -> tuple[np.ndarray, np.ndarray]:
    """(a, c) with transition mean = a*z + c*u, elementwise over transitions.

    Substituting x_pred = z - t*u into the score makes the mean affine in u:
      mean = z - dt*u - dt*(eta^2/2) * (t*z + t*(1-t)*u) / sigma^2
    so a = 1 - dt*eta^2*t / (2*sigma^2) and
    c = -dt * (1 + eta^2 * t * (1-t) / (2*sigma^2)), with eta^2 = std^2/dt.
    Gradients of the transition log-density w.r.t. the network output reduce
    to c * (z_next - mean) / std^2.
    """
    t, dt, std = (np.asarray(v, dtype=np.float64) for v in (t, dt, std))
    eta_sq = (std * std) / dt
    sigma = np.maximum(t, SIGMA_FLOOR)
    a = 1.0 - dt * eta_sq * t / (2.0 * sigma * sigma)
    c = -dt * (1.0 + eta_sq * t * (1.0 - t) / (2.0 * sigma * sigma))
    return a, c


def mean_terms(z: np.ndarray, t: np.ndarray, std: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(base, coeff): the float64 transition means of (G, K) transitions are base + coeff*u.

    `z` (G, K, L) holds each transition's state, `t` (K,) and `std` (K,) each
    denoise step's time and std, and u is the (G, K, L) net output. base is
    a*z and coeff (K, 1) is c, from `mean_affine_coeffs` at dt = 1/K. The
    sampler computes them once per group and carries them on its trace,
    where its log-densities and the GRPO objective's means both read them.
    """
    scale, coeff = mean_affine_coeffs(t, 1.0 / t.shape[0], std)
    return z * scale[:, None], coeff[:, None]


def transition_logp(resid: np.ndarray, std: np.ndarray) -> np.ndarray:
    """(G, K) float64 Gaussian log-densities of transitions whose next states miss
    their means by `resid` (G, K, L), with one std per denoise step (K,)."""
    latent = resid.shape[2]
    log_norm = -0.5 * LOG_2PI * latent - latent * np.log(std)
    return log_norm - 0.5 * np.sum((resid / std[:, None]) ** 2, axis=2)
