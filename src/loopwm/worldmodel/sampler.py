"""Segment samplers for the velocity-field policy.

Noise convention: a segment is generated as one flat vector of width F*d.
Latents follow z_t = (1-t)*x0 + t*eps, so t=1 is pure noise and t=0 is data.
The network predicts the velocity u = dz/dt (target eps - x0); generation
integrates from t=1 down to t=0 on a uniform grid with step dt = 1/K.

The stochastic sampler adds the analytic score correction

    dz = [u - 0.5*eta_t^2 * score] dt + eta_t dW,   eta_t = a*sqrt(t)

with score = -(z - alpha_t*x_pred)/sigma_t^2, alpha_t = 1-t,
sigma_t = max(t, delta), and the rectified-flow identity x_pred = z - t*u.
Every stochastic transition is Gaussian with mean z - drift*dt and
std eta_t*sqrt(dt); traces record enough per step to recompute the mean
under fresh parameters, which is what importance ratios need.

A trace is a record array of dtype `trace_dtype(L)`, one record per
transition with fields `t`, `dt`, `std` and `logp` (float64) and `z` and
`z_next` ((L,) float64). `sample_group` writes one (G, K) array of them,
column k at denoise step k, and row i's `DenoiseTrace.steps` is the (K,)
view of row i. Deterministic transitions (eta_scale = 0) record std = 0 and
logp = 0: they carry no density, and transition_logprob refuses them.

Sampling works on rows: `sample_group` denoises G paths that share one
condition, with one (G, width) network evaluation per step. It takes the
initial latents and every step's noise as arrays, so the caller decides which
stream draws what. `sample_sde` is the one-row call that draws its noise from
one stream, and `sample_ode` the one-row call without noise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from ..errors import DivergenceError, LoopwmError
from ..microworld import Segment
from ..numerics import (
    NetParams,
    RandomSource,
    check_params,
    gaussian_logpdf,
    gaussian_logpdf_rows,
    net_forward_batch,
    net_forward_unchecked,
    require_finite,
)


@dataclass(frozen=True)
class SamplerConfig:
    """Denoising schedule parameters plus the segment shape they produce."""

    k_steps: int = 10
    eta_scale: float = 0.3
    delta: float = 1e-3
    n_frames: int = 16
    frame_width: int = 0

    def __post_init__(self):
        if self.k_steps < 1:
            raise LoopwmError(f"k_steps must be >= 1, got {self.k_steps}")
        if self.eta_scale < 0:
            raise LoopwmError(f"eta_scale must be >= 0, got {self.eta_scale}")
        if self.delta <= 0:
            raise LoopwmError(f"delta must be > 0, got {self.delta}")
        if self.n_frames < 2:
            raise LoopwmError(f"n_frames must be >= 2, got {self.n_frames}")

    @property
    def latent_width(self) -> int:
        return self.n_frames * self.frame_width

    def time_grid(self) -> list[float]:
        """Evaluation times t_k = 1 - k/K for k = 0..K-1 (uniform on (0,1])."""
        return [1.0 - k / self.k_steps for k in range(self.k_steps)]


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


def score_term(z: np.ndarray, x_pred: np.ndarray, t: float, *, delta: float) -> np.ndarray:
    """Analytic conditional score -(z - (1-t)*x_pred) / max(t, delta)^2."""
    if not 0.0 < t <= 1.0:
        raise LoopwmError(f"t must lie in (0, 1], got {t}")
    sigma = max(t, delta)
    return -(np.asarray(z) - (1.0 - t) * np.asarray(x_pred)) / (sigma * sigma)


def _check_finite(z: np.ndarray, t: float) -> None:
    if not np.all(np.isfinite(z)):
        raise DivergenceError(f"non-finite sampler state at t={t}")


def _to_segment(z: np.ndarray, config: SamplerConfig) -> Segment:
    frames = np.asarray(z, dtype=np.float64).reshape(config.n_frames, config.frame_width)
    return Segment(frames=frames)


def sample_group(theta: NetParams, cond: np.ndarray, z_init: np.ndarray,
                 config: SamplerConfig,
                 noise: np.ndarray | None) -> list[tuple[Segment, DenoiseTrace]]:
    """Euler-Maruyama integration of the score-corrected reverse SDE, one path per row.

    Row contract: the G rows share `cond`. `z_init` is one initial latent of
    shape (L,) shared by every row, or one per row, (G, L). `noise` holds
    every row's Wiener increments, shape (G, K, L): row i takes
    `noise[i, k]` at denoise step k. A stream's (K, L) draw equals K
    successive (L,) draws, so row i equals `sample_sde` on the stream that
    drew `noise[i]`, up to rounding: BLAS may sum a G-row matrix product in
    another order than a one-row product. Each step makes one (G, width)
    network evaluation.

    `theta`, the widths, `cond`, `z_init` and the noise shape are validated
    once, here; inside the loop only the state is checked, and a non-finite
    state (from a net that returns NaN or infinity, non-finite noise, or a
    blow-up) raises DivergenceError. With eta_scale = 0 the noise is not
    used and may be None: the diffusion and score terms vanish and every row
    follows the Euler path of `sample_ode` (bitwise for one row).
    """
    check_params(theta)
    cond = np.asarray(cond, dtype=np.float64)
    z = np.array(z_init, dtype=np.float64, ndmin=2)
    latent = config.latent_width
    if z.ndim != 2 or z.shape[1] != latent:
        raise LoopwmError(
            f"z_init has shape {np.shape(z_init)}, expected ({latent},) or (G, {latent})"
        )
    if cond.ndim != 1 or latent + 1 + cond.size != theta.sizes[0]:
        raise LoopwmError(
            f"net input width {latent + 1 + cond.size} does not match net input {theta.sizes[0]}"
        )
    require_finite(cond, "cond")
    require_finite(z, "z_init")
    stochastic = config.eta_scale > 0.0
    if noise is None:
        if stochastic:
            raise LoopwmError("sample_group needs noise when eta_scale > 0")
        rows = z.shape[0]
    else:
        noise = np.asarray(noise, dtype=np.float64)
        rows = noise.shape[0] if noise.ndim == 3 else 0
        if noise.shape != (rows, config.k_steps, latent) or z.shape[0] not in (1, rows):
            raise LoopwmError(
                f"noise has shape {noise.shape}, expected (G, {config.k_steps}, {latent}) "
                f"with G matching z_init's {z.shape[0]} rows"
            )
    if rows < 1:
        raise LoopwmError("sample_group needs at least one row")
    if z.shape[0] != rows:
        z = np.tile(z, (rows, 1))
    # the cond columns are written once; each step rewrites z and t in place
    x = net_input(z, 1.0, cond)
    dt = 1.0 / config.k_steps
    steps = np.zeros((rows, config.k_steps), dtype=trace_dtype(latent))
    steps["dt"] = dt
    for k, t in enumerate(config.time_grid()):
        x[:, :latent] = z
        x[:, latent] = t
        u = net_forward_unchecked(theta, x)
        column = steps[:, k]
        if not stochastic:
            # the plain Euler step of sample_ode; std and logp stay 0
            z_next = z - u * dt
        else:
            x_pred = z - t * u
            eta = config.eta_scale * np.sqrt(t)
            drift = u - 0.5 * eta * eta * score_term(z, x_pred, t, delta=config.delta)
            mean = z - drift * dt
            std = float(eta * np.sqrt(dt))
            z_next = mean + std * noise[:, k]
            column["std"] = std
            column["logp"] = gaussian_logpdf_rows(z_next, mean, std)
        column["t"] = t
        column["z"] = z
        column["z_next"] = z_next
        z = z_next
        _check_finite(z, t)
    return [(_to_segment(z[i], config), DenoiseTrace(cond=cond, steps=steps[i]))
            for i in range(rows)]


def sample_sde(theta: NetParams, cond: np.ndarray, z_init: np.ndarray,
               config: SamplerConfig, rng: RandomSource) -> tuple[Segment, DenoiseTrace]:
    """One stochastic path: the one-row call of `sample_group`.

    Draws the path's (K, L) noise from `rng` in one block, and nothing at
    eta_scale = 0, where the path is bitwise identical to sample_ode on the
    same grid.
    """
    noise = None
    if config.eta_scale > 0.0:
        noise = rng.normal(shape=(1, config.k_steps, config.latent_width))
    return sample_group(theta, cond, z_init, config, noise)[0]


def sample_ode(theta: NetParams, cond: np.ndarray, z_init: np.ndarray,
               config: SamplerConfig) -> Segment:
    """Deterministic Euler integration of dz = u dt from t=1 to t=0."""
    segment, _ = sample_group(theta, cond, z_init, replace(config, eta_scale=0.0), None)[0]
    return segment


def transition_mean(theta: NetParams, step: np.void, cond: np.ndarray, *,
                    delta: float) -> np.ndarray:
    """Recompute a trace record's transition mean under fresh parameters.

    The std never depends on theta, so callers reuse step["std"].
    """
    t, dt, std, z = step["t"], step["dt"], step["std"], step["z"]
    u = net_forward_batch(theta, net_input(z, t, cond))[0]
    x_pred = z - t * u
    eta_sq = (std * std) / dt
    drift = u - 0.5 * eta_sq * score_term(z, x_pred, t, delta=delta)
    return z - drift * dt


def transition_logprob(theta: NetParams, step: np.void, cond: np.ndarray, *,
                       delta: float) -> float:
    """Log-density of the recorded next state under theta's transition mean."""
    if step["std"] <= 0.0:
        raise LoopwmError(
            "transition has degenerate std; stochastic sampling (eta_scale > 0) "
            "is required for likelihood ratios"
        )
    mean = transition_mean(theta, step, cond, delta=delta)
    return gaussian_logpdf(step["z_next"], mean, step["std"])


def mean_affine_coeffs(t, dt, std, *, delta: float) -> tuple[np.ndarray, np.ndarray]:
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
    sigma = np.maximum(t, delta)
    a = 1.0 - dt * eta_sq * t / (2.0 * sigma * sigma)
    c = -dt * (1.0 + eta_sq * t * (1.0 - t) / (2.0 * sigma * sigma))
    return a, c

