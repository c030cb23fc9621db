"""Action-conditioned generative world model.

A small velocity network over whole-segment latents, with deterministic
(ODE) and stochastic (score-corrected SDE) samplers, per-transition
log-densities for importance ratios, flow-matching supervised training,
and checkpointing with a domain manifest sidecar.
"""

from .context import MAX_NORM_SID, context_width, embed_condition
from .policy import (
    MANIFEST_FORMAT,
    PolicyBundle,
    WorldModelPolicy,
    load_policy,
    policy_manifest,
    save_policy,
)
from .sampler import (
    SIGMA_FLOOR,
    SamplerConfig,
    Transitions,
    mean_affine_coeffs,
    mean_terms,
    sample_group,
    sample_rows,
    score_term,
    transition_logp,
)
from .training import build_demos, sft_train, velocity_net_sizes

__all__ = [
    "MANIFEST_FORMAT",
    "MAX_NORM_SID",
    "PolicyBundle",
    "SIGMA_FLOOR",
    "SamplerConfig",
    "Transitions",
    "WorldModelPolicy",
    "build_demos",
    "context_width",
    "embed_condition",
    "load_policy",
    "mean_affine_coeffs",
    "mean_terms",
    "policy_manifest",
    "sample_group",
    "sample_rows",
    "save_policy",
    "score_term",
    "sft_train",
    "transition_logp",
    "velocity_net_sizes",
]
