"""Action-conditioned generative world model.

A small velocity network over whole-segment latents, with deterministic
(ODE) and stochastic (score-corrected SDE) samplers, per-transition
log-densities for importance ratios, flow-matching supervised training,
and checkpointing with a domain manifest sidecar.
"""

from .context import MAX_NORM_SID, channel_mask, context_width, embed_condition, operator_index
from .policy import (
    MANIFEST_FORMAT,
    PolicyBundle,
    WorldModelPolicy,
    load_policy,
    policy_manifest,
    save_policy,
)
from .sampler import (
    DenoiseTrace,
    SamplerConfig,
    mean_affine_coeffs,
    net_input,
    sample_group,
    sample_ode,
    sample_sde,
    score_term,
    trace_dtype,
    transition_logprob,
    transition_mean,
)
from .training import build_demos, flow_matching_loss, sft_train, velocity_net_sizes

__all__ = [
    "DenoiseTrace",
    "MANIFEST_FORMAT",
    "MAX_NORM_SID",
    "PolicyBundle",
    "SamplerConfig",
    "WorldModelPolicy",
    "build_demos",
    "channel_mask",
    "context_width",
    "embed_condition",
    "flow_matching_loss",
    "load_policy",
    "mean_affine_coeffs",
    "net_input",
    "operator_index",
    "policy_manifest",
    "sample_group",
    "sample_ode",
    "sample_sde",
    "save_policy",
    "score_term",
    "sft_train",
    "trace_dtype",
    "transition_logprob",
    "transition_mean",
    "velocity_net_sizes",
]
