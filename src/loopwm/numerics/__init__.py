from .net import (
    NetParams,
    clone_params,
    load_checkpoint,
    net_activations,
    net_activations_unchecked,
    net_backward_batch,
    net_forward_batch,
    net_forward_unchecked,
    net_init,
    save_checkpoint,
)
from .optim import OptState, opt_init, opt_step
from .rng import RandomSource
from .stats import finite_diff_grad
from .tensor import Tensor, require_finite

__all__ = [
    "NetParams",
    "OptState",
    "RandomSource",
    "Tensor",
    "clone_params",
    "finite_diff_grad",
    "load_checkpoint",
    "net_activations",
    "net_activations_unchecked",
    "net_backward_batch",
    "net_forward_batch",
    "net_forward_unchecked",
    "net_init",
    "opt_init",
    "opt_step",
    "require_finite",
    "save_checkpoint",
]
