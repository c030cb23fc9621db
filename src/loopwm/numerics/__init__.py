from .net import (
    NetParams,
    clone_params,
    load_checkpoint,
    net_activations,
    net_backward_batch,
    net_init,
    save_checkpoint,
)
from .optim import OptState, opt_init, opt_step
from .rng import RandomSource
from .tensor import DTYPE, Tensor, require_finite

__all__ = [
    "DTYPE",
    "NetParams",
    "OptState",
    "RandomSource",
    "Tensor",
    "clone_params",
    "load_checkpoint",
    "net_activations",
    "net_backward_batch",
    "net_init",
    "opt_init",
    "opt_step",
    "require_finite",
    "save_checkpoint",
]
