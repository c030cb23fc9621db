from .config import DEFAULT_CURRICULUM, GrpoConfig, curriculum_schedule
from .rollout import (
    GroupMember,
    RolloutGroup,
    compute_advantages,
    member_reward,
    rollout_group,
)
from .train import CSV_HEADER, TrainingLog, TrainingRecord, train
from .update import (
    ObjectiveTerms,
    grpo_update,
    kl_term,
    objective_terms,
    surrogate_rows,
)

__all__ = [
    "CSV_HEADER",
    "DEFAULT_CURRICULUM",
    "GroupMember",
    "GrpoConfig",
    "ObjectiveTerms",
    "RolloutGroup",
    "TrainingLog",
    "TrainingRecord",
    "compute_advantages",
    "curriculum_schedule",
    "grpo_update",
    "kl_term",
    "member_reward",
    "objective_terms",
    "rollout_group",
    "surrogate_rows",
    "train",
]
