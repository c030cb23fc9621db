from .config import DEFAULT_CURRICULUM, GrpoConfig, curriculum_schedule
from .rollout import (
    GroupMember,
    RolloutGroup,
    compute_advantages,
    group_rewards,
    rollout_group,
)
from .train import (
    CSV_HEADER,
    ROLLOUT_K_RULE,
    TrainingLog,
    TrainingRecord,
    rollout_k_steps,
    train,
)
from .update import (
    ObjectiveTerms,
    grpo_update,
    objective_terms,
    surrogate_rows,
)

__all__ = [
    "CSV_HEADER",
    "DEFAULT_CURRICULUM",
    "GroupMember",
    "GrpoConfig",
    "ObjectiveTerms",
    "ROLLOUT_K_RULE",
    "RolloutGroup",
    "TrainingLog",
    "TrainingRecord",
    "compute_advantages",
    "curriculum_schedule",
    "grpo_update",
    "group_rewards",
    "objective_terms",
    "rollout_group",
    "rollout_k_steps",
    "surrogate_rows",
    "train",
]
