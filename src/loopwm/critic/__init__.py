from .scoring import (
    CONTACT_RADIUS,
    DEFAULT_TAU,
    DEFAULT_WEIGHTS,
    DIMENSIONS,
    CriticReport,
    CriticWeights,
    GroupScores,
    evaluate_rows,
    revise_instruction,
    score_group,
    tag_dimension,
)

__all__ = [
    "CONTACT_RADIUS",
    "CriticReport",
    "CriticWeights",
    "DEFAULT_TAU",
    "DEFAULT_WEIGHTS",
    "DIMENSIONS",
    "GroupScores",
    "evaluate_rows",
    "revise_instruction",
    "score_group",
    "tag_dimension",
]
