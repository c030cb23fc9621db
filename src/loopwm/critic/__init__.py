from .scoring import (
    CONTACT_RADIUS,
    DEFAULT_TAU,
    DEFAULT_WEIGHTS,
    DIMENSIONS,
    CriticReport,
    CriticWeights,
    GroupScores,
    evaluate_rows,
    score_group,
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
    "score_group",
]
