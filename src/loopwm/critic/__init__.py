from .scoring import (
    CONTACT_RADIUS,
    DEFAULT_TAU,
    DEFAULT_WEIGHTS,
    DIMENSIONS,
    CriticReport,
    CriticWeights,
    aggregate,
    evaluate,
    evaluate_rows,
    revise_instruction,
    tag_dimension,
)

__all__ = [
    "CONTACT_RADIUS",
    "CriticReport",
    "CriticWeights",
    "DEFAULT_TAU",
    "DEFAULT_WEIGHTS",
    "DIMENSIONS",
    "aggregate",
    "evaluate",
    "evaluate_rows",
    "revise_instruction",
    "tag_dimension",
]
