from .scoring import (
    CONTACT_RADIUS,
    DEFAULT_TAU,
    DEFAULT_WEIGHTS,
    DIMENSIONS,
    CriticReport,
    CriticWeights,
    aggregate,
    evaluate,
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
    "revise_instruction",
    "tag_dimension",
]
