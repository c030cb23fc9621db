from .dynamics import apply_operator, contact_window_frames, reference_segment
from .io import (
    BUILTIN_DOMAINS,
    canonical_dict,
    domain_from_dict,
    domain_hash,
    load_domain,
)
from .types import (
    MAX_PLAN_LEN,
    DomainSpec,
    Literal,
    MotionProfile,
    ObjectSpec,
    Operator,
    parse_literal,
)

__all__ = [
    "BUILTIN_DOMAINS",
    "DomainSpec",
    "MAX_PLAN_LEN",
    "Literal",
    "MotionProfile",
    "ObjectSpec",
    "Operator",
    "apply_operator",
    "canonical_dict",
    "contact_window_frames",
    "domain_from_dict",
    "domain_hash",
    "load_domain",
    "parse_literal",
    "reference_segment",
]
