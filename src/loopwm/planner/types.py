"""Plan-side value types: a goal, and a plan step as a (sid, operator index) pair.

A step is always exactly one domain operator, as a STRIPS plan is a sequence
of operator instances: everything else of the step (its instruction, action,
literals, motion, condition tail and critic table) is read from the domain
at `step.op`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DomainError
from ..microworld.types import DomainSpec, Literal


@dataclass(frozen=True)
class Goal:
    """Target predicate literals plus a free-form description."""

    literals: tuple[Literal, ...]
    text: str = ""

    def __post_init__(self) -> None:
        if not self.literals:
            raise ValueError("a goal needs at least one literal")
        if not self.text:
            object.__setattr__(self, "text", describe_literals(self.literals))


def describe_literals(literals: tuple[Literal, ...]) -> str:
    return "achieve " + " and ".join(lit.render() for lit in literals)


def _phrase_tables(spec: DomainSpec) -> tuple[dict[str, str], dict[str, str]]:
    full = {}
    suffix: dict[str, str | None] = {}
    for pred, _ in spec.predicates:
        full[pred.replace(".", " ").replace("_", " ")] = pred
        tail = Literal(pred, True).render()
        # a suffix shared by two predicates is ambiguous and unusable
        suffix[tail] = None if tail in suffix else pred
    return full, {k: v for k, v in suffix.items() if v is not None}


def parse_goal_literal(spec: DomainSpec, text: str) -> Literal:
    """One goal literal from text, resolved against the domain's predicates.

    Three spellings are accepted, each optionally prefixed by "not ":
      canonical   "jar.closed"
      spelled out "jar closed"
      bare suffix "lid removed"  (only when no two predicates share the suffix)
    """
    if not text.strip():
        raise DomainError(f"literal must be a non-empty string, got {text!r}")
    raw = " ".join(text.split())
    value = True
    if raw.startswith("not "):
        value = False
        raw = raw[4:].strip()
    known = {pred for pred, _ in spec.predicates}
    if raw in known:
        return Literal(raw, value)
    full, suffix = _phrase_tables(spec)
    if raw in full:
        return Literal(full[raw], value)
    if raw in suffix:
        return Literal(suffix[raw], value)
    raise DomainError(f"literal {text!r} does not name a predicate of domain {spec.name!r}")


@dataclass(frozen=True)
class PlanStep:
    """One atomic step: its 1-based position `sid` and `op`, an index into `spec.operators`."""

    sid: int
    op: int
