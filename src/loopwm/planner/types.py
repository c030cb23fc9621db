"""Plan-side value types."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DomainError
from ..microworld.types import ActionBinding, DomainSpec, Literal
from ..microworld.types import MAX_INSTRUCTION_WORDS


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
        tail = pred.split(".", 1)[1] if "." in pred else pred
        tail = tail.replace("_", " ")
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
    """One atomic step: an instruction, its action, and pre/post literals."""

    sid: int
    instruction: str
    actions: tuple[ActionBinding, ...]
    pre: tuple[Literal, ...]
    post: tuple[Literal, ...]

    def __post_init__(self) -> None:
        if self.sid < 1:
            raise ValueError(f"sid must be >= 1, got {self.sid}")
        if not self.actions:
            raise ValueError("a step needs at least one action")
        words = len(self.instruction.split())
        if words == 0 or words > MAX_INSTRUCTION_WORDS:
            raise ValueError(
                f"instruction must be 1..{MAX_INSTRUCTION_WORDS} words, got {words}"
            )


@dataclass(frozen=True)
class PlanSequence:
    steps: tuple[PlanStep, ...]
    goal: Goal

    def __post_init__(self) -> None:
        sids = [s.sid for s in self.steps]
        if any(b <= a for a, b in zip(sids, sids[1:])):
            raise ValueError(f"sids must be strictly increasing, got {sids}")

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)
