"""Core value types for the symbolic microworld.

A domain is a fixed cast of objects with boolean predicates and, for movable
entities, planar pose channels in [0, 1]. Frames are float64 vectors laid out
as all predicate channels (declaration order) followed by x/y pose channels
per movable entity (declaration order). Operators rewrite predicate literals
and drag their moving entities toward a target object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DomainError, NumericError

DEFAULT_CONTACT = (0.25, 0.75)
MAX_INSTRUCTION_WORDS = 36


@dataclass(frozen=True)
class Literal:
    """A predicate name with its required truth value."""

    pred: str
    value: bool

    def __str__(self) -> str:
        return self.pred if self.value else f"not {self.pred}"

    def holds_in(self, predicates: dict[str, bool]) -> bool:
        return predicates[self.pred] == self.value

    def render(self) -> str:
        """Human phrasing for instruction text: 'jar.lid_removed' -> 'lid removed'."""
        tail = self.pred.split(".", 1)[1] if "." in self.pred else self.pred
        tail = tail.replace("_", " ")
        return tail if self.value else f"not {tail}"


def parse_literal(text: str) -> Literal:
    text = text.strip()
    if text.startswith("not "):
        return Literal(text[4:].strip(), False)
    return Literal(text, True)


@dataclass(frozen=True)
class ActionBinding:
    """A grounded action reference: verb plus the object tuple it acts on."""

    verb: str
    objects: tuple[str, ...]
    tool: str | None = None

    def __str__(self) -> str:
        tool = f" [{self.tool}]" if self.tool else ""
        return f"{self.verb}({', '.join(self.objects)}){tool}"


@dataclass(frozen=True)
class MotionProfile:
    """Which entities move, where they end up, and when contact happens."""

    moves: tuple[str, ...]
    target: str
    contact: tuple[float, float] = DEFAULT_CONTACT


@dataclass(frozen=True)
class Operator:
    verb: str
    objects: tuple[str, ...]
    tool: str | None
    pre: tuple[Literal, ...]
    post: tuple[Literal, ...]
    motion: MotionProfile | None
    instruction: str

    @property
    def binding(self) -> ActionBinding:
        return ActionBinding(self.verb, self.objects, self.tool)


@dataclass(frozen=True)
class ObjectSpec:
    position: tuple[float, float]
    movable: bool = False


@dataclass
class SymbolicState:
    """Full symbolic state: every predicate's truth value plus movable poses."""

    predicates: dict[str, bool]
    poses: dict[str, float]

    def pred_key(self) -> frozenset[str]:
        """Hashable view over the true predicates; poses never gate operators."""
        return frozenset(p for p, v in self.predicates.items() if v)

    def copy(self) -> "SymbolicState":
        return SymbolicState(dict(self.predicates), dict(self.poses))

    def satisfies(self, literals) -> bool:
        return all(lit.holds_in(self.predicates) for lit in literals)


@dataclass
class DomainSpec:
    name: str
    actor: str
    objects: dict[str, ObjectSpec]
    predicates: list[tuple[str, bool]]
    operators: list[Operator]
    channels: list[str] = field(init=False)
    channel_index: dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        names = [p for p, _ in self.predicates]
        for obj, info in self.objects.items():
            if info.movable:
                names.extend((f"{obj}.x", f"{obj}.y"))
        self.channels = names
        self.channel_index = {n: i for i, n in enumerate(names)}

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def n_predicates(self) -> int:
        return len(self.predicates)

    def movable_entities(self) -> list[str]:
        return [o for o, info in self.objects.items() if info.movable]

    def initial_state(self) -> SymbolicState:
        preds = {p: v for p, v in self.predicates}
        poses = {}
        for obj in self.movable_entities():
            x, y = self.objects[obj].position
            poses[f"{obj}.x"] = x
            poses[f"{obj}.y"] = y
        return SymbolicState(preds, poses)

    def find_operator(self, binding: ActionBinding) -> Operator:
        for op in self.operators:
            if op.verb == binding.verb and op.objects == tuple(binding.objects):
                if binding.tool is None or binding.tool == op.tool:
                    return op
        raise DomainError(f"domain {self.name!r} has no operator {binding}")

    def entity_position(self, state: SymbolicState, name: str) -> tuple[float, float]:
        """Current position: pose channels for movables, fixed layout otherwise."""
        if name not in self.objects:
            raise DomainError(f"unknown entity {name!r} in domain {self.name!r}")
        if self.objects[name].movable:
            return (state.poses[f"{name}.x"], state.poses[f"{name}.y"])
        return self.objects[name].position

    def acting_entity(self, op: Operator) -> str | None:
        """The entity whose contact with the target the critic checks.

        The tool when it is movable (it carries the action), the default
        actor otherwise; None when the operator has no motion profile.
        """
        if op.motion is None:
            return None
        if op.tool is not None and self.objects.get(op.tool, ObjectSpec((0, 0))).movable:
            return op.tool
        return self.actor


@dataclass
class Segment:
    """A dense rollout of n_frames frame vectors, shape (F, d)."""

    frames: np.ndarray

    def __post_init__(self) -> None:
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2:
            raise ValueError(f"segment frames must be 2-D, got shape {self.frames.shape}")
        if not np.all(np.isfinite(self.frames)):
            raise NumericError("segment contains non-finite values")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_channels(self) -> int:
        return self.frames.shape[1]

    @property
    def first_frame(self) -> np.ndarray:
        return self.frames[0]

    @property
    def final_frame(self) -> np.ndarray:
        return self.frames[-1]
