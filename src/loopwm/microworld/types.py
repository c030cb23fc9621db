"""Core value types for the symbolic microworld.

A domain is a fixed cast of objects with boolean predicates and, for movable
entities, planar pose channels in [0, 1]. Frames are vectors laid out as all
predicate channels (declaration order) followed by x/y pose channels per
movable entity (declaration order): float64 where the domain writes them
(world states, reference segments), float32 where the velocity net samples
them. A world state is such a frame whose predicate channels are exactly 0.0
or 1.0; `DomainSpec.initial_frame` is the initial state. A segment is its
frames, one (F, C) array: float64 from `reference_segment`, float32 from
the sampler, whose segments are views of rows of one block. Its producer
makes it finite; nothing wraps or checks it on the way. A predicate channel
reads true at DECODE_THRESHOLD and above, in states and generated frames
alike. Operators rewrite predicate literals and drag their moving entities
toward a target object.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..errors import DomainError
from ..parse import require

DEFAULT_CONTACT = (0.25, 0.75)
MAX_INSTRUCTION_WORDS = 36
# sid cap of a condition's step index; plans longer than this share the top value
MAX_NORM_SID = 16
# the deepest plan: the plan graph, the suite's hard band and the oracle stop here
MAX_PLAN_LEN = 8
# a predicate channel at or above this value reads true
DECODE_THRESHOLD = 0.5

# the names a domain file may write: the domain's own; entities, verbs and
# actors; predicates (entity.property); literals (a predicate, negated with "not ")
DOMAIN_NAME = re.compile(r"[a-z][a-z0-9_-]*")
NAME = re.compile(r"[a-z][a-z0-9_]*")
PREDICATE = re.compile(r"[a-z][a-z0-9_]*\.[a-z][a-z0-9_]*")
LITERAL = re.compile(r"(not )?[a-z][a-z0-9_]*\.[a-z][a-z0-9_]*")


def require_names(attr: str, names, pattern: re.Pattern = NAME) -> None:
    """A record's check that each of `names`, its field `attr`, is all `pattern`."""
    for name in names:
        require(pattern.fullmatch(name), attr,
                f"{name!r} does not match {pattern.pattern!r}")


def require_unit_pair(attr: str, pair) -> None:
    """A record's check that both numbers of `pair`, its field `attr`, lie in [0, 1]."""
    require(all(0 <= v <= 1 for v in pair), attr, f"must lie in [0, 1], got {list(pair)}")


@dataclass(frozen=True)
class Literal:
    """A predicate name with its required truth value."""

    pred: str
    value: bool

    def __str__(self) -> str:
        return self.pred if self.value else f"not {self.pred}"

    def render(self) -> str:
        """Human phrasing for instruction text: 'jar.lid_removed' -> 'lid removed'."""
        tail = self.pred.split(".", 1)[-1].replace("_", " ")
        return tail if self.value else f"not {tail}"


def parse_literal(text: str) -> Literal:
    text = text.strip()
    if text.startswith("not "):
        return Literal(text[4:].strip(), False)
    return Literal(text, True)


@dataclass(frozen=True)
class MotionProfile:
    """Which entities move, where they end up, and when contact happens.

    The contact numbers keep the type the file gives them, which the domain
    hash reads.
    """

    moves: tuple[str, ...]
    target: str
    contact: tuple[int | float, int | float] = DEFAULT_CONTACT

    def __post_init__(self) -> None:
        require(self.moves, "moves", "must name at least one entity")
        require_names("moves", self.moves)
        require_names("target", (self.target,))
        require_unit_pair("contact", self.contact)
        require(self.contact[0] < self.contact[1], "contact",
                f"must open before it closes, got {list(self.contact)}")


@dataclass(frozen=True)
class Operator:
    verb: str
    objects: tuple[str, ...]
    tool: str | None
    pre: tuple[Literal, ...]
    post: tuple[Literal, ...]
    motion: MotionProfile | None
    instruction: str

    def __str__(self) -> str:
        tool = f" [{self.tool}]" if self.tool else ""
        return f"{self.verb}({', '.join(self.objects)}){tool}"


@dataclass(frozen=True)
class ObjectSpec:
    """An entity's fixed or initial position, numbers as the file gives them."""

    position: tuple[int | float, int | float]
    movable: bool = False

    def __post_init__(self) -> None:
        require_unit_pair("position", self.position)


def _table():
    """A field compiled in `DomainSpec.__post_init__`: not an argument, compared or shown."""
    return field(init=False, repr=False, compare=False)


class PlanNode(NamedTuple):
    """One predicate state of `DomainSpec.plan_graph`.

    `key` has bit i set when predicate i holds, and `depth` is the state's
    distance from the initial state. `parent` and `op` are the node and the
    operator it was first reached by, -1 at the initial state. `successors`
    are the nodes its applicable operators lead to, in declaration order,
    repeats included; a node at depth MAX_PLAN_LEN keeps none.
    """

    key: int
    depth: int
    parent: int
    op: int
    successors: tuple[int, ...]


class OperatorTable(NamedTuple):
    """What the dynamics and the critic read of one operator, in frame columns.

    `pre` and `post` are (columns, values, tags) of the distinct literals,
    one feedback tag per literal. `writes` is (columns, 0/1 values) of every
    post literal: what applying the operator writes, and what the critic's
    progress check measures the distance to. `motion` is None without a
    motion profile, else (the acting entity's (x, y) columns, the (k, 2)
    pose columns of the k moving entities, the target's (x, y) columns if
    it moves or else its position, whether it moves, the contact
    fractions). Applying the operator writes the target's position into
    every moving entity's columns; the critic derives the contact window
    per frame count.
    """

    pre: tuple[np.ndarray, np.ndarray, tuple[str, ...]]
    post: tuple[np.ndarray, np.ndarray, tuple[str, ...]]
    writes: tuple[np.ndarray, np.ndarray]
    motion: tuple | None


@dataclass
class DomainSpec:
    """A validated domain and the tables compiled from it.

    Construction checks the symbol references (see `_check_semantics`) and
    then builds, once, every table that planning, suite generation,
    conditioning, the dynamics and the critic read: predicate bits, the plan
    graph of the predicate states within MAX_PLAN_LEN steps of the initial
    state, the initial frame, and each operator's condition tails and
    operator table. Every per-operator table is indexed by the operator's
    position in `operators`, the index a plan step carries. The tables are
    derived from the declared fields, so a spec is never mutated after load.
    """

    name: str
    actor: str
    objects: dict[str, ObjectSpec]
    predicates: list[tuple[str, bool]]
    operators: list[Operator]
    channels: list[str] = field(init=False)
    channel_index: dict[str, int] = field(init=False)
    pred_bits: dict[str, int] = _table()
    plan_graph: tuple[PlanNode, ...] = _table()
    initial_frame: np.ndarray = _table()
    condition_tails: np.ndarray = _table()
    operator_tables: tuple[OperatorTable, ...] = _table()

    def __post_init__(self) -> None:
        names = [p for p, _ in self.predicates]
        for obj, info in self.objects.items():
            if info.movable:
                names.extend((f"{obj}.x", f"{obj}.y"))
        self.channels = names
        self.channel_index = {n: i for i, n in enumerate(names)}
        _check_semantics(self)

        self.pred_bits = {p: 1 << i for i, (p, _) in enumerate(self.predicates)}
        self.plan_graph = self._plan_graph()
        poses = [v for obj in self.movable_entities() for v in self.objects[obj].position]
        self.initial_frame = _read_only(
            np.array([1.0 if v else 0.0 for _, v in self.predicates] + poses, dtype=np.float64)
        )
        self.condition_tails = _read_only(self._condition_tails())
        self.operator_tables = tuple(self._operator_table(op) for op in self.operators)

    def _plan_graph(self) -> tuple[PlanNode, ...]:
        """Every predicate state within MAX_PLAN_LEN steps of the initial state.

        Nodes are numbered in the order one breadth-first pass, expanding
        operators in (verb, objects) order, first reaches them: depths never
        decrease along the tuple, and the parent chain of the first node
        where a goal holds is the lexicographically smallest shortest plan.
        """
        masks = [self.literal_masks(op.pre) + self.literal_masks(op.post)
                 for op in self.operators]

        def successor(key: int, i: int) -> int | None:
            pre_true, pre_false, post_true, post_false = masks[i]
            if key & pre_true != pre_true or key & pre_false:
                return None
            return (key & ~post_false) | post_true

        order = sorted(range(len(masks)),
                       key=lambda i: (self.operators[i].verb, self.operators[i].objects))
        start, _ = self.literal_masks(Literal(p, v) for p, v in self.predicates)
        nodes = [(start, 0, -1, -1)]
        index = {start: 0}
        n = 0
        while n < len(nodes) and nodes[n][1] < MAX_PLAN_LEN:
            key, depth = nodes[n][:2]
            for i in order:
                nxt = successor(key, i)
                if nxt is not None and nxt not in index:
                    index[nxt] = len(nodes)
                    nodes.append((nxt, depth + 1, n, i))
            n += 1

        def successors(key: int, depth: int) -> tuple[int, ...]:
            if depth == MAX_PLAN_LEN:
                return ()
            keys = (successor(key, i) for i in range(len(masks)))
            return tuple(index[nxt] for nxt in keys if nxt is not None)

        return tuple(PlanNode(key, depth, parent, op, successors(key, depth))
                     for key, depth, parent, op in nodes)

    def _operator_table(self, op: Operator) -> OperatorTable:
        """The table of `op` that the dynamics and the critic read."""

        def literals(lits, tag: str):
            distinct = tuple(dict.fromkeys(lits))
            return (np.array([self.channel_index[lit.pred] for lit in distinct], dtype=np.intp),
                    np.array([lit.value for lit in distinct], dtype=bool),
                    tuple(tag + str(lit) for lit in distinct))

        def columns(name: str) -> np.ndarray:
            return np.array([self.channel_index[f"{name}.x"], self.channel_index[f"{name}.y"]],
                            dtype=np.intp)

        motion = None
        if op.motion is not None:
            target = self.objects[op.motion.target]
            motion = (columns(self.acting_entity(op)),
                      np.array([columns(name) for name in op.motion.moves], dtype=np.intp),
                      columns(op.motion.target) if target.movable
                      else np.array(target.position, dtype=np.float64),
                      target.movable, op.motion.contact)
        return OperatorTable(
            literals(op.pre, "pre-condition-violated:"),
            literals(op.post, "post-condition-unmet:"),
            (np.array([self.channel_index[lit.pred] for lit in op.post], dtype=np.intp),
             np.array([1.0 if lit.value else 0.0 for lit in op.post])),
            motion)

    def _condition_tails(self) -> np.ndarray:
        """The condition blocks after the frame, shape (n_ops, MAX_NORM_SID, n_ops + d + 1).

        Row [i, s - 1] holds a one-hot over the operators at i, then a channel
        mask of operator i's post predicates and the poses of its moving
        entities, then the sid s over MAX_NORM_SID.
        """
        n_ops = len(self.operators)
        tails = np.zeros((n_ops, MAX_NORM_SID, n_ops + len(self.channels) + 1))
        for i, op in enumerate(self.operators):
            touched = [lit.pred for lit in op.post]
            if op.motion is not None:
                touched += [f"{name}.{axis}" for name in op.motion.moves for axis in "xy"]
            tails[i, :, [i] + [n_ops + self.channel_index[ch] for ch in touched]] = 1.0
        tails[:, :, -1] = np.arange(1, MAX_NORM_SID + 1) / MAX_NORM_SID
        return tails

    def holds(self, frame: np.ndarray, literals) -> bool:
        """Whether every literal holds in `frame`, its channel read at DECODE_THRESHOLD."""
        for lit in literals:
            if (frame.item(self.channel_index[lit.pred]) >= DECODE_THRESHOLD) != lit.value:
                return False
        return True

    def literal_masks(self, literals) -> tuple[int, int]:
        """(must-be-true, must-be-false) bitmasks of the literals."""
        true = false = 0
        for lit in literals:
            if lit.value:
                true |= self.pred_bits[lit.pred]
            else:
                false |= self.pred_bits[lit.pred]
        return true, false

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def n_predicates(self) -> int:
        return len(self.predicates)

    def movable_entities(self) -> list[str]:
        return [o for o, info in self.objects.items() if info.movable]

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


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _check_semantics(spec: DomainSpec) -> None:
    """Symbol references, instruction length and duplicate operators."""
    pred_names = {p for p, _ in spec.predicates}
    if spec.actor not in spec.objects:
        raise DomainError(f"actor {spec.actor!r} is not a declared object")
    if not spec.objects[spec.actor].movable:
        raise DomainError(f"actor {spec.actor!r} must be movable")
    seen: set[tuple] = set()
    for op in spec.operators:
        where = f"operator {op}"
        key = (op.verb, op.objects)
        if key in seen:
            raise DomainError(f"duplicate operator for verb/objects {key}")
        seen.add(key)
        for obj in op.objects:
            if obj not in spec.objects:
                raise DomainError(f"{where}: unknown object {obj!r}")
        if op.tool is not None and op.tool not in spec.objects:
            raise DomainError(f"{where}: unknown tool {op.tool!r}")
        for lit in (*op.pre, *op.post):
            if lit.pred not in pred_names:
                raise DomainError(f"{where}: unknown predicate in literal {lit}")
        post_preds = [lit.pred for lit in op.post]
        if len(post_preds) != len(set(post_preds)):
            raise DomainError(f"{where}: duplicate predicate in post literals")
        if len(op.instruction.split()) > MAX_INSTRUCTION_WORDS:
            raise DomainError(f"{where}: instruction exceeds {MAX_INSTRUCTION_WORDS} words")
        if op.motion is not None:
            if op.motion.target not in spec.objects:
                raise DomainError(f"{where}: unknown motion target {op.motion.target!r}")
            for ent in op.motion.moves:
                if ent not in spec.objects:
                    raise DomainError(f"{where}: unknown moving entity {ent!r}")
                if not spec.objects[ent].movable:
                    raise DomainError(f"{where}: moving entity {ent!r} is not movable")
