"""Domain file loading, validation, and hashing.

Domain files are YAML documents checked in two passes. The walk of
`loopwm.parse` builds a `DomainFile` from the tree, checking every key,
type, name pattern, [0, 1] range, contact ordering and non-empty list as it
goes; then `DomainSpec` checks the semantics (symbol references,
instruction length, duplicate bindings). Two domains ship with the package
and can be addressed by bare name: "kitchen" and "workshop".
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import yaml

from ..errors import DomainError, ParseError
from ..parse import build, load_yaml, require
from .types import (
    DOMAIN_NAME,
    LITERAL,
    PREDICATE,
    DomainSpec,
    MotionProfile,
    ObjectSpec,
    Operator,
    parse_literal,
    require_names,
)

BUILTIN_DOMAINS = ("kitchen", "workshop")


@dataclass(frozen=True)
class OperatorEntry:
    """One entry of a domain file's `operators`, as the file writes it.

    A key left out means none; the file may not write it as null.
    """

    verb: str
    objects: tuple[str, ...]
    pre: tuple[str, ...]
    post: tuple[str, ...]
    tool: str = None
    instruction: str = None
    motion: MotionProfile = None

    def __post_init__(self) -> None:
        require_names("verb", (self.verb,))
        require(self.objects, "objects", "must name at least one object")
        require_names("objects", self.objects)
        if self.tool is not None:
            require_names("tool", (self.tool,))
        require_names("pre", self.pre, LITERAL)
        require(self.post, "post", "must hold at least one literal")
        require_names("post", self.post, LITERAL)
        require(self.instruction != "", "instruction", "must not be empty")


@dataclass(frozen=True)
class DomainFile:
    """A domain file's document; `DomainSpec` then checks its symbol references."""

    name: str
    actor: str
    objects: dict[str, ObjectSpec]
    predicates: dict[str, bool]
    operators: tuple[OperatorEntry, ...]

    def __post_init__(self) -> None:
        require_names("name", (self.name,), DOMAIN_NAME)
        require_names("actor", (self.actor,))
        require(self.objects, "objects", "must declare at least one object")
        require_names("objects", self.objects)
        require(self.predicates, "predicates", "must declare at least one predicate")
        require_names("predicates", self.predicates, PREDICATE)
        require(self.operators, "operators", "must declare at least one operator")


def default_instruction(verb: str, objects: tuple[str, ...], tool: str | None, actor: str) -> str:
    text = f"{verb} the {objects[0]}"
    if len(objects) > 1:
        text += f" into the {objects[1]}"
    if tool and tool != actor:
        text += f" with the {tool}"
    return text


def _build_operator(entry: OperatorEntry, actor: str) -> Operator:
    pre = tuple(parse_literal(t) for t in entry.pre)
    post = tuple(parse_literal(t) for t in entry.post)
    instruction = entry.instruction or default_instruction(entry.verb, entry.objects,
                                                           entry.tool, actor)
    return Operator(entry.verb, entry.objects, entry.tool, pre, post, entry.motion, instruction)


def _file_key(path: tuple) -> str:
    return f"key {path[-1]!r}"


def domain_from_dict(raw: dict, source: str = "<dict>") -> DomainSpec:
    try:
        doc = build(DomainFile, raw, _file_key)
    except ParseError as exc:
        path = "/".join(map(str, exc.path))
        raise DomainError(f"{source}: schema violation at '{path}': {exc}") from exc
    # DomainSpec checks the symbol references before it compiles its tables
    return DomainSpec(
        name=doc.name,
        actor=doc.actor,
        objects=doc.objects,
        predicates=list(doc.predicates.items()),
        operators=[_build_operator(entry, doc.actor) for entry in doc.operators],
    )


def load_domain(path: str | Path) -> DomainSpec:
    """Load a domain from a YAML file path or by builtin name."""
    name_or_path = str(path)
    if name_or_path in BUILTIN_DOMAINS:
        text = resources.files("loopwm.microworld.data").joinpath(f"{name_or_path}.yaml").read_text()
        source = f"builtin:{name_or_path}"
    else:
        p = Path(path)
        if not p.exists():
            raise DomainError(f"domain file not found: {path}")
        text = p.read_text()
        source = str(path)
    try:
        raw = load_yaml(text)
    except yaml.YAMLError as exc:
        raise DomainError(f"{source}: not valid YAML: {exc}") from exc
    return domain_from_dict(raw, source)


def canonical_dict(spec: DomainSpec) -> dict:
    """Stable plain-dict rendering used for hashing and manifests."""
    return {
        "name": spec.name,
        "actor": spec.actor,
        "objects": {
            name: {"position": list(info.position), "movable": info.movable}
            for name, info in spec.objects.items()
        },
        "predicates": {p: v for p, v in spec.predicates},
        "operators": [
            {
                "verb": op.verb,
                "objects": list(op.objects),
                "tool": op.tool,
                "instruction": op.instruction,
                "pre": [str(lit) for lit in op.pre],
                "post": [str(lit) for lit in op.post],
                "motion": None
                if op.motion is None
                else {
                    "moves": list(op.motion.moves),
                    "target": op.motion.target,
                    "contact": list(op.motion.contact),
                },
            }
            for op in spec.operators
        ],
    }


def domain_hash(spec: DomainSpec) -> str:
    blob = json.dumps(canonical_dict(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
