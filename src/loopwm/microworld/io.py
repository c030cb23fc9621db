"""Domain file loading, validation, and hashing.

Domain files are YAML documents checked in two passes: structurally against
`data/domain.schema.json`, then semantically by `DomainSpec` itself (symbol
references, contact ordering, instruction length, duplicate bindings). Two
domains ship with the package and can be addressed by bare name: "kitchen"
and "workshop".
"""

from __future__ import annotations

import functools
import hashlib
import json
from importlib import resources
from pathlib import Path

import jsonschema
import yaml

from ..errors import DomainError
from .types import (
    DEFAULT_CONTACT,
    DomainSpec,
    MotionProfile,
    ObjectSpec,
    Operator,
    parse_literal,
)

BUILTIN_DOMAINS = ("kitchen", "workshop")

# libyaml's loader parses the same documents to the same dicts, several times faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _schema() -> dict:
    text = resources.files("loopwm.microworld.data").joinpath("domain.schema.json").read_text()
    return json.loads(text)


@functools.cache
def _validator():
    """The domain-schema validator, built and meta-schema-checked once per process."""
    schema = _schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def default_instruction(verb: str, objects: tuple[str, ...], tool: str | None, actor: str) -> str:
    text = f"{verb} the {objects[0]}"
    if len(objects) > 1:
        text += f" into the {objects[1]}"
    if tool and tool != actor:
        text += f" with the {tool}"
    return text


def _build_operator(raw: dict, actor: str) -> Operator:
    verb = raw["verb"]
    objects = tuple(raw["objects"])
    tool = raw.get("tool")
    pre = tuple(parse_literal(t) for t in raw.get("pre", []))
    post = tuple(parse_literal(t) for t in raw["post"])
    motion = None
    if "motion" in raw:
        m = raw["motion"]
        contact = tuple(m.get("contact", DEFAULT_CONTACT))
        motion = MotionProfile(tuple(m["moves"]), m["target"], contact)
    instruction = raw.get("instruction") or default_instruction(verb, objects, tool, actor)
    return Operator(verb, objects, tool, pre, post, motion, instruction)


def domain_from_dict(raw: dict, source: str = "<dict>") -> DomainSpec:
    error = jsonschema.exceptions.best_match(_validator().iter_errors(raw))
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path)
        raise DomainError(f"{source}: schema violation at '{path}': {error.message}") from error
    objects = {
        name: ObjectSpec(tuple(info["position"]), bool(info.get("movable", False)))
        for name, info in raw["objects"].items()
    }
    # DomainSpec checks the symbol references before it compiles its tables
    return DomainSpec(
        name=raw["name"],
        actor=raw["actor"],
        objects=objects,
        predicates=[(p, bool(v)) for p, v in raw["predicates"].items()],
        operators=[_build_operator(o, raw["actor"]) for o in raw["operators"]],
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
        raw = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise DomainError(f"{source}: not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise DomainError(f"{source}: expected a mapping at the top level")
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
