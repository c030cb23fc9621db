"""The one walk from a YAML tree to frozen dataclass records, and the YAML reader.

`build` makes a record from a mapping in one walk over the annotations of
its fields:

- int (never bool); float (int or float, never bool, finite, held as a
  float); bool; str;
- a union takes the value as its first member that fits: `X | None` admits
  null, and `int | float` keeps the number's type;
- `tuple[X, ...]` from a list of any length, `tuple[X, Y]` from a list of two;
- `dict[str, X]` from a mapping with string keys, each entry named like a
  field;
- a nested record from a mapping: as a field, an item of a tuple, an entry
  of a mapping or a member of a union.

Every field of a record is a key the tree may set. The walk rejects unknown
keys, leaves missing ones to the field defaults and converts no strings. A
field whose default is None but whose annotation admits no None may be left
out but not written as null. Each record's `__post_init__` checks what its
annotations cannot say (ranges, patterns, non-empty lists) with `require`.
Every error is a `ParseError` at the path of the value at fault, worded with
the caller's `key(path)`.
"""

from __future__ import annotations

import functools
import math
import types
import typing
from dataclasses import MISSING, fields, is_dataclass

import yaml

from .errors import LoopwmError, ParseError

_NOUNS = {int: ("an integer", "integers"), float: ("a number", "numbers"),
          bool: ("a boolean", "booleans"), str: ("a string", "strings")}


def require(ok, attr: str, rule: str) -> None:
    """A record's own check: unless `ok`, a ParseError at the record's field `attr`."""
    if not ok:
        raise ParseError((attr,), rule)


def _shape(tp, plural: bool = False) -> str:
    """What annotation `tp` admits, in words: "a list of numbers"."""
    args, origin = typing.get_args(tp), typing.get_origin(tp)
    if origin is tuple:
        return ("lists of " if plural else "a list of ") + _shape(args[0], plural=True)
    if origin is dict:
        return ("mappings" if plural else "a mapping") + " from strings to " + _shape(args[1], True)
    if origin is types.UnionType:
        # None stands for "derive it", so the words name the other members
        return " or ".join(_shape(a, plural) for a in args if a is not types.NoneType)
    if is_dataclass(tp):
        return "mappings" if plural else "a mapping"
    return _NOUNS[tp][plural]


@functools.cache
def _fields(cls) -> dict:
    """Each field of record `cls` by name, with its annotation resolved."""
    hints = typing.get_type_hints(cls)
    return {f.name: (f, hints[f.name]) for f in fields(cls)}


def build(cls, tree, key):
    """Record `cls` from the mapping `tree`; a ParseError names a bad value by `key(path)`.

    `path` is the tuple of keys and list indices from the root to a value.
    """

    def record(cls, tree: dict, path: tuple):
        settable = _fields(cls)
        values = {}
        for name, value in tree.items():
            if name not in settable:
                raise ParseError(path, f"unknown {key(path + (name,))}")
            values[name] = entry(settable[name][1], value, path + (name,))
        for name, (f, _) in settable.items():
            if name not in tree and f.default is MISSING and f.default_factory is MISSING:
                raise ParseError(path, f"{key(path + (name,))} is missing")
        try:
            return cls(**values)
        except ParseError as exc:  # raised by `require`, at a field of this record
            raise ParseError(path + exc.path, str(exc)) from None
        except (LoopwmError, ValueError) as exc:
            raise ParseError(path, str(exc)) from None

    def entry(tp, value, path: tuple):
        try:
            return convert(tp, value, path)
        except (TypeError, OverflowError):  # an int too large for a float overflows
            raise ParseError(path, f"{key(path)} must be {_shape(tp)}, got {value!r}") from None

    def convert(tp, value, path: tuple):
        """`value` as annotation `tp` holds it; a TypeError if it is of another shape."""
        args, origin = typing.get_args(tp), typing.get_origin(tp)
        if is_dataclass(tp):
            if not isinstance(value, dict):
                raise TypeError
            return record(tp, value, path)
        if origin is tuple:
            if args[-1] is Ellipsis and isinstance(value, (list, tuple)):
                args = args[:1] * len(value)
            if not isinstance(value, (list, tuple)) or len(value) != len(args):
                raise TypeError
            return tuple(convert(a, v, path + (i,)) for i, (a, v) in enumerate(zip(args, value)))
        if origin is dict:
            if not isinstance(value, dict) or not all(isinstance(k, str) for k in value):
                raise TypeError
            return {k: entry(args[1], v, path + (k,)) for k, v in value.items()}
        if origin is types.UnionType:
            if value is None and types.NoneType in args:
                return None
            for member in args:
                try:
                    return convert(member, value, path)
                except TypeError:
                    continue
            raise TypeError
        if tp is bool:
            if not isinstance(value, bool):
                raise TypeError
            return value
        if isinstance(value, bool) or not isinstance(value, (int, float) if tp is float else tp):
            raise TypeError
        if tp is float and not math.isfinite(value):
            raise TypeError
        return float(value) if tp is float else value

    if not isinstance(tree, dict):
        raise ParseError((), f"expected a mapping, got {tree!r}")
    return record(cls, tree, ())


_MERGE = "tag:yaml.org,2002:merge"


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """libyaml's safe loader (PyYAML's own without libyaml) that rejects a repeated key."""


def _unique_mapping(loader, node):
    """A mapping whose keys are all distinct, built as PyYAML's safe loader builds it.

    PyYAML keeps a repeated key's last value, so a file that names a key
    twice would lose one of its values without a word.
    """
    data: dict = {}
    yield data  # first, so an alias inside the mapping can refer to it
    seen = set()
    for key_node, _ in node.value:
        # a merge key (<<) may repeat, and a sequence or mapping is no name
        if not isinstance(key_node, yaml.ScalarNode) or key_node.tag == _MERGE:
            continue
        name = loader.construct_object(key_node)
        if name in seen:
            raise yaml.constructor.ConstructorError(
                "while constructing a mapping", node.start_mark,
                f"found repeated key {name!r}", key_node.start_mark)
        seen.add(name)
    data.update(loader.construct_mapping(node))


_Loader.add_constructor("tag:yaml.org,2002:map", _unique_mapping)


def load_yaml(text: str):
    """The tree of one YAML document; a yaml.YAMLError if it is malformed or repeats a key."""
    return yaml.load(text, Loader=_Loader)

