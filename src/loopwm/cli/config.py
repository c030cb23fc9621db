"""Layered run configuration: defaults, then a YAML file, then flags.

Each section is a frozen dataclass and `RunConfig()` is the defaults. `parse`
builds one from a YAML tree with the walk of `loopwm.parse`, the one domain
files go through too: it rejects unknown keys, leaves missing ones to the
field defaults, converts no strings, and names the dotted key of a value of
another type; each `__post_init__` checks ranges. Every field is a key: what
the program derives, such as a frame's width (the domain's channel count),
is no field. The resolved config is written into every run directory to
reproduce the run, and the run directory itself is the command's `--out`
flag, not a key.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import yaml

from ..bench import DEFAULT_COUNTS, DIFFICULTIES, MODES
from ..critic import DIMENSIONS, CriticWeights
from ..errors import LoopwmError
from ..grpo import GrpoConfig
from ..loop import LoopConfig
from ..microworld.dynamics import MAX_JITTER
from ..parse import build, load_yaml
from ..worldmodel import SamplerConfig


class UsageError(Exception):
    """Bad invocation or bad input artifact; maps to exit code 2."""


def _require(ok: bool, rule: str) -> None:
    if not ok:
        raise ValueError(rule)


@dataclass(frozen=True)
class NetConfig:
    """The velocity net's width and hidden-layer count."""

    hidden: int = 64
    depth: int = 3

    def __post_init__(self) -> None:
        _require(self.hidden >= 1, "net.hidden must be >= 1")
        _require(self.depth >= 0, "net.depth must be >= 0")


@dataclass(frozen=True)
class SftConfig:
    """Supervised pretraining on demonstration walks."""

    demos: int = 200
    epochs: int = 50
    lr: float = 3e-3
    batch_size: int = 32
    jitter: float = 0.005

    def __post_init__(self) -> None:
        _require(self.demos >= 1, "sft.demos must be >= 1")
        _require(self.epochs >= 0, "sft.epochs must be >= 0")
        _require(self.lr > 0, "sft.lr must be > 0")
        _require(self.batch_size >= 1, "sft.batch_size must be >= 1")
        _require(0 <= self.jitter <= MAX_JITTER, f"sft.jitter must lie in [0, {MAX_JITTER}]")


@dataclass(frozen=True)
class CriticConfig:
    """The critic's dimension weights, in `DIMENSIONS` order."""

    weights: tuple[float, ...] = tuple(CriticWeights().as_dict().values())

    def __post_init__(self) -> None:
        _require(len(self.weights) == len(DIMENSIONS),
                 f"critic.weights needs {len(DIMENSIONS)} entries, got {len(self.weights)}")
        self.as_weights()

    def as_weights(self) -> CriticWeights:
        return CriticWeights(*self.weights)


@dataclass(frozen=True)
class BenchConfig:
    """Suite tasks per difficulty, feedback mode, and a suite seed (None: the run's)."""

    counts: tuple[int, ...] = DEFAULT_COUNTS
    mode: str = "full"
    suite_seed: int | None = None

    def __post_init__(self) -> None:
        _require(len(self.counts) == len(DIFFICULTIES), f"bench.counts needs an entry for "
                 f"each of {DIFFICULTIES}, got {list(self.counts)}")
        _require(self.mode in MODES, f"bench.mode must be one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved knobs for one command invocation."""

    domain: str = "kitchen"
    seed: int = 0
    loop: LoopConfig = field(default_factory=LoopConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    net: NetConfig = field(default_factory=NetConfig)
    sft: SftConfig = field(default_factory=SftConfig)
    grpo: GrpoConfig = field(default_factory=GrpoConfig)
    critic: CriticConfig = field(default_factory=CriticConfig)
    bench: BenchConfig = field(default_factory=BenchConfig)


def _config_key(path: tuple) -> str:
    return f"config key {'.'.join(map(str, path))!r}"


def parse(cls, tree):
    """Dataclass `cls` from the mapping `tree`; a ValueError names a bad key's dotted path.

    The constructors' range checks raise as the sections are built.
    """
    return build(cls, tree, _config_key)


def _plain(value):
    """The YAML-safe tree of a parsed value: sections as mappings, tuples as lists."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


# Every resolvable knob with its default. File and flag values may only set
# keys that exist here; anything else is a typo worth rejecting.
DEFAULTS: dict = _plain(RunConfig())


def resolve_config(config_path: str | Path | None = None,
                   overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from defaults < file < flag overrides.

    `overrides` maps dotted key paths ("sft.epochs") to values; None values
    mean the flag was not given and are skipped.
    """
    tree: dict = {}
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        try:
            loaded = load_yaml(path.read_text())
        except yaml.YAMLError as exc:
            raise UsageError(f"cannot parse config file {path}: {exc}") from exc
        if not isinstance(loaded, (dict, type(None))):
            raise UsageError(f"config file {path} must hold a mapping")
        tree = loaded or {}
    for dotted, value in (overrides or {}).items():
        *section, name = dotted.split(".")  # a flag sets a top-level key or one in a section
        node = tree.setdefault(section[0], {}) if section else tree
        # a section that is no mapping stays for the walk to report
        if value is not None and isinstance(node, dict):
            node[name] = value
    try:
        return parse(RunConfig, tree)
    except (LoopwmError, ValueError) as exc:
        raise UsageError(f"invalid configuration: {exc}") from exc


def write_config(config: RunConfig, path: str | Path) -> Path:
    """Serialize the resolved config; the copy makes runs reproducible."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # PyYAML's own emitter: libyaml's folds a long double-quoted string with
    # escapes (90 "é" in a row) at other places, so the bytes would change
    path.write_text(yaml.safe_dump(_plain(config), sort_keys=True))
    return path
