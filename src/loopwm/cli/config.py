"""Layered run configuration: defaults, then a YAML file, then flags.

The resolved result is written into every run directory so a run can be
reproduced from its artifacts alone.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import yaml

from ..critic import CriticWeights
from ..errors import LoopwmError
from ..grpo import DEFAULT_CURRICULUM, GrpoConfig
from ..loop import LoopConfig
from ..microworld import DomainSpec
from ..microworld.dynamics import MAX_JITTER
from ..worldmodel import SamplerConfig


class UsageError(Exception):
    """Bad invocation or bad input artifact; maps to exit code 2."""


# Every resolvable knob with its default. File and flag values may only
# override keys that exist here; anything else is a typo worth rejecting.
# The sections with a typed config take its defaults. The frame width comes
# from the domain, so it is no knob, and the curriculum is lists, which
# yaml.safe_dump writes.
DEFAULTS: dict = {
    "domain": "kitchen",
    "seed": 0,
    "out": None,
    "loop": asdict(LoopConfig()),
    "sampler": {k: v for k, v in asdict(SamplerConfig()).items() if k != "frame_width"},
    "net": {
        "hidden": 64,
        "depth": 3,
    },
    "sft": {
        "demos": 200,
        "epochs": 50,
        "lr": 3e-3,
        "batch_size": 32,
        "jitter": 0.005,
    },
    "grpo": {**asdict(GrpoConfig()), "curriculum": [list(e) for e in DEFAULT_CURRICULUM]},
    "critic": {
        "weights": list(CriticWeights().as_dict().values()),
    },
    "bench": {
        "counts": [20, 20, 10],
        "mode": "full",
        "suite_seed": None,
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved knobs for one command invocation."""

    domain: str
    seed: int
    out: str | None
    loop: dict
    sampler: dict
    net: dict
    sft: dict
    grpo: dict
    critic: dict
    bench: dict

    def to_dict(self) -> dict:
        return {f.name: copy.deepcopy(getattr(self, f.name)) for f in fields(self)}

    # Typed views. Construction validates, so errors surface here with the
    # library's own messages rather than deep inside a run.

    def loop_config(self) -> LoopConfig:
        return LoopConfig(**self.loop)

    def sampler_config(self, spec: DomainSpec) -> SamplerConfig:
        return SamplerConfig(frame_width=spec.n_channels, **self.sampler)

    def grpo_config(self) -> GrpoConfig:
        raw = dict(self.grpo)
        raw["curriculum"] = tuple((a, b) for a, b in raw["curriculum"])
        return GrpoConfig(**raw)

    def critic_weights(self) -> CriticWeights:
        weights = self.critic["weights"]
        if len(weights) != 5:
            raise UsageError(f"critic.weights needs 5 entries, got {len(weights)}")
        return CriticWeights(*[float(w) for w in weights])

    def check_sft(self) -> None:
        """Reject the `sft` and `net` values that no typed config checks."""
        sft, net = self.sft, self.net
        for ok, rule in (
            (sft["demos"] >= 1, "sft.demos must be >= 1"),
            (sft["epochs"] >= 0, "sft.epochs must be >= 0"),
            (sft["lr"] > 0, "sft.lr must be > 0"),
            (sft["batch_size"] >= 1, "sft.batch_size must be >= 1"),
            (0 <= sft["jitter"] <= MAX_JITTER, f"sft.jitter must lie in [0, {MAX_JITTER}]"),
            (net["hidden"] >= 1, "net.hidden must be >= 1"),
            (net["depth"] >= 0, "net.depth must be >= 0"),
        ):
            if not ok:
                raise ValueError(rule)


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for key, value in override.items():
        if key not in base:
            raise UsageError(f"unknown config key {path + key!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise UsageError(f"config key {path + key!r} must be a mapping")
            out[key] = _merge(base[key], value, path + key + ".")
        else:
            out[key] = value
    return out


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# keys whose default None stands for "derive it"; any other value is an integer
_OPTIONAL_INTEGERS = ("bench.suite_seed",)
_INTEGER_SHAPES = ("an integer", "a list of integers", "a list of lists of integers")


def _integer_depth(default) -> int | None:
    """0 for an integer default, 1 for a list of them, 2 for a list of such lists; else None."""
    if isinstance(default, list) and default:
        inner = _integer_depth(default[0])
        return None if inner is None else inner + 1
    return 0 if _is_int(default) else None


def _fits(value, depth: int) -> bool:
    if depth == 0:
        return _is_int(value)
    return isinstance(value, list) and all(_fits(v, depth - 1) for v in value)


def _check_integers(tree: dict, defaults: dict, path: str = "") -> None:
    """Reject a value not shaped like its key's integer default, lists included."""
    for key, default in defaults.items():
        name, value = path + key, tree[key]
        if isinstance(default, dict):
            _check_integers(value, default, name + ".")
            continue
        optional = name in _OPTIONAL_INTEGERS
        if optional and value is None:
            continue
        depth = 0 if optional else _integer_depth(default)
        if depth is not None and not _fits(value, depth):
            raise UsageError(f"config key {name!r} must be {_INTEGER_SHAPES[depth]}, "
                             f"got {value!r}")


def _set_path(tree: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = tree
    for part in parts[:-1]:
        node = node[part]
    node[parts[-1]] = value


def resolve_config(config_path: str | Path | None = None,
                   overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from defaults < file < flag overrides.

    `overrides` maps dotted key paths ("sft.epochs") to values; None values
    mean the flag was not given and are skipped.
    """
    tree = copy.deepcopy(DEFAULTS)
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        try:
            loaded = yaml.safe_load(path.read_text())
        except yaml.YAMLError as exc:
            raise UsageError(f"cannot parse config file {path}: {exc}") from exc
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise UsageError(f"config file {path} must hold a mapping")
        tree = _merge(tree, loaded)
    for dotted, value in (overrides or {}).items():
        if value is not None:
            _set_path(tree, dotted, value)
    _check_integers(tree, DEFAULTS)
    if not isinstance(tree["domain"], str):
        raise UsageError(f"invalid configuration: domain must be a builtin name or a path, "
                         f"got {tree['domain']!r}")
    config = RunConfig(**tree)
    try:
        config.loop_config()
        # the frame width comes with the domain; every other sampler value is checked here
        SamplerConfig(**config.sampler)
        config.grpo_config()
        config.critic_weights()
        config.check_sft()
    except (LoopwmError, ValueError, TypeError) as exc:
        raise UsageError(f"invalid configuration: {exc}") from exc
    return config


def write_config(config: RunConfig, path: str | Path) -> Path:
    """Serialize the resolved config; the copy makes runs reproducible."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(config.to_dict(), sort_keys=True))
    return path
