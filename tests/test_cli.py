"""Command-line interface: config layering, artifacts, exit codes."""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import typing
from functools import reduce
from itertools import accumulate
from operator import getitem
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loopwm
from loopwm.bench import MODES, MetricReport, MetricRow, load_report, mode_config
from loopwm.cli import DEFAULTS, UsageError, main, resolve_config, write_config
from loopwm.cli.config import RunConfig
from loopwm.cli.main import build_parser
from loopwm.critic import DIMENSIONS
from loopwm.grpo import ROLLOUT_K_RULE
from loopwm.microworld import MAX_PLAN_LEN, load_domain
from loopwm.microworld.dynamics import MAX_JITTER
from loopwm.numerics import DTYPE, RandomSource, load_checkpoint, net_init
from loopwm.worldmodel import SamplerConfig, velocity_net_sizes
from conftest import chain_domain_dict
from oracles import load_suite

# small-but-consistent knobs shared by the sft/grpo/bench plumbing tests;
# checkpoint manifests pin the frame count, so every consumer repeats it, and
# only sft builds a net
SAMPLER = ["--n-frames", "6", "--k-steps", "6"]
SMALL = SAMPLER + ["--hidden", "24", "--depth", "2"]

# flags that set no config key
PLUMBING = {"--config", "--out", "--checkpoint", "--resume", "--oracle",
            "--labels", "--csv"}


def read_loss(run_dir: Path) -> list[float]:
    rows = list(csv.reader((run_dir / "reports" / "loss.csv").open()))
    assert rows[0] == ["epoch", "loss"]
    return [float(r[1]) for r in rows[1:]]


@pytest.fixture(scope="module")
def sft_small(tmp_path_factory):
    """A minimally trained checkpoint for wiring tests."""
    out = tmp_path_factory.mktemp("sft-small")
    rc = main(["sft", "--demos", "40", "--epochs", "4", "--seed", "11",
               "--out", str(out)] + SMALL)
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def sft_strong(tmp_path_factory):
    """A checkpoint trained well enough for mode-ordering comparisons."""
    out = tmp_path_factory.mktemp("sft-strong")
    rc = main(["sft", "--demos", "400", "--epochs", "400", "--hidden", "128",
               "--depth", "3", "--n-frames", "8", "--lr", "0.003",
               "--batch-size", "32", "--seed", "7", "--out", str(out)])
    assert rc == 0
    return out


# ---------------------------------------------------------------- plan

def test_plan_prints_single_step_for_jar_goal(capsys):
    assert main(["plan", "lid removed"]) == 0
    out = capsys.readouterr().out
    assert "(1 step)" in out
    assert "1. open the jar and set the lid aside" in out


PLAN_GOLDEN = {
    "lid removed": (
        "plan for 'achieve lid removed' in kitchen (1 step):\n"
        "  1. open the jar and set the lid aside\n"
    ),
    "cup stirred": (
        "plan for 'achieve stirred' in kitchen (6 steps):\n"
        "  1. grasp the kettle by its handle\n"
        "  2. grasp the spoon\n"
        "  3. open the jar and set the lid aside\n"
        "  4. pour tea leaves from the jar into the cup\n"
        "  5. pour hot water from the kettle into the cup\n"
        "  6. stir the cup with the spoon\n"
    ),
    "not jar.closed, cup full": (
        "plan for 'achieve not closed and full' in kitchen (4 steps):\n"
        "  1. grasp the kettle by its handle\n"
        "  2. open the jar and set the lid aside\n"
        "  3. pour tea leaves from the jar into the cup\n"
        "  4. pour hot water from the kettle into the cup\n"
    ),
}


@pytest.mark.parametrize("goal", sorted(PLAN_GOLDEN))
def test_plan_stdout_matches_golden_text(goal, capsysbinary):
    assert main(["plan", goal]) == 0
    captured = capsysbinary.readouterr()
    assert captured.out == PLAN_GOLDEN[goal].encode()
    assert captured.err == b""


def test_plan_unreachable_goal_exits_2(capsys):
    rc = main(["plan", "jar.closed, jar.lid_removed"])
    assert rc == 2
    assert "no plan" in capsys.readouterr().err


def test_plan_beyond_the_cap_exits_2(tmp_path, capsys):
    path = tmp_path / "chain.yaml"
    path.write_text(yaml.safe_dump(chain_domain_dict(MAX_PLAN_LEN + 1)))
    assert main(["plan", f"chain.p{MAX_PLAN_LEN}", "--domain", str(path)]) == 0
    assert f"({MAX_PLAN_LEN} steps)" in capsys.readouterr().out
    assert main(["plan", f"chain.p{MAX_PLAN_LEN + 1}", "--domain", str(path)]) == 2
    err = capsys.readouterr().err
    assert "no plan" in err and f"within {MAX_PLAN_LEN} steps" in err


def test_plan_unknown_literal_exits_2(capsys):
    assert main(["plan", "definitely.not.real"]) == 2
    assert "does not name a predicate" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["plan", "lid removed", "--format", "wire"],
    ["plan", "lid removed", "--out", "plan.json"],
    ["mock-serve", "script.json"],
])
def test_removed_remote_agent_surface_exits_2(argv, capsys):
    # the remote agent backend, its JSON plan payload and its scripted server are gone
    assert main(argv) == 2
    capsys.readouterr()


# ---------------------------------------------------------------- parser / config

def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_required_out_exits_2(capsys):
    assert main(["sft"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "plan" in capsys.readouterr().out


def test_flags_beat_file_beat_defaults(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({
        "seed": 5,
        "sft": {"epochs": 2, "demos": 30},
        "net": {"hidden": 16, "depth": 2},
        "sampler": {"n_frames": 6},
    }))
    out = tmp_path / "run"
    rc = main(["sft", "--config", str(cfg), "--epochs", "1", "--out", str(out)])
    assert rc == 0
    assert len(read_loss(out)) == 1  # flag beat the file's 2
    resolved = yaml.safe_load((out / "config.yaml").read_text())
    assert resolved["sft"]["epochs"] == 1
    assert resolved["sft"]["demos"] == 30  # file beat the default 200
    assert resolved["seed"] == 5
    assert resolved["sft"]["batch_size"] == DEFAULTS["sft"]["batch_size"]


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("sfft: {epochs: 1}\n")
    assert main(["sft", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert "unknown config key 'sfft'" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["plan", "lid removed", "--config", str(tmp_path / "nope.yaml")]) == 2
    capsys.readouterr()


def test_resolved_config_round_trips(tmp_path):
    out = tmp_path / "run"
    assert main(["sft", "--demos", "20", "--epochs", "0", "--seed", "9",
                 "--out", str(out)] + SMALL) == 0
    reloaded = resolve_config(out / "config.yaml")
    assert reloaded == resolve_config(None, {
        "seed": 9, "sft.demos": 20, "sft.epochs": 0, "sampler.n_frames": 6,
        "sampler.k_steps": 6, "net.hidden": 24, "net.depth": 2,
    })


def _flags_by_command():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: [a for a in sub._actions if a.option_strings]
            for name, sub in commands.choices.items()}


def _config_keys(tree, prefix=""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _config_keys(value, prefix + key + ".")
        else:
            yield prefix + key


def test_a_repeated_config_key_exits_2_naming_it_and_its_line(tmp_path, capsys):
    # PyYAML would keep the last value and train 50 epochs without a word
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("seed: 3\nsft: {epochs: 5, epochs: 50}\n")
    out = tmp_path / "run"
    assert main(["sft", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "found repeated key 'epochs'" in err and "line 2" in err
    assert not out.exists()


def _curricula():
    """Valid curricula: starts at 1, then strictly rising; levels from 1, never falling."""
    steps = st.lists(st.tuples(st.integers(1, 10**4), st.integers(0, 3)), max_size=3)
    return steps.map(lambda steps: [[start, level] for start, level in zip(
        accumulate((gap for gap, _ in steps), initial=1),
        accumulate((rise for _, rise in steps), initial=1))])


_POSITIVE = st.floats(0, 1e300, exclude_min=True)
_UNIT = st.floats(0, 1, exclude_min=True, exclude_max=True)
# a valid value of every key a config file may set, arbitrary strings included
CONFIG_VALUES = {
    "domain": st.text(), "seed": st.integers(),
    "loop.tau": _UNIT, "loop.k_retries": st.integers(0, 10**6),
    "loop.max_outer_replans": st.integers(0, 10**6),
    "sampler.k_steps": st.integers(1, 10**6), "sampler.eta_scale": st.floats(0, 1e300),
    "sampler.n_frames": st.integers(2, 10**6),
    "net.hidden": st.integers(1, 10**6), "net.depth": st.integers(0, 10**6),
    "sft.demos": st.integers(1, 10**6), "sft.epochs": st.integers(0, 10**6),
    "sft.lr": _POSITIVE, "sft.batch_size": st.integers(1, 10**6),
    "sft.jitter": st.floats(0, MAX_JITTER),
    "grpo.group_size": st.integers(2, 10**6), "grpo.epsilon": _UNIT,
    "grpo.beta": st.floats(0, 1e300), "grpo.delta": _POSITIVE, "grpo.lr": _POSITIVE,
    "grpo.iterations": st.integers(0, 10**6), "grpo.curriculum": _curricula(),
    "grpo.reward_dimension": st.none() | st.sampled_from(DIMENSIONS),
    "critic.weights": st.lists(st.floats(0, 1e300), min_size=5, max_size=5).filter(any),
    "bench.counts": st.lists(st.integers(0, 10**6), min_size=3, max_size=3),
    "bench.mode": st.sampled_from(MODES), "bench.suite_seed": st.none() | st.integers(),
}


def test_the_config_strategies_cover_every_key():
    assert sorted(CONFIG_VALUES) == sorted(_config_keys(DEFAULTS))


# libyaml's emitter folds this domain's double-quoted string at another place
@example(values={**{key: reduce(getitem, key.split("."), DEFAULTS)
                    for key in _config_keys(DEFAULTS)}, "domain": "\u00e9" * 90})
@settings(max_examples=150, deadline=None)
@given(values=st.fixed_dictionaries(CONFIG_VALUES))
def test_config_yaml_is_pyyaml_text_and_reads_back_to_the_config(values):
    config = resolve_config(None, values)
    tree = {}
    for dotted, value in values.items():
        *section, name = dotted.split(".")
        (tree.setdefault(section[0], {}) if section else tree)[name] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(config, Path(tmp) / "config.yaml")
        assert path.read_text() == yaml.safe_dump(tree, sort_keys=True)
        assert resolve_config(path) == config


def test_every_flag_names_a_config_key():
    keys = set(_config_keys(DEFAULTS))
    for command, actions in _flags_by_command().items():
        for action in actions:
            if isinstance(action, argparse._HelpAction) or PLUMBING & set(action.option_strings):
                continue
            assert action.dest in keys, (command, action.option_strings, action.dest)
            assert "." in action.dest or action.dest in ("seed", "domain")


def test_sampler_flags_are_shared_by_sft_grpo_and_bench():
    flags = {command: {opt for a in actions for opt in a.option_strings}
             for command, actions in _flags_by_command().items()}
    for command in ("sft", "grpo", "bench"):
        assert {"--n-frames", "--k-steps", "--eta-scale"} <= flags[command]


def test_grpo_help_states_the_rollout_k_rule():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    description = commands.choices["grpo"].description
    assert ROLLOUT_K_RULE in description
    assert "--k-steps 4R rolls out at R steps for R >= 3" in description


def test_grpo_net_flags_exit_2(sft_small, tmp_path, capsys):
    # the net comes from the checkpoint, so grpo has no flag to size it
    ckpt = str(sft_small / "checkpoints" / "model.ckpt")
    for flag in ("--hidden", "--depth"):
        out = tmp_path / flag.strip("-")
        rc = main(["grpo", "--checkpoint", ckpt, flag, "8", "--out", str(out)] + SAMPLER)
        assert rc == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


def test_invalid_config_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    out = tmp_path / "run"
    # a non-string domain is an invalid value, not a TypeError traceback
    for text in ("grpo: {group_size: 1}\n", "domain: 5\n", "domain: [kitchen]\n"):
        cfg.write_text(text)
        assert main(["plan", "lid removed", "--config", str(cfg)]) == 2
        assert "invalid configuration" in capsys.readouterr().err
        assert main(["sft", "--demos", "2", "--epochs", "0", "--config", str(cfg),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "invalid configuration" in err
        assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("grpo.iterations", 2.5),
    ("grpo.group_size", 3.5),
    ("sampler.k_steps", 2.5),
    ("sampler.n_frames", 4.5),
    ("loop.k_retries", 2.5),
    ("loop.k_retries", True),
])
def test_integer_config_keys_reject_other_values(key, value, tmp_path, capsys):
    with pytest.raises(UsageError, match=f"config key '{key}' must be an integer"):
        resolve_config(None, {key: value})
    section, name = key.split(".")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({section: {name: value}}))
    assert main(["plan", "lid removed", "--config", str(cfg)]) == 2
    assert f"config key '{key}' must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, shape", [
    ("bench.counts", [2.5, 1, 1], "a list of integers"),
    ("bench.counts", 3, "a list of integers"),
    ("grpo.curriculum", [[1, 1.5], [100.7, 3]], "a list of lists of integers"),
    ("grpo.curriculum", [[1, 1], [101, True]], "a list of lists of integers"),
    ("bench.suite_seed", 2.5, "an integer"),
])
def test_list_and_optional_integer_config_keys_reject_other_values(key, value, shape,
                                                                   tmp_path, capsys):
    # the integers inside list-valued keys, and suite_seed when it is set,
    # are checked like scalar integer keys: no truncation, no traceback
    with pytest.raises(UsageError, match=f"config key '{key}' must be {shape}, got"):
        resolve_config(None, {key: value})
    section, name = key.split(".")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({section: {name: value}}))
    out = tmp_path / "run"
    assert main(["bench", "--oracle", "--config", str(cfg), "--out", str(out)] + SAMPLER) == 2
    assert f"config key '{key}' must be {shape}, got" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, value", [
    pytest.param("sampler", "eta_scale: abc", id="eta_scale: abc"),
    pytest.param("sampler", "eta_scale: [1]", id="eta_scale: [1]"),
    ("sft", "lr: true"),
    ("grpo", "lr: true"),
    ("sampler", "eta_scale: true"),
    ("critic", "weights: [true, 0, 0, 0, 0]"),
    # a string under YAML 1.1, and the walk converts no strings to numbers
    ("sft", "lr: 1e-3"),
])
def test_non_numeric_sampler_values_exit_2_before_the_run(section, value, tmp_path, capsys):
    # every section is checked while the config resolves, the sampler's too,
    # though the frame width it needs comes later with the domain
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"{section}: {{{value}}}\n")
    out = tmp_path / "run"
    assert main(["sft", "--demos", "2", "--epochs", "0", "--config", str(cfg),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "invalid configuration" in err
    assert "Traceback" not in err
    # a list-valued key names its shape as the pinned integer lists do
    shape = "a list of numbers" if value.startswith("weights") else "a number"
    assert f"config key '{section}.{value.split(':')[0]}' must be {shape}, got" in err
    assert not out.exists()


@pytest.mark.parametrize("epochs, text, key", [
    ("1", "sft: {lr: .inf}", "sft.lr"),
    ("2", "sft: {lr: .inf}", "sft.lr"),
    ("1", "grpo: {beta: .inf}", "grpo.beta"),
    ("1", "sampler: {eta_scale: .inf}", "sampler.eta_scale"),
    ("1", "critic: {weights: [.inf, 0, 0, 0, 0]}", "critic.weights"),
])
def test_non_finite_config_values_exit_2_before_the_run(epochs, text, key, tmp_path, capsys):
    # an infinite learning rate would train a checkpoint of NaN parameters
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text + "\n")
    out = tmp_path / "run"
    assert main(["sft", "--demos", "4", "--epochs", epochs, "--config", str(cfg),
                 "--out", str(out)] + SMALL) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"config key '{key}' must be" in err
    assert not out.exists()


@pytest.mark.parametrize("text, key", [
    ("bench: {mode: 5}", "bench.mode"),
    ("bench: {mode: open}", "bench.mode"),
    ("bench: {counts: [1, 1]}", "bench.counts"),
])
def test_a_bad_bench_section_exits_2_on_sft_too(text, key, tmp_path, capsys):
    # the whole config is checked whichever command reads it, as a bad grpo
    # section already was
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text + "\n")
    out = tmp_path / "run"
    assert main(["sft", "--demos", "2", "--epochs", "0", "--config", str(cfg),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not out.exists()


def _settable_fields(cls=RunConfig, prefix=""):
    """(dotted key, annotation) of every leaf field of the run config."""
    for name, tp in typing.get_type_hints(cls).items():
        if dataclasses.is_dataclass(tp):
            yield from _settable_fields(tp, prefix + name + ".")
        else:
            yield prefix + name, tp


# a value of each YAML kind; an annotation accepts some of these kinds
KINDS = {
    "integer": st.integers(-10**6, 10**6),
    "fraction": st.floats(-1e6, 1e6).filter(lambda x: not x.is_integer()),
    "non-finite": st.sampled_from([math.inf, -math.inf, math.nan]),
    "bool": st.booleans(),
    "string": st.text(max_size=6),
    "null": st.none(),
    "mapping": st.dictionaries(st.text(max_size=4), st.integers(), min_size=1, max_size=2),
}
ACCEPTED = {int: {"integer"}, float: {"integer", "fraction"}, str: {"string"},
            type(None): {"null"}}


def _wrong_value(tp):
    """Values whose type differs from annotation `tp`, lists of such elements for a tuple."""
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:
        return st.one_of(*KINDS.values(), st.lists(_wrong_value(args[0]), min_size=1, max_size=3))
    accepted = set().union(*(ACCEPTED[a] for a in args)) if args else ACCEPTED[tp]
    kinds = [s for kind, s in KINDS.items() if kind not in accepted]
    return st.one_of(*kinds, st.lists(st.integers(), max_size=3))


FIELDS = sorted(_settable_fields())


def test_every_section_field_is_a_config_key_but_no_frame_width(tmp_path, capsys):
    # so the test below covers every key; the frame width comes from the domain
    assert sorted(key for key, _ in FIELDS) == sorted(_config_keys(DEFAULTS))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("sampler: {frame_width: 3}\n")
    assert main(["plan", "lid removed", "--config", str(cfg)]) == 2
    assert "unknown config key 'sampler.frame_width'" in capsys.readouterr().err


@settings(max_examples=120, deadline=None)
@given(case=st.sampled_from(FIELDS).flatmap(
    lambda field: st.tuples(st.just(field[0]), _wrong_value(field[1]))))
def test_a_value_of_another_type_exits_2_naming_its_key(case):
    key, value = case
    *section, name = key.split(".")
    tree = {section[0]: {name: value}} if section else {name: value}
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.yaml", Path(tmp) / "run"
        cfg.write_text(yaml.safe_dump(tree))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["sft", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert err.getvalue().startswith("error:") and repr(key) in err.getvalue()
        assert not out.exists()


def test_float_config_keys_accept_integers():
    assert resolve_config(None, {"sft.lr": 1, "loop.tau": 0.5}).sft.lr == 1


def test_list_and_optional_integer_config_keys_accept_integers():
    config = resolve_config(None, {"bench.counts": [1, 0, 2], "bench.suite_seed": 4,
                                   "grpo.curriculum": [[1, 2], [50, 4]]})
    assert config.bench.counts == (1, 0, 2) and config.bench.suite_seed == 4
    assert config.grpo.curriculum == ((1, 2), (50, 4))
    assert resolve_config(None, {"bench.suite_seed": None}).bench.suite_seed is None


@pytest.mark.parametrize("argv, config, named", [
    (["sft", "--batch-size", "0"], None, "sft.batch_size"),
    (["sft", "--hidden", "0"], None, "net.hidden"),
    (["sft", "--depth", "-1"], None, "net.depth"),
    (["sft", "--demos", "0"], None, "sft.demos"),
    (["sft", "--lr", "-1"], None, "sft.lr"),
    (["sft", "--epochs", "-1"], None, "sft.epochs"),
    (["sft"], "sft: {jitter: 0.03}\n", "sft.jitter"),
    (["bench", "--oracle", "--counts", "0,0,0"], None, "empty suite"),
], ids=["batch_size", "hidden", "depth", "demos", "lr", "epochs", "jitter", "empty_suite"])
def test_bad_sft_values_and_an_empty_suite_exit_2_before_the_run(argv, config, named,
                                                                   tmp_path, capsys):
    if config is not None:
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)] + SAMPLER) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert not out.exists()


# ---------------------------------------------------------------- suite

def test_suite_command_writes_loadable_suite(tmp_path, capsys):
    path = tmp_path / "suite.json"
    rc = main(["suite", "--counts", "4,3,1", "--seed", "3", "--out", str(path)])
    assert rc == 0
    suite = load_suite(path)
    assert suite.counts() == {"simple": 4, "medium": 3, "hard": 1}
    assert suite.digest[:12] in capsys.readouterr().out


def test_suite_is_deterministic_per_seed(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    main(["suite", "--counts", "3,2,1", "--seed", "3", "--out", str(a)])
    main(["suite", "--counts", "3,2,1", "--seed", "3", "--out", str(b)])
    main(["suite", "--counts", "3,2,1", "--seed", "4", "--out", str(c)])
    assert a.read_bytes() == b.read_bytes()
    assert load_suite(a).digest != load_suite(c).digest


def test_suite_unfillable_level_exits_2(tmp_path, capsys):
    (tmp_path / "shallow.yaml").write_text(
        """
name: shallow
actor: hand
objects:
  jar:  {position: [0.44, 0.56]}
  hand: {position: [0.49, 0.52], movable: true}
predicates:
  jar.closed: true
  jar.lid_removed: false
  jar.grasped: false
operators:
  - verb: open
    objects: [jar]
    tool: hand
    instruction: open the jar and set the lid aside
    pre: [jar.closed]
    post: [not jar.closed, jar.lid_removed]
    motion: {moves: [hand], target: jar}
  - verb: grasp
    objects: [jar]
    tool: hand
    instruction: grasp the jar
    pre: [not jar.grasped]
    post: [jar.grasped]
    motion: {moves: [hand], target: jar}
"""
    )
    rc = main(["suite", "--domain", str(tmp_path / "shallow.yaml"),
               "--counts", "1,0,1", "--out", str(tmp_path / "s.json")])
    assert rc == 2
    assert "hard" in capsys.readouterr().err


@pytest.mark.parametrize("domain", ["kitchen", "workshop"])
def test_suite_of_zero_counts_exits_2_and_writes_nothing(domain, tmp_path, capsys):
    # bench refuses these counts; suite refuses them too, before it writes
    out = tmp_path / "s.json"
    assert main(["suite", "--domain", domain, "--counts", "0,0,0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "empty suite" in err
    assert not out.exists()


def test_bad_counts_exit_2(tmp_path, capsys):
    assert main(["suite", "--counts", "1,2", "--out", str(tmp_path / "s.json")]) == 2
    assert main(["suite", "--counts", "a,b,c", "--out", str(tmp_path / "s.json")]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------- sft

@pytest.fixture(scope="module")
def sft_recipe(tmp_path_factory):
    out = tmp_path_factory.mktemp("sft-recipe")
    rc = main(["sft", "--demos", "200", "--epochs", "50", "--n-frames", "8",
               "--hidden", "128", "--seed", "0", "--out", str(out)])
    assert rc == 0
    return out


def test_sft_halves_the_loss(sft_recipe):
    # 200 demos / 50 epochs on an 8-frame, width-128 net: comfortable margin
    losses = read_loss(sft_recipe)
    assert len(losses) == 50
    assert losses[-1] < 0.5 * losses[0]


def test_sft_run_dir_is_complete(sft_recipe):
    run = sft_recipe
    assert (run / "config.yaml").exists()
    assert (run / "logs" / "events.log").read_text()  # at least the header line
    assert (run / "checkpoints" / "model.ckpt").exists()
    assert (run / "checkpoints" / "model.ckpt.json").exists()
    assert (run / "reports" / "loss.csv").exists()
    assert (run / "reports" / "loss.svg").exists()
    assert yaml.safe_load((run / "config.yaml").read_text())["seed"] == 0


def test_sft_zero_epochs_equals_initialization(tmp_path):
    out = tmp_path / "run"
    assert main(["sft", "--demos", "20", "--epochs", "0", "--seed", "11",
                 "--out", str(out)] + SMALL) == 0
    got = load_checkpoint(out / "checkpoints" / "model.ckpt")

    spec = load_domain("kitchen")
    sampler = SamplerConfig(k_steps=6, n_frames=6)
    sizes = velocity_net_sizes(spec, sampler, hidden=24, depth=2)
    expected = net_init(sizes, RandomSource(11).split(2))
    assert got.sizes == tuple(sizes)
    assert all((a == b).all() for a, b in zip(got.weights, expected.weights))
    assert all((a == b).all() for a, b in zip(got.biases, expected.biases))
    assert read_loss(out) == []


def test_sft_same_seed_same_bytes_different_seed_differs(tmp_path):
    args = ["sft", "--demos", "30", "--epochs", "2"] + SMALL
    for name, seed in (("a", "3"), ("b", "3"), ("c", "4")):
        assert main(args + ["--seed", seed, "--out", str(tmp_path / name)]) == 0
    ckpt = lambda n: (tmp_path / n / "checkpoints" / "model.ckpt").read_bytes()
    assert ckpt("a") == ckpt("b")
    assert ckpt("a") != ckpt("c")


# ---------------------------------------------------------------- grpo

def test_grpo_missing_checkpoint_exits_2(tmp_path, capsys):
    rc = main(["grpo", "--checkpoint", str(tmp_path / "no.ckpt"),
               "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "checkpoint not found" in capsys.readouterr().err
    rc = main(["grpo", "--out", str(tmp_path / "run2")])
    assert rc == 2
    assert "--checkpoint" in capsys.readouterr().err


def test_grpo_emits_log_curves_and_state(sft_small, tmp_path):
    out = tmp_path / "run"
    rc = main(["grpo", "--checkpoint", str(sft_small / "checkpoints" / "model.ckpt"),
               "--iterations", "2", "--group-size", "2", "--seed", "11",
               "--out", str(out)] + SAMPLER)
    assert rc == 0
    rows = list(csv.reader((out / "reports" / "training_log.csv").open()))
    assert [r[0] for r in rows[1:]] == ["1", "2"]
    for column in ("mean_reward", "kl_mean", "curriculum_level"):
        assert (out / "reports" / "curves" / f"{column}.csv").exists()
        assert (out / "reports" / "curves" / f"{column}.svg").exists()
    assert json.loads((out / "state.json").read_text())["iterations_done"] == 2
    assert (out / "checkpoints" / "reference.ckpt").exists()
    # the reference never moves during optimization
    assert (out / "checkpoints" / "reference.ckpt").read_bytes() == \
        (sft_small / "checkpoints" / "model.ckpt").read_bytes()


def test_grpo_resume_continues_iteration_numbering(sft_small, tmp_path):
    first = tmp_path / "first"
    rc = main(["grpo", "--checkpoint", str(sft_small / "checkpoints" / "model.ckpt"),
               "--iterations", "2", "--group-size", "2", "--seed", "11",
               "--out", str(first)] + SAMPLER)
    assert rc == 0
    resumed = tmp_path / "resumed"
    # no sampler flags here: the resume dir's config.yaml supplies them
    rc = main(["grpo", "--resume", str(first), "--iterations", "4",
               "--out", str(resumed)])
    assert rc == 0
    rows = list(csv.reader((resumed / "reports" / "training_log.csv").open()))
    assert [r[0] for r in rows[1:]] == ["1", "2", "3", "4"]
    assert json.loads((resumed / "state.json").read_text())["iterations_done"] == 4
    resolved = yaml.safe_load((resumed / "config.yaml").read_text())
    assert resolved["sampler"]["n_frames"] == 6  # inherited through the saved config


def test_grpo_and_bench_record_the_checkpoint_net(tmp_path, capsys):
    # the net comes from the checkpoint, so the run's config.yaml says so
    # whatever the resolved net section holds; an oracle run keeps it
    sft = tmp_path / "sft"
    assert main(["sft", "--demos", "8", "--epochs", "1", "--hidden", "16", "--depth", "2",
                 "--out", str(sft)] + SAMPLER) == 0
    ckpt = str(sft / "checkpoints" / "model.ckpt")
    runs = {
        "grpo": ["grpo", "--checkpoint", ckpt, "--iterations", "1", "--group-size", "2"]
        + SAMPLER,
        "resumed": ["grpo", "--resume", str(tmp_path / "grpo"), "--iterations", "2"],
        "bench": ["bench", "--checkpoint", ckpt, "--counts", "1,0,0"] + SAMPLER,
        "oracle": ["bench", "--oracle", "--counts", "1,0,0"] + SAMPLER,
    }
    for name, argv in runs.items():
        assert main(argv + ["--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    net = lambda name: yaml.safe_load((tmp_path / name / "config.yaml").read_text())["net"]
    for name in ("grpo", "resumed", "bench"):
        assert net(name) == {"hidden": 16, "depth": 2}, name
    assert net("oracle") == DEFAULTS["net"]


def _rows(args, kwargs, result):
    return len(args[1])


def _objective_reads(args, kwargs, result):
    rows = sum(len(m.trace.steps) for m in args[2].members)
    # group_size x rollout K (half the grpo stage's --k-steps 12 below): a
    # layout that miscounts the objective's rows fails here
    assert rows == 2 * 6
    return rows, result.dropped


def _update_reads(args, kwargs, result):
    return bool(result[2].skipped)


# Call sites a per-layer tracer replaces, and what it reads from each call:
# the batch rows of forward and backward calls, an objective's trace steps
# and dropped members, and whether an update was skipped.
WRAPPED = {
    "loopwm.worldmodel.training": {"net_backward_batch": _rows, "opt_step": None},
    "loopwm.grpo.update": {"net_backward_batch": _rows, "opt_step": None,
                           "objective_terms": _objective_reads},
    "loopwm.grpo.train": {"rollout_group": None, "grpo_update": _update_reads},
}


def test_sft_and_grpo_write_the_same_bytes_under_pass_through_wrappers(tmp_path, monkeypatch):
    # a tracer swaps these attributes for wrappers that call the original and
    # read its arguments and result; the stages must run and write the same
    # bytes either way
    def stages(out: Path) -> dict[str, bytes]:
        assert main(["sft", "--demos", "24", "--epochs", "3", "--seed", "5",
                     "--out", str(out / "sft")] + SMALL) == 0
        assert main(["grpo", "--checkpoint", str(out / "sft" / "checkpoints" / "model.ckpt"),
                     "--iterations", "3", "--group-size", "2", "--seed", "7",
                     "--out", str(out / "grpo")] + SAMPLER + ["--k-steps", "24"]) == 0
        return {name: (out / name).read_bytes() for name in (
            "sft/reports/loss.csv", "sft/checkpoints/model.ckpt",
            "grpo/reports/training_log.csv", "grpo/checkpoints/model.ckpt")}

    plain = stages(tmp_path / "plain")
    calls: dict[str, int] = {}

    def wrap(site: str, fn, read):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if read is not None:
                read(args, kwargs, result)
            calls[site] = calls.get(site, 0) + 1
            return result
        return wrapper

    with monkeypatch.context() as patch:
        for module_name, sites in WRAPPED.items():
            module = importlib.import_module(module_name)
            for attr, read in sites.items():
                site = f"{module_name}.{attr}"
                patch.setattr(module, attr, wrap(site, getattr(module, attr), read))
        wrapped = stages(tmp_path / "wrapped")
    assert wrapped == plain
    assert sorted(calls) == sorted(f"{m}.{a}" for m, sites in WRAPPED.items() for a in sites)


def test_grpo_resume_without_state_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "config.yaml").write_text(yaml.safe_dump(DEFAULTS))
    assert main(["grpo", "--resume", str(empty), "--out", str(tmp_path / "r")]) == 2
    assert "nothing to resume" in capsys.readouterr().err


# iterations_done is a count: no string, float, bool or negative number passes
@pytest.mark.parametrize("state", ["{not json", '{"seed": 0}', '{"iterations_done": -5}',
                                   '{"iterations_done": "3"}', '{"iterations_done": 2.7}',
                                   '{"iterations_done": true}'])
def test_grpo_resume_with_malformed_state_exits_2_naming_it(state, tmp_path, capsys):
    old = tmp_path / "old"
    old.mkdir()
    (old / "config.yaml").write_text(yaml.safe_dump(DEFAULTS))
    (old / "state.json").write_text(state)
    out = tmp_path / "r"
    assert main(["grpo", "--resume", str(old), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(old / "state.json") in err
    assert not out.exists()


def _assert_old_config_exits_2(tree, key, sft_small, tmp_path, capsys):
    """A saved run whose config.yaml holds `key` exits 2 naming it, on both grpo entry paths."""
    old = tmp_path / "old"
    old.mkdir()
    (old / "config.yaml").write_text(yaml.safe_dump(tree))
    (old / "state.json").write_text(json.dumps({"iterations_done": 2, "seed": 0}))
    assert main(["grpo", "--resume", str(old), "--out", str(tmp_path / "resumed")]) == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    rc = main(["grpo", "--config", str(old / "config.yaml"),
               "--checkpoint", str(sft_small / "checkpoints" / "model.ckpt"),
               "--out", str(tmp_path / "run")] + SAMPLER)
    assert rc == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "resumed").exists() and not (tmp_path / "run").exists()


def test_grpo_config_with_reward_source_exits_2(sft_small, tmp_path, capsys):
    # run directories saved before the reward model was removed still carry
    # grpo.reward_source
    tree = {**DEFAULTS, "grpo": {**DEFAULTS["grpo"], "reward_source": "programmatic"}}
    _assert_old_config_exits_2(tree, "grpo.reward_source", sft_small, tmp_path, capsys)


def test_resolve_config_rejects_a_backend_section_by_name(tmp_path):
    # run directories saved while the remote agent backend existed carry a
    # backend section; it is rejected by name instead of silently ignored
    assert "backend" not in DEFAULTS
    assert not hasattr(RunConfig, "agent_backend")
    path = tmp_path / "config.yaml"
    tree = {**DEFAULTS, "backend": {"kind": "builtin", "base_url": None, "timeout": 5.0,
                                    "retries": 2, "token_env": None}}
    path.write_text(yaml.safe_dump(tree, sort_keys=True))
    with pytest.raises(UsageError, match="unknown config key 'backend'"):
        resolve_config(path)
    path.write_text(yaml.safe_dump({"backend": {}}))
    with pytest.raises(UsageError, match="unknown config key 'backend'"):
        resolve_config(path)


@pytest.mark.parametrize("key", ["out", "sampler.delta"])
def test_config_with_out_or_sampler_delta_exits_2(key, sft_small, tmp_path, capsys):
    # run directories saved while `out` and the sigma floor were settable
    # carry `out: null` and `sampler: {delta: 0.001}`
    tree = ({**DEFAULTS, "out": None} if key == "out"
            else {**DEFAULTS, "sampler": {**DEFAULTS["sampler"], "delta": 0.001}})
    _assert_old_config_exits_2(tree, key, sft_small, tmp_path, capsys)


def test_grpo_resume_with_a_malformed_training_log_exits_2_naming_it(sft_small, tmp_path,
                                                                     capsys):
    first = tmp_path / "first"
    assert main(["grpo", "--checkpoint", str(sft_small / "checkpoints" / "model.ckpt"),
                 "--iterations", "1", "--group-size", "2", "--out", str(first)] + SAMPLER) == 0
    log = first / "reports" / "training_log.csv"
    header, row = log.read_text().splitlines()
    for text, words in ((header.replace("kl_mean", "kl") + "\n" + row, "is not a training log"),
                        (header + "\n" + row.rsplit(",", 1)[0], "holds malformed rows")):
        log.write_text(text + "\n")
        out = tmp_path / "resumed"
        assert main(["grpo", "--resume", str(first), "--iterations", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {log} {words}")
        assert not out.exists()


def test_grpo_resume_with_a_log_that_disagrees_with_the_state_exits_2(sft_small, tmp_path,
                                                                       capsys):
    # a state that says 1 done over a log of 1-2 would resume to a log of
    # iterations 1 2 2 3; the resume stops before it writes anything
    first = tmp_path / "first"
    assert main(["grpo", "--checkpoint", str(sft_small / "checkpoints" / "model.ckpt"),
                 "--iterations", "2", "--group-size", "2", "--out", str(first)] + SAMPLER) == 0
    log, state = first / "reports" / "training_log.csv", first / "state.json"
    state.write_text(json.dumps({**json.loads(state.read_text()), "iterations_done": 1}))
    out = tmp_path / "resumed"
    assert main(["grpo", "--resume", str(first), "--iterations", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {log} logs 2 iterations but {state} records 1 done")
    assert not out.exists()
    # a log out of order, a state past its log and a log lost from the run
    # dir exit 2 alike
    header, first_row, second_row = log.read_text().splitlines()
    for done, rows, logged in ((2, [second_row, first_row], 2), (3, [first_row, second_row], 2),
                               (3, None, 0)):
        state.write_text(json.dumps({**json.loads(state.read_text()), "iterations_done": done}))
        if rows is None:
            log.unlink()
        else:
            log.write_text("\n".join([header, *rows]) + "\n")
        assert main(["grpo", "--resume", str(first), "--iterations", "4",
                     "--out", str(out)]) == 2
        assert f"logs {logged} iterations but {state} records {done} done" in \
            capsys.readouterr().err
        assert not out.exists()


def test_config_with_backend_section_exits_2(sft_small, tmp_path, capsys):
    # run directories saved while the remote agent backend existed carry a
    # backend section
    tree = {**DEFAULTS, "backend": {"kind": "builtin", "base_url": None, "timeout": 5.0,
                                    "retries": 2, "token_env": None}}
    _assert_old_config_exits_2(tree, "backend", sft_small, tmp_path, capsys)


def test_grpo_critic_weights_shape_the_reward(sft_small, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("critic: {weights: [1, 0, 0, 0, 0]}\n")
    out = tmp_path / "run"
    rc = main(["grpo", "--config", str(cfg), "--iterations", "2", "--group-size", "2",
               "--checkpoint", str(sft_small / "checkpoints" / "model.ckpt"),
               "--seed", "11", "--out", str(out)] + SAMPLER)
    assert rc == 0
    rows = list(csv.DictReader((out / "reports" / "training_log.csv").open()))
    assert len(rows) == 2
    assert all(row["mean_reward"] == row["adherence_mean"] for row in rows)


def test_grpo_unknown_reward_dimension_exits_2_before_the_run(sft_small, tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("grpo: {reward_dimension: style}\n")
    out = tmp_path / "run"
    rc = main(["grpo", "--config", str(cfg), "--iterations", "1",
               "--checkpoint", str(sft_small / "checkpoints" / "model.ckpt"),
               "--out", str(out)] + SAMPLER)
    assert rc == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err and "'style'" in err
    assert not out.exists()


def test_grpo_deterministic_sampler_exits_2_before_the_run(sft_small, tmp_path, capsys):
    # a group sampled without noise has identical members, so nothing to rank
    out = tmp_path / "run"
    rc = main(["grpo", "--eta-scale", "0", "--iterations", "1",
               "--checkpoint", str(sft_small / "checkpoints" / "model.ckpt"),
               "--out", str(out)] + SAMPLER)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "eta_scale > 0" in err
    assert not out.exists()


def _rollout_k_logged(run_dir: Path) -> list[str]:
    return [word for line in (run_dir / "logs" / "events.log").read_text().splitlines()
            if " grpo: " in line for word in line.split() if word.startswith("rollout_k=")]


def test_grpo_records_its_rollout_k_and_warns_when_a_resume_changes_it(
        sft_small, tmp_path, capsys):
    ckpt = str(sft_small / "checkpoints" / "model.ckpt")
    first = tmp_path / "first"
    assert main(["grpo", "--checkpoint", ckpt, "--iterations", "1", "--group-size", "2",
                 "--out", str(first)] + SAMPLER) == 0
    # --k-steps 6: rollouts denoise 3 steps
    assert json.loads((first / "state.json").read_text())["rollout_k"] == 3
    assert _rollout_k_logged(first) == ["rollout_k=3"]
    capsys.readouterr()
    resumed = tmp_path / "resumed"
    assert main(["grpo", "--resume", str(first), "--iterations", "2",
                 "--out", str(resumed)]) == 0
    assert "warning" not in capsys.readouterr().err
    assert _rollout_k_logged(resumed) == ["rollout_k=3"]
    # --k-steps 12 rolls out at 3 steps too, so it resumes without a warning
    assert main(["grpo", "--resume", str(first), "--iterations", "2", "--k-steps", "12",
                 "--out", str(tmp_path / "same")]) == 0
    assert "warning" not in capsys.readouterr().err
    # a different rollout K, or a state written before rollouts ran at a
    # train-time K, is resumed with a warning on stderr that states the rule
    assert main(["grpo", "--resume", str(first), "--iterations", "2", "--k-steps", "24",
                 "--out", str(tmp_path / "longer")]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: iterations 1..1 of")
    assert "rolled out at 3 denoising steps" in err and "iterations from 2 roll out at 6" in err
    assert ROLLOUT_K_RULE in err
    # a state rolled out at half of --k-steps 10 resumes at a quarter of it
    (first / "state.json").write_text(
        json.dumps({"iterations_done": 1, "seed": 0, "rollout_k": 5}))
    assert main(["grpo", "--resume", str(first), "--iterations", "2", "--k-steps", "10",
                 "--out", str(tmp_path / "quarter")]) == 0
    err = capsys.readouterr().err
    assert "rolled out at 5 denoising steps" in err and "iterations from 2 roll out at 3" in err
    assert json.loads((tmp_path / "quarter" / "state.json").read_text())["rollout_k"] == 3
    (first / "state.json").write_text(json.dumps({"iterations_done": 1, "seed": 0}))
    assert main(["grpo", "--resume", str(first), "--iterations", "2",
                 "--out", str(tmp_path / "older")]) == 0
    err = capsys.readouterr().err
    assert "rolled out at the full --k-steps" in err and "roll out at 3" in err
    assert json.loads((tmp_path / "older" / "state.json").read_text())["rollout_k"] == 3


# sha256 of the artifacts of `_tiny_pipeline` with 6-step rollouts, recorded
# when grpo rolled out at its full --k-steps (numpy 2.4, OpenBLAS): 6-step
# rollouts, sft and bench must keep these bytes. The two checkpoints were
# re-recorded when the net moved to float32 (LWNET002), and again when the
# forward became feature-major (`w @ h`), which rounds this 24x2 net's
# products differently in the last bit; the reports kept their bytes
PARENT_DIGESTS = {
    "sft/reports/loss.csv": "bec1f1a65bdab446b890651c99f15c555f1ba930873e72978f2c05d986fc8ceb",
    "sft/checkpoints/model.ckpt":
        "1523605bd4377ed6572ee971e62e44e6d70d6ffca3951c5be0ed412303fc2ddb",
    "grpo/reports/training_log.csv":
        "2a06f146e78589ed4435573cc02999e5bed3ee4b67f4a1837762cd48b6351ce9",
    "grpo/checkpoints/model.ckpt":
        "576f61a1ff4d15ab4d560c53a90175b7be80f34a1c7491b727ba56a9cae7268d",
    "bench/reports/report.json":
        "46ff8e364f489fd0a9768b6022f9275ca2f1092881a5d8b7a8d7f68c58a6712b",
}


def _tiny_pipeline(out: Path, grpo_flags: list[str]) -> dict[str, str]:
    ckpt = str(out / "sft" / "checkpoints" / "model.ckpt")
    assert main(["sft", "--demos", "24", "--epochs", "3", "--seed", "5",
                 "--out", str(out / "sft")] + SMALL) == 0
    assert main(["grpo", "--checkpoint", ckpt, "--iterations", "3", "--group-size", "2",
                 "--seed", "7", "--out", str(out / "grpo")] + SAMPLER + grpo_flags) == 0
    assert main(["bench", "--checkpoint", ckpt, "--counts", "2,1,1", "--seed", "3",
                 "--out", str(out / "bench")] + SAMPLER) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in PARENT_DIGESTS}


def test_full_k_rollouts_sft_and_bench_keep_their_bytes(tmp_path):
    # --k-steps 24 rolls out at 6 steps, as --k-steps 6 did before
    full = _tiny_pipeline(tmp_path / "full", ["--k-steps", "24"])
    assert full == PARENT_DIGESTS
    # SAMPLER's --k-steps 6 rolls out at 3 steps: sft and bench are
    # untouched, the grpo run differs
    coarse = _tiny_pipeline(tmp_path / "coarse", [])
    grpo = {"grpo/reports/training_log.csv", "grpo/checkpoints/model.ckpt"}
    assert {k: v for k, v in coarse.items() if k not in grpo} == \
        {k: v for k, v in full.items() if k not in grpo}
    assert all(coarse[k] != full[k] for k in grpo)


def test_pipeline_runs_in_float32_and_sums_in_float64(tmp_path, monkeypatch):
    # under NEP 50 one stray float64 scalar silently widens a whole array,
    # which costs speed and fails no other test; so every stage's arrays are
    # checked here: float32 for the net and the sampler, float64 for the
    # densities, the GRPO ratios and objective, and what the critic scores.
    # The SFT loss is summed in float64: the bitwise SFT test sums it so
    seen = {"forward": [], "backward": [], "groups": [], "critic": [], "segments": []}

    def spy(module, name, record):
        module = importlib.import_module(module)
        original = getattr(module, name)

        def wrapped(*args, **kwargs):
            result = original(*args, **kwargs)
            record(args, result)
            return result

        monkeypatch.setattr(module, name, wrapped)

    for module in ("loopwm.worldmodel.training", "loopwm.worldmodel.sampler",
                   "loopwm.grpo.update"):
        spy(module, "net_activations",
            lambda args, acts: seen["forward"].append({a.dtype for a in acts}))
    for module in ("loopwm.worldmodel.training", "loopwm.grpo.update"):
        spy(module, "net_backward_batch",
            lambda args, grad: seen["backward"].append(
                {a.dtype for a in args[1]} | {args[2].dtype, grad.dtype}))
    spy("loopwm.grpo.train", "grpo_update",
        lambda args, result: seen["groups"].append((args[0].theta, args[1], result[2])))
    spy("loopwm.critic.scoring", "_checked",
        lambda args, result: seen["critic"].append(args[1].dtype))
    spy("loopwm.worldmodel.policy", "sample_rows",
        lambda args, rows: seen["segments"].extend(r.dtype for r in rows if r is not None))
    _tiny_pipeline(tmp_path, [])

    f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
    assert DTYPE == np.float32
    for run in ("sft", "grpo"):
        assert load_checkpoint(tmp_path / run / "checkpoints" / "model.ckpt").vector.dtype == f32
    for stage in ("forward", "backward"):
        assert seen[stage] and all(d == {f32} for d in seen[stage])
    assert seen["groups"]
    for theta, group, terms in seen["groups"]:
        assert theta.vector.dtype == f32
        assert group.frames.dtype == group.trace.steps.dtype == group.trace.z_next.dtype == f32
        assert group.trace.logp.dtype == group.trace.std.dtype == f64
        assert terms.ratios.dtype == f64 and terms.grads.dtype == f32
        assert all(type(v) is float for v in (terms.value, terms.surrogate, terms.kl))
    assert seen["segments"] and set(seen["segments"]) == {f32}
    assert seen["critic"] and set(seen["critic"]) == {f64}


# ---------------------------------------------------------------- bench

def test_bench_oracle_reaches_full_completeness(tmp_path):
    out = tmp_path / "run"
    rc = main(["bench", "--oracle", "--mode", "full", "--counts", "3,2,1",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    report = load_report(out / "reports" / "report.json")
    assert report.overall.action_completeness == 1.0
    assert report.overall.success_rate == 1.0
    assert load_suite(out / "reports" / "suite.json").digest == report.suite_digest


def test_bench_invalid_mode_exits_2(tmp_path, capsys):
    rc = main(["bench", "--oracle", "--mode", "closed-loop",
               "--out", str(tmp_path / "r")])
    assert rc == 2
    capsys.readouterr()


def test_bench_needs_exactly_one_policy_source(sft_small, tmp_path, capsys):
    assert main(["bench", "--mode", "full", "--out", str(tmp_path / "a")]) == 2
    rc = main(["bench", "--oracle",
               "--checkpoint", str(sft_small / "checkpoints" / "model.ckpt"),
               "--out", str(tmp_path / "b")])
    assert rc == 2
    capsys.readouterr()


def test_bench_sampling_settings_are_free(sft_small, tmp_path, capsys):
    # the checkpoint was saved at K=6 and the default eta_scale 0.3
    ckpt = str(sft_small / "checkpoints" / "model.ckpt")
    flags = ["--counts", "2,0,0", "--seed", "1", "--n-frames", "6"]
    rc = main(["bench", "--checkpoint", ckpt, "--k-steps", "6", "--eta-scale", "0",
               "--out", str(tmp_path / "ode")] + flags)
    assert rc == 0
    assert (tmp_path / "ode" / "reports" / "report.json").exists()
    rc = main(["bench", "--checkpoint", ckpt, "--k-steps", "4",
               "--out", str(tmp_path / "k4")] + flags)
    assert rc == 0
    assert (tmp_path / "k4" / "reports" / "report.json").exists()
    rc = main(["bench", "--checkpoint", ckpt, "--k-steps", "4", "--n-frames", "8",
               "--counts", "2,0,0", "--out", str(tmp_path / "f8")])
    assert rc == 2
    assert "n_frames" in capsys.readouterr().err


def test_bench_critic_weights_reach_the_builtin_critic(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("critic: {weights: [0, 0, 0, 0, 1]}\n")
    flags = ["bench", "--oracle", "--counts", "3,3,1", "--n-frames", "8", "--seed", "1"]
    assert main(flags + ["--out", str(tmp_path / "default")]) == 0
    assert main(flags + ["--config", str(cfg), "--out", str(tmp_path / "realism")]) == 0
    capsys.readouterr()
    report = lambda name: (tmp_path / name / "reports" / "report.json").read_bytes()
    assert report("default") != report("realism")


ORACLE_REPORT_SHA256 = "c1c2809684e86fbc077058a7af922690e825d8ba5fe94177e50cfda6fe8ffff2"


def test_oracle_bench_keeps_its_bytes(tmp_path, capsys):
    # the oracle is the one bench policy whose segments start at the memory's
    # simulated state, so this pins the dynamics and the reference generator
    # on every step of a run of the pinned suite
    out = tmp_path / "oracle"
    assert main(["bench", "--oracle", "--counts", "3,3,1", "--n-frames", "8", "--seed", "1",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256((out / "reports" / "report.json").read_bytes()).hexdigest()
    assert digest == ORACLE_REPORT_SHA256


def test_bench_tau_reaches_the_critique_pass(tmp_path, capsys):
    # the oracle's segments clear the default tau on every step and none
    # clears 0.95, so completeness reads 1 at the one and 0 at the other;
    # test_loop's pass-count test shows that each critique pass gets the
    # loop's tau
    flags = ["bench", "--oracle", "--counts", "3,3,1", "--n-frames", "8", "--seed", "1"]
    assert main(flags + ["--out", str(tmp_path / "default")]) == 0
    assert main(flags + ["--tau", "0.95", "--out", str(tmp_path / "strict")]) == 0
    capsys.readouterr()
    completeness = lambda name: load_report(
        tmp_path / name / "reports" / "report.json").overall.action_completeness
    assert completeness("default") == 1.0
    assert completeness("strict") == 0.0
    resolved = yaml.safe_load((tmp_path / "strict" / "config.yaml").read_text())
    assert resolved["loop"]["tau"] == 0.95


def test_mode_presets_override_configured_budgets():
    loop = resolve_config(None, {"loop.k_retries": 5, "loop.max_outer_replans": 4}).loop
    assert mode_config("open-loop", loop).k_retries == 0
    assert mode_config("open-loop", loop).max_outer_replans == 0
    assert mode_config("inner-only", loop).k_retries == 5
    assert mode_config("inner-only", loop).max_outer_replans == 0
    assert mode_config("full", loop).k_retries == 5
    assert mode_config("full", loop).max_outer_replans == 4


def test_full_mode_beats_open_loop_on_seed_7(sft_strong, tmp_path):
    ckpt = sft_strong / "checkpoints" / "model.ckpt"
    scores = {}
    for mode in ("full", "open-loop"):
        out = tmp_path / mode
        rc = main(["bench", "--checkpoint", str(ckpt), "--mode", mode,
                   "--n-frames", "8", "--suite-seed", "7", "--counts", "8,4,0",
                   "--seed", "7", "--out", str(out)])
        assert rc == 0
        scores[mode] = load_report(out / "reports" / "report.json")
    assert scores["full"].overall.action_completeness > \
        scores["open-loop"].overall.action_completeness
    assert scores["full"].suite_digest == scores["open-loop"].suite_digest


# ---------------------------------------------------------------- compare

def test_compare_two_reports_shows_deltas(sft_strong, tmp_path, capsys):
    ckpt = sft_strong / "checkpoints" / "model.ckpt"
    paths = []
    for mode in ("open-loop", "full"):
        out = tmp_path / mode
        assert main(["bench", "--checkpoint", str(ckpt), "--mode", mode,
                     "--n-frames", "8", "--suite-seed", "7", "--counts", "4,2,0",
                     "--seed", "7", "--out", str(out)]) == 0
        paths.append(str(out / "reports" / "report.json"))
    capsys.readouterr()
    csv_out = tmp_path / "table.csv"
    rc = main(["compare", *paths, "--labels", "open,full", "--csv", str(csv_out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "d_completeness" in text
    assert "open" in text and "full" in text
    assert csv_out.exists()


def test_compare_mismatched_suites_exit_2(tmp_path, capsys):
    for seed, name in (("1", "a"), ("2", "b")):
        assert main(["bench", "--oracle", "--counts", "2,0,0", "--seed", seed,
                     "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    rc = main(["compare", str(tmp_path / "a" / "reports" / "report.json"),
               str(tmp_path / "b" / "reports" / "report.json")])
    assert rc == 2
    assert "different suite" in capsys.readouterr().err


def test_compare_label_count_mismatch_exits_2(tmp_path, capsys):
    assert main(["bench", "--oracle", "--counts", "2,0,0", "--seed", "1",
                 "--out", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    rc = main(["compare", str(tmp_path / "a" / "reports" / "report.json"),
               "--labels", "x,y"])
    assert rc == 2
    capsys.readouterr()


def _report_tree() -> dict:
    row = MetricRow(3, 0.5, 1 / 3, 4.0, None, 2.5)
    return MetricReport("kitchen", "ab" * 32, row, {"simple": row}).to_dict()


def _report_edit(*keys, value=None, drop=False):
    """An edit of `_report_tree()` that sets (or drops) the value at `keys`."""
    def apply(tree):
        node = reduce(getitem, keys[:-1], tree)
        if drop:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
        return tree
    return apply


MALFORMED_REPORTS = {
    "by-difficulty-list": _report_edit("by_difficulty", value=[]),
    "n-tasks-string": _report_edit("overall", "n_tasks", value="3"),
    "n-tasks-float": _report_edit("overall", "n_tasks", value=3.0),
    "completeness-bool": _report_edit("overall", "action_completeness", value=True),
    "smoothness-string": _report_edit("by_difficulty", "simple", "motion_smoothness",
                                      value="4.0"),
    "overall-list": _report_edit("overall", value=[]),
    "domain-number": _report_edit("domain", value=5),
    "missing-by-difficulty": _report_edit("by_difficulty", drop=True),
    "missing-success-rate": _report_edit("overall", "success_rate", drop=True),
    "unknown-key": _report_edit("overall", "seeds", value=3),
    "missing-format": _report_edit("format", drop=True),
    "not-a-mapping": lambda tree: [tree],
}


@pytest.mark.parametrize("case", MALFORMED_REPORTS, ids=list(MALFORMED_REPORTS))
def test_compare_malformed_report_exits_2(case, tmp_path, capsys):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(_report_tree()))
    bad.write_text(json.dumps(MALFORMED_REPORTS[case](_report_tree())))
    assert main(["compare", str(good)]) == 0
    capsys.readouterr()
    assert main(["compare", str(good), str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err, err


# ---------------------------------------------------------------- entry point

def test_module_entry_point_runs():
    # the child imports the same loopwm package as this process
    package_root = str(Path(loopwm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "loopwm.cli", "plan", "lid removed"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "open the jar" in proc.stdout
