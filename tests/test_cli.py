"""Command-line interface: config layering, artifacts, exit codes."""

from __future__ import annotations

import argparse
import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from loopwm.bench import generate_suite, load_report, load_suite
from loopwm.cli import DEFAULTS, UsageError, main, resolve_config
from loopwm.cli.main import _mode_loop_config, build_parser
from loopwm.gateway import MockRule, encode_step, run_mock_server
from loopwm.microworld import load_domain
from loopwm.numerics import RandomSource, load_checkpoint, net_init
from loopwm.planner import plan
from loopwm.worldmodel import SamplerConfig, velocity_net_sizes

GOLDEN_WIRE = Path(__file__).parent / "data" / "plan_jar.wire.json"

# small-but-consistent knobs shared by the sft/grpo/bench plumbing tests;
# checkpoint manifests pin the frame count, so every consumer repeats it, and
# only sft builds a net
SAMPLER = ["--n-frames", "6", "--k-steps", "6"]
SMALL = SAMPLER + ["--hidden", "24", "--depth", "2"]

# flags that set no config key
PLUMBING = {"--config", "--out", "--checkpoint", "--resume", "--oracle",
            "--format", "--labels", "--csv", "--port", "--duration"}


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


def test_plan_unreachable_goal_exits_2(capsys):
    rc = main(["plan", "jar.closed, jar.lid_removed"])
    assert rc == 2
    assert "no plan" in capsys.readouterr().err


def test_plan_unknown_literal_exits_2(capsys):
    assert main(["plan", "definitely.not.real"]) == 2
    assert "does not name a predicate" in capsys.readouterr().err


def test_plan_wire_format_matches_golden_bytes(capsysbinary):
    assert main(["plan", "lid removed", "--format", "wire"]) == 0
    assert capsysbinary.readouterr().out == GOLDEN_WIRE.read_bytes()


def test_plan_out_writes_schema_file(tmp_path):
    target = tmp_path / "sub" / "plan.json"
    assert main(["plan", "lid removed", "--out", str(target)]) == 0
    assert target.read_bytes() == GOLDEN_WIRE.read_bytes()
    # the payload is valid wire schema: a steps array with canonical keys
    payload = json.loads(target.read_text())
    assert payload["steps"][0]["sid"] == 1
    assert payload["steps"][0]["action instruction"]


def test_plan_remote_backend_round_trip(tmp_path, capsys):
    script = Path(__file__).parent / "data" / "mock_script.json"
    handle = run_mock_server(script)
    try:
        cfg = tmp_path / "remote.yaml"
        cfg.write_text(yaml.safe_dump(
            {"backend": {"kind": "remote", "base_url": handle.base_url}}
        ))
        assert main(["plan", "lid removed", "--config", str(cfg)]) == 0
        assert "open the jar" in capsys.readouterr().out
        assert [r["endpoint"] for r in handle.seen] == ["/plan"]
    finally:
        handle.stop()


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
    cfg.write_text("grpo: {group_size: 1}\n")
    assert main(["plan", "lid removed", "--config", str(cfg)]) == 2
    assert "invalid configuration" in capsys.readouterr().err


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
    sampler = SamplerConfig(k_steps=6, n_frames=6, frame_width=spec.n_channels)
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


def test_grpo_resume_without_state_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "config.yaml").write_text(yaml.safe_dump(DEFAULTS))
    assert main(["grpo", "--resume", str(empty), "--out", str(tmp_path / "r")]) == 2
    assert "nothing to resume" in capsys.readouterr().err


def test_grpo_config_with_reward_source_exits_2(sft_small, tmp_path, capsys):
    # run directories saved before the reward model was removed still carry
    # grpo.reward_source; it is an unknown key now, named on both entry paths
    old = tmp_path / "old"
    old.mkdir()
    tree = {**DEFAULTS, "grpo": {**DEFAULTS["grpo"], "reward_source": "programmatic"}}
    (old / "config.yaml").write_text(yaml.safe_dump(tree))
    (old / "state.json").write_text(json.dumps({"iterations_done": 2, "seed": 0}))
    assert main(["grpo", "--resume", str(old), "--out", str(tmp_path / "resumed")]) == 2
    assert "grpo.reward_source" in capsys.readouterr().err
    rc = main(["grpo", "--config", str(old / "config.yaml"),
               "--checkpoint", str(sft_small / "checkpoints" / "model.ckpt"),
               "--out", str(tmp_path / "run")] + SAMPLER)
    assert rc == 2
    assert "grpo.reward_source" in capsys.readouterr().err


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


def test_bench_remote_backend_plans_over_the_wire(kitchen, tmp_path, capsys):
    suite = generate_suite(kitchen, 1, counts=(1, 0, 0))
    (task,) = suite.tasks
    steps = plan(kitchen, task.goal, kitchen.initial_state()).steps
    critic = json.loads((Path(__file__).parent / "data" / "mock_script.json").read_text())
    rules = [MockRule("/plan", {"steps": [encode_step(s) for s in steps]},
                      match={"goal": task.goal.text}),
             MockRule("/critic", critic["rules"][1]["response"])]
    handle = run_mock_server(rules)
    try:
        cfg = tmp_path / "remote.yaml"
        cfg.write_text(yaml.safe_dump(
            {"backend": {"kind": "remote", "base_url": handle.base_url}}
        ))
        out = tmp_path / "run"
        assert main(["bench", "--oracle", "--counts", "1,0,0", "--seed", "1",
                     "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        endpoints = [r["endpoint"] for r in handle.seen]
    finally:
        handle.stop()
    assert endpoints[0] == "/plan"
    assert endpoints.count("/critic") == len(steps)
    wire = [json.loads(line) for line in (out / "logs" / "wire.jsonl").read_text().splitlines()]
    assert [r["endpoint"] for r in wire] == endpoints
    assert load_report(out / "reports" / "report.json").overall.success_rate == 1.0


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


def test_mode_presets_override_configured_budgets():
    config = resolve_config(None, {"loop.k_retries": 5, "loop.max_outer_replans": 4})
    assert _mode_loop_config(config, "open-loop").k_retries == 0
    assert _mode_loop_config(config, "open-loop").max_outer_replans == 0
    assert _mode_loop_config(config, "inner-only").k_retries == 5
    assert _mode_loop_config(config, "inner-only").max_outer_replans == 0
    assert _mode_loop_config(config, "full").k_retries == 5
    assert _mode_loop_config(config, "full").max_outer_replans == 4


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


# ---------------------------------------------------------------- mock-serve

def test_mock_serve_runs_for_duration(capsys):
    script = Path(__file__).parent / "data" / "mock_script.json"
    assert main(["mock-serve", str(script), "--duration", "0.05"]) == 0
    assert "mock server on http://127.0.0.1:" in capsys.readouterr().out


def test_mock_serve_missing_script_exits_2(tmp_path, capsys):
    assert main(["mock-serve", str(tmp_path / "no.json")]) == 2
    assert "script not found" in capsys.readouterr().err


def test_mock_serve_busy_port_exits_2(capsys):
    script = Path(__file__).parent / "data" / "mock_script.json"
    handle = run_mock_server(script)
    try:
        rc = main(["mock-serve", str(script), "--port", str(handle.port)])
        assert rc == 2
        assert "bind" in capsys.readouterr().err
    finally:
        handle.stop()


# ---------------------------------------------------------------- entry point

def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "loopwm.cli", "plan", "lid removed"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "open the jar" in proc.stdout
