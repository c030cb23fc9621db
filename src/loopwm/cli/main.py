"""Command-line entry point: plan, train, benchmark, compare, serve.

Exit codes: 0 success, 1 internal error, 2 usage or input error. Every
run command materializes a directory holding the resolved config, logs,
checkpoints, and reports for that run.

Flags name the config keys they set as their argparse `dest` (`--lr` on
`sft` is `sft.lr`; `--seed` and `--domain` are top-level keys), so `_resolve`
is the one map from flags to settings. The other flags (`--config`, `--out`,
`--checkpoint`, ...) are plumbing and set no key.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from ..bench import (
    MODES,
    compare,
    emit_curves,
    evaluate_policy,
    generate_suite,
    load_report,
    mode_config,
    save_suite,
    verify_suite,
)
from ..errors import CheckpointError, DomainError, LoopwmError, NoPlanError, SuiteError, WireError
from ..gateway import RemoteClient, RemotePlanner, canonical_bytes, encode_step, parse_wire_literal, remote_critic_fn, run_mock_server
from ..grpo import CSV_HEADER, TrainingLog, TrainingRecord, train
from ..loop import OraclePolicy, SearchPlanner, default_critic
from ..microworld import DomainSpec, load_domain
from ..numerics import NetParams, RandomSource, clone_params, net_init
from ..planner import Goal
from ..report import svg_line_chart, write_csv
from ..worldmodel import (
    PolicyBundle,
    SamplerConfig,
    WorldModelPolicy,
    build_demos,
    load_policy,
    save_policy,
    sft_train,
    velocity_net_sizes,
)
from .config import RunConfig, UsageError, resolve_config, write_config

_log = logging.getLogger(__name__)


# ---------------------------------------------------------------- helpers

def _resolve(args: argparse.Namespace, config_path: str | Path | None = None) -> RunConfig:
    """Defaults < config file < every flag whose dest names a config key."""
    overrides = {key: value for key, value in vars(args).items()
                 if "." in key or key in ("seed", "domain")}
    return resolve_config(config_path or args.config, overrides)


def _load_spec(domain: str) -> DomainSpec:
    try:
        return load_domain(domain)
    except (DomainError, OSError) as exc:
        raise UsageError(f"cannot load domain {domain!r}: {exc}") from exc


def _sampler(config: RunConfig, spec: DomainSpec) -> SamplerConfig:
    try:
        return config.sampler_config(spec)
    except LoopwmError as exc:
        raise UsageError(f"invalid sampler configuration: {exc}") from exc


def _load_ckpt(path: str | Path, spec: DomainSpec, sampler: SamplerConfig):
    path = Path(path)
    if not path.exists():
        raise UsageError(f"checkpoint not found: {path}")
    try:
        return load_policy(path, spec, sampler)
    except CheckpointError as exc:
        raise UsageError(str(exc)) from exc


def _with_net_of(config: RunConfig, theta: NetParams) -> RunConfig:
    """`config` with its `net` section read from a loaded checkpoint's layer sizes."""
    return replace(config, net={"hidden": theta.sizes[1], "depth": len(theta.sizes) - 2})


def _parse_goal(spec: DomainSpec, text: str) -> Goal:
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise UsageError("goal text is empty")
    try:
        literals = tuple(parse_wire_literal(spec, tok) for tok in tokens)
    except WireError as exc:
        raise UsageError(str(exc)) from exc
    return Goal(literals)


def _parse_counts(text: str) -> list[int]:
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"counts must be integers: {text!r}") from exc
    if len(parts) != 3:
        raise UsageError(f"counts must be 'simple,medium,hard', got {text!r}")
    return parts


def _prepare_run_dir(config: RunConfig, out: str) -> Path:
    run_dir = Path(out)
    for sub in ("logs", "checkpoints", "reports"):
        (run_dir / sub).mkdir(parents=True, exist_ok=True)
    write_config(config, run_dir / "config.yaml")
    return run_dir


@contextmanager
def _run_logging(run_dir: Path):
    """Tee the package's log stream into the run's events file."""
    logger = logging.getLogger("loopwm")
    handler = logging.FileHandler(run_dir / "logs" / "events.log")
    handler.setFormatter(logging.Formatter("%(asctime)s %(name)s %(message)s"))
    prev_level = logger.level
    logger.addHandler(handler)
    if logger.getEffectiveLevel() > logging.INFO:
        logger.setLevel(logging.INFO)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        handler.close()
        logger.setLevel(prev_level)


def _remote_client(config: RunConfig) -> RemoteClient | None:
    if config.backend["kind"] == "builtin":
        return None
    try:
        return RemoteClient(config.agent_backend())
    except LoopwmError as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------- plan

def cmd_plan(args: argparse.Namespace) -> int:
    config = _resolve(args)
    spec = _load_spec(config.domain)
    goal = _parse_goal(spec, args.goal)
    client = _remote_client(config)
    planner = RemotePlanner(client) if client else SearchPlanner()
    try:
        sequence = planner.plan(spec, goal, spec.initial_state())
    except NoPlanError as exc:
        raise UsageError(f"no plan: {exc}") from exc
    payload = {"steps": [encode_step(step) for step in sequence.steps]}
    blob = canonical_bytes(payload) + b"\n"
    if args.format == "wire":
        sys.stdout.buffer.write(blob)
        sys.stdout.flush()
    else:
        noun = "step" if len(sequence.steps) == 1 else "steps"
        print(f"plan for '{goal.text}' in {spec.name} ({len(sequence.steps)} {noun}):")
        for step in sequence.steps:
            print(f"  {step.sid}. {step.instruction}")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_bytes(blob)
        if args.format != "wire":
            print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------- suite

def cmd_suite(args: argparse.Namespace) -> int:
    config = _resolve(args)
    spec = _load_spec(config.domain)
    try:
        suite = generate_suite(spec, config.seed, counts=tuple(config.bench["counts"]))
        verify_suite(suite)
    except SuiteError as exc:
        raise UsageError(str(exc)) from exc
    path = save_suite(suite, args.out)
    counts = suite.counts()
    print(
        f"suite {suite.digest[:12]} on {spec.name}: "
        + ", ".join(f"{counts.get(d, 0)} {d}" for d in ("simple", "medium", "hard"))
    )
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------- sft

def cmd_sft(args: argparse.Namespace) -> int:
    config = _resolve(args)
    spec = _load_spec(config.domain)
    sampler = _sampler(config, spec)
    run_dir = _prepare_run_dir(config, args.out)
    with _run_logging(run_dir):
        rng = RandomSource(config.seed)
        _log.info(
            "sft: domain=%s seed=%d demos=%d epochs=%d lr=%g batch=%d net=%dx%d",
            spec.name, config.seed, config.sft["demos"], config.sft["epochs"],
            config.sft["lr"], config.sft["batch_size"],
            config.net["hidden"], config.net["depth"],
        )
        demos = build_demos(spec, config.sft["demos"], rng.split(1),
                            n_frames=sampler.n_frames, jitter=config.sft["jitter"])
        sizes = velocity_net_sizes(spec, sampler, hidden=config.net["hidden"],
                                   depth=config.net["depth"])
        theta = net_init(sizes, rng.split(2))
        theta, history = sft_train(theta, demos, config.sft["epochs"], config.sft["lr"],
                                   rng.split(3), batch_size=config.sft["batch_size"])
        ckpt = run_dir / "checkpoints" / "model.ckpt"
        save_policy(ckpt, theta, spec, sampler)
        write_csv(run_dir / "reports" / "loss.csv", ("epoch", "loss"),
                  [(i + 1, f"{v:.6f}") for i, v in enumerate(history)])
        if history:
            svg_line_chart(run_dir / "reports" / "loss.svg",
                           list(range(1, len(history) + 1)), history,
                           title="flow matching loss", x_label="epoch")
            _log.info("sft: loss %.6f -> %.6f", history[0], history[-1])
    if history:
        print(f"sft: {len(history)} epochs over {len(demos)} demos, "
              f"loss {history[0]:.4f} -> {history[-1]:.4f}")
    else:
        print("sft: 0 epochs, checkpoint is the raw initialization")
    print(f"checkpoint: {ckpt}")
    return 0


# ---------------------------------------------------------------- grpo

def _read_training_csv(path: Path) -> list[TrainingRecord]:
    if not path.exists():
        return []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(CSV_HEADER):
            raise UsageError(f"{path} is not a training log")
        try:
            return [
                TrainingRecord(
                    iteration=int(row[0]),
                    mean_reward=float(row[1]),
                    adherence_mean=float(row[2]),
                    coherence_mean=float(row[3]),
                    kl_mean=float(row[4]),
                    clip_fraction=float(row[5]),
                    curriculum_level=int(row[6]),
                )
                for row in reader
            ]
        except (ValueError, IndexError) as exc:
            raise UsageError(f"{path} holds malformed rows: {exc}") from exc


def _goal_pool(spec: DomainSpec, config: RunConfig) -> list[Goal]:
    """Single-step goals from the initial frontier plus a sampled suite.

    The frontier entries guarantee the level-1 curriculum always has
    something to train on, whatever the suite draw looked like.
    """
    goals: list[Goal] = []
    seen: set[str] = set()

    def add(goal: Goal) -> None:
        if goal.text not in seen:
            seen.add(goal.text)
            goals.append(goal)

    state = spec.initial_state()
    for op in spec.operators:
        if state.satisfies(op.pre):
            for lit in op.post:
                add(Goal((lit,)))
    try:
        suite = generate_suite(spec, config.seed, counts=tuple(config.bench["counts"]))
    except SuiteError as exc:
        raise UsageError(f"cannot build a goal pool: {exc}") from exc
    for task in suite.tasks:
        add(task.goal)
    return goals


def cmd_grpo(args: argparse.Namespace) -> int:
    resume_dir = Path(args.resume) if args.resume else None
    config_path = args.config
    if resume_dir is not None and config_path is None:
        candidate = resume_dir / "config.yaml"
        if not candidate.exists():
            raise UsageError(f"resume directory has no config.yaml: {resume_dir}")
        config_path = str(candidate)
    config = _resolve(args, config_path)
    grpo_cfg = config.grpo_config()
    spec = _load_spec(config.domain)
    sampler = _sampler(config, spec)

    prev_records: list[TrainingRecord] = []
    if resume_dir is not None:
        state_file = resume_dir / "state.json"
        if not state_file.exists():
            raise UsageError(f"nothing to resume: {state_file} not found")
        state = json.loads(state_file.read_text())
        start = int(state["iterations_done"]) + 1
        reference = _load_ckpt(resume_dir / "checkpoints" / "reference.ckpt", spec, sampler)
        theta = _load_ckpt(resume_dir / "checkpoints" / "model.ckpt", spec, sampler)
        bundle = PolicyBundle(theta=theta, theta_old=clone_params(theta), reference=reference)
        prev_records = _read_training_csv(resume_dir / "reports" / "training_log.csv")
    else:
        if not args.checkpoint:
            raise UsageError("grpo needs --checkpoint (or --resume)")
        reference = _load_ckpt(args.checkpoint, spec, sampler)
        bundle = PolicyBundle.from_reference(reference)
        start = 1
    config = _with_net_of(config, bundle.theta)

    goals = _goal_pool(spec, config)
    run_dir = _prepare_run_dir(config, args.out)
    with _run_logging(run_dir):
        _log.info(
            "grpo: domain=%s seed=%d iterations=%d..%d group=%d goals=%d",
            spec.name, config.seed, start, grpo_cfg.iterations,
            grpo_cfg.group_size, len(goals),
        )
        # resumed runs restart optimizer moments; iteration numbering and the
        # curriculum position carry over through start_iteration
        rng = RandomSource(config.seed).split(100 + start)
        theta, tlog = train(bundle, spec, SearchPlanner(), goals, sampler, grpo_cfg, rng,
                            start_iteration=start, weights=config.critic_weights())
        merged = TrainingLog(records=prev_records + tlog.records, events=tlog.events)
        save_policy(run_dir / "checkpoints" / "model.ckpt", theta, spec, sampler)
        save_policy(run_dir / "checkpoints" / "reference.ckpt", bundle.reference, spec, sampler)
        merged.write_csv(run_dir / "reports" / "training_log.csv")
        if merged.records:
            emit_curves(merged, run_dir / "reports" / "curves")
        done = merged.records[-1].iteration if merged.records else start - 1
        (run_dir / "state.json").write_text(
            json.dumps({"iterations_done": done, "seed": config.seed}, indent=2) + "\n"
        )
        for event in tlog.events:
            _log.info("%s", event)
    if tlog.records:
        print(f"grpo: iterations {tlog.records[0].iteration}..{tlog.records[-1].iteration}, "
              f"mean reward {tlog.records[0].mean_reward:.4f} -> {tlog.records[-1].mean_reward:.4f}")
    else:
        print("grpo: nothing to run (start past the configured iteration count)")
    print(f"checkpoint: {run_dir / 'checkpoints' / 'model.ckpt'}")
    return 0


# ---------------------------------------------------------------- bench

def _mode_loop_config(config: RunConfig, mode: str):
    """Mode presets win over configured budgets; shared knobs pass through."""
    loop = config.loop
    overrides = {"tau": loop["tau"], "max_total_segments": loop["max_total_segments"]}
    if mode == "full":
        overrides["k_retries"] = loop["k_retries"]
        overrides["max_outer_replans"] = loop["max_outer_replans"]
    elif mode == "inner-only":
        overrides["k_retries"] = loop["k_retries"]
    try:
        return mode_config(mode, **overrides)
    except (LoopwmError, SuiteError) as exc:
        raise UsageError(str(exc)) from exc


def _fmt_metric(value: float | None, scaled: bool) -> str:
    if value is None:
        return "n/a"
    return f"{value:.2f}" if scaled else f"{value:.3f}"


def _report_lines(mode: str, report) -> list[str]:
    lines = [f"bench[{mode}] {report.domain} suite {report.suite_digest[:12]} "
             f"({report.overall.n_tasks} tasks)"]
    buckets = [("overall", report.overall)]
    buckets.extend(sorted(report.by_difficulty.items()))
    for name, row in buckets:
        lines.append(
            f"  {name}: completeness {row.action_completeness:.3f}  "
            f"success {row.success_rate:.3f}  "
            f"smoothness {_fmt_metric(row.motion_smoothness, True)}  "
            f"interaction {_fmt_metric(row.object_interaction, True)}  "
            f"fidelity {_fmt_metric(row.physical_fidelity, True)}"
        )
    return lines


def cmd_bench(args: argparse.Namespace) -> int:
    """Evaluate a checkpoint, or the oracle, on a generated suite.

    With `--checkpoint` the run's config.yaml records the checkpoint's net;
    an `--oracle` run has no net and records the resolved `net` section.
    """
    config = _resolve(args)
    mode = config.bench["mode"]
    spec = _load_spec(config.domain)
    sampler = _sampler(config, spec)
    if args.oracle and args.checkpoint:
        raise UsageError("pass either --checkpoint or --oracle, not both")
    if args.oracle:
        policy = OraclePolicy(spec, n_frames=sampler.n_frames)
    elif args.checkpoint:
        theta = _load_ckpt(args.checkpoint, spec, sampler)
        policy = WorldModelPolicy(theta, spec, sampler)
        config = _with_net_of(config, theta)
    else:
        raise UsageError("bench needs --checkpoint or --oracle")

    suite_seed = config.bench["suite_seed"]
    if suite_seed is None:
        suite_seed = config.seed
    try:
        suite = generate_suite(spec, int(suite_seed), counts=tuple(config.bench["counts"]))
    except SuiteError as exc:
        raise UsageError(str(exc)) from exc

    loop_config = _mode_loop_config(config, mode)
    weights = config.critic_weights()
    run_dir = _prepare_run_dir(config, args.out)
    client = _remote_client(config)
    if client:
        critic = remote_critic_fn(client, weights=weights, tau=loop_config.tau)
    else:
        critic = default_critic(loop_config, weights)
    with _run_logging(run_dir):
        _log.info("bench: domain=%s mode=%s suite_seed=%s tasks=%d",
                  spec.name, mode, suite_seed, len(suite))
        report = evaluate_policy(
            policy, suite, config=loop_config, critic=critic,
            rng=RandomSource(config.seed).split(7),
            planner=RemotePlanner(client) if client else None,
        )
        save_suite(suite, run_dir / "reports" / "suite.json")
        report.write_json(run_dir / "reports" / "report.json")
        if client is not None:
            client.write_transcript(run_dir / "logs" / "wire.jsonl")
    for line in _report_lines(mode, report):
        print(line)
    print(f"report: {run_dir / 'reports' / 'report.json'}")
    return 0


# ---------------------------------------------------------------- compare

def cmd_compare(args: argparse.Namespace) -> int:
    paths = [Path(p) for p in args.reports]
    if args.labels:
        labels = [lab.strip() for lab in args.labels.split(",")]
        if len(labels) != len(paths):
            raise UsageError(f"{len(paths)} reports but {len(labels)} labels")
    else:
        labels = []
        for path in paths:
            stem = path.stem
            labels.append(stem if stem not in labels else f"{stem}-{len(labels)}")
    try:
        entries = [(label, load_report(path)) for label, path in zip(labels, paths)]
        table = compare(entries)
    except SuiteError as exc:
        raise UsageError(str(exc)) from exc
    print(table.text)
    if args.csv:
        table.write_csv(args.csv)
        print(f"wrote {args.csv}")
    return 0


# ---------------------------------------------------------------- mock-serve

def cmd_mock_serve(args: argparse.Namespace) -> int:
    script = Path(args.script)
    if not script.exists():
        raise UsageError(f"script not found: {script}")
    try:
        handle = run_mock_server(script, port=args.port)
    except LoopwmError as exc:
        raise UsageError(str(exc)) from exc
    print(f"mock server on {handle.base_url}", flush=True)
    try:
        if args.duration > 0:
            time.sleep(args.duration)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        handle.stop()
    return 0


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopwm",
        description="Plan, train, and benchmark a closed-loop generative world model.",
    )
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--config", help="YAML config file; flags override its values")
    base.add_argument("--seed", type=int, help="global random seed")
    base.add_argument("--domain", help="builtin domain name or a domain YAML path")
    sampler = argparse.ArgumentParser(add_help=False)
    sampler.add_argument("--n-frames", type=int, dest="sampler.n_frames")
    sampler.add_argument("--k-steps", type=int, dest="sampler.k_steps")
    sampler.add_argument("--eta-scale", type=float, dest="sampler.eta_scale")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", parents=[base], help="plan a goal from the initial state")
    p.add_argument("goal", help="comma-separated goal literals, e.g. 'lid removed'")
    p.add_argument("--format", choices=("human", "wire"), default="human",
                   help="wire prints the canonical JSON plan payload")
    p.add_argument("--out", help="also write the wire payload to this file")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("suite", parents=[base], help="generate a frozen benchmark suite")
    p.add_argument("--counts", type=_parse_counts, dest="bench.counts",
                   help="tasks per difficulty as 'simple,medium,hard'")
    p.add_argument("--out", required=True, help="suite JSON path")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("sft", parents=[base, sampler], help="supervised pretraining on demo walks")
    p.add_argument("--demos", type=int, dest="sft.demos", help="number of demonstration segments")
    p.add_argument("--epochs", type=int, dest="sft.epochs")
    p.add_argument("--lr", type=float, dest="sft.lr")
    p.add_argument("--batch-size", type=int, dest="sft.batch_size")
    p.add_argument("--hidden", type=int, dest="net.hidden", help="velocity net width")
    p.add_argument("--depth", type=int, dest="net.depth", help="velocity net hidden layers")
    p.add_argument("--out", required=True, help="run directory")
    p.set_defaults(func=cmd_sft)

    p = sub.add_parser("grpo", parents=[base, sampler], help="group-relative policy optimization")
    p.add_argument("--checkpoint", help="supervised checkpoint to start from")
    p.add_argument("--resume", help="previous grpo run directory to continue")
    p.add_argument("--iterations", type=int, dest="grpo.iterations")
    p.add_argument("--group-size", type=int, dest="grpo.group_size")
    p.add_argument("--lr", type=float, dest="grpo.lr")
    p.add_argument("--out", required=True, help="run directory")
    p.set_defaults(func=cmd_grpo)

    p = sub.add_parser("bench", parents=[base, sampler], help="score a policy on a generated suite")
    p.add_argument("--checkpoint", help="policy checkpoint to evaluate")
    p.add_argument("--oracle", action="store_true", help="evaluate the reference generator")
    p.add_argument("--mode", choices=MODES, dest="bench.mode", help="feedback ablation mode")
    p.add_argument("--suite-seed", type=int, dest="bench.suite_seed")
    p.add_argument("--counts", type=_parse_counts, dest="bench.counts",
                   help="tasks per difficulty as 'simple,medium,hard'")
    p.add_argument("--tau", type=float, dest="loop.tau", help="acceptance threshold")
    p.add_argument("--out", required=True, help="run directory")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("compare", help="align metric reports from the same suite")
    p.add_argument("reports", nargs="+", help="report JSON paths")
    p.add_argument("--labels", help="comma-separated column labels")
    p.add_argument("--csv", help="also write the table as CSV")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("mock-serve", help="serve a scripted agent for offline tests")
    p.add_argument("script", help="mock script JSON path")
    p.add_argument("--port", type=int, default=0, help="0 picks a free port")
    p.add_argument("--duration", type=float, default=0.0,
                   help="seconds to serve; 0 means until interrupted")
    p.set_defaults(func=cmd_mock_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        # --counts converts through _parse_counts, which raises UsageError
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse already printed usage/help; fold into the exit-code contract
        return exc.code if isinstance(exc.code, int) else 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130
    except LoopwmError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1
