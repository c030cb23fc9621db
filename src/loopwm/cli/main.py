"""Command-line entry point: plan, train, benchmark, compare.

Exit codes: 0 success, 1 internal error, 2 usage or input error. Every
run command materializes a directory holding the resolved config, logs,
checkpoints, and reports for that run.

Flags name the config keys they set as their argparse `dest` (`--lr` on
`sft` is `sft.lr`; `--seed` and `--domain` are top-level keys), so `_resolve`
is the one map from flags to settings. The other flags (`--config`, `--out`,
`--checkpoint`, ...) are plumbing and set no key. The merged tree, and a grpo
resume's `state.json`, go through the one walk of `config.parse`, so the
commands read typed, checked sections.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import traceback
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from ..bench import (
    MODES,
    PromptSuite,
    compare,
    emit_curves,
    evaluate_policy,
    generate_suite,
    load_report,
    mode_config,
    save_suite,
    verify_suite,
)
from ..errors import CheckpointError, DomainError, LoopwmError, NoPlanError, SuiteError
from ..grpo import ROLLOUT_K_RULE, TrainingLog, TrainingRecord, rollout_k_steps, train
from ..loop import OraclePolicy
from ..microworld import DomainSpec, load_domain
from ..numerics import NetParams, RandomSource, clone_params, net_init
from ..planner import Goal, parse_goal_literal, plan
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
from .config import NetConfig, RunConfig, UsageError, parse, resolve_config, write_config

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
    return replace(config, net=NetConfig(hidden=theta.sizes[1], depth=len(theta.sizes) - 2))


def _parse_goal(spec: DomainSpec, text: str) -> Goal:
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise UsageError("goal text is empty")
    try:
        literals = tuple(parse_goal_literal(spec, tok) for tok in tokens)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc
    return Goal(literals)


def _parse_counts(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"counts must be integers: {text!r}") from exc


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


# ---------------------------------------------------------------- plan

def cmd_plan(args: argparse.Namespace) -> int:
    config = _resolve(args)
    spec = _load_spec(config.domain)
    goal = _parse_goal(spec, args.goal)
    try:
        steps = plan(spec, goal)
    except NoPlanError as exc:
        raise UsageError(f"no plan: {exc}") from exc
    noun = "step" if len(steps) == 1 else "steps"
    print(f"plan for '{goal.text}' in {spec.name} ({len(steps)} {noun}):")
    for step in steps:
        print(f"  {step.sid}. {spec.operators[step.op].instruction}")
    return 0


# ---------------------------------------------------------------- suite

def _generate(spec: DomainSpec, seed: int, counts) -> PromptSuite:
    """The suite of `counts` at `seed`; a usage error if it cannot be built or is empty."""
    try:
        suite = generate_suite(spec, seed, counts=counts)
    except SuiteError as exc:
        raise UsageError(str(exc)) from exc
    if len(suite) == 0:
        raise UsageError(f"bench.counts {list(counts)} give an empty suite")
    return suite


def cmd_suite(args: argparse.Namespace) -> int:
    config = _resolve(args)
    spec = _load_spec(config.domain)
    suite = _generate(spec, config.seed, config.bench.counts)
    try:
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
    run_dir = _prepare_run_dir(config, args.out)
    with _run_logging(run_dir):
        rng = RandomSource(config.seed)
        sft, net = config.sft, config.net
        _log.info(
            "sft: domain=%s seed=%d demos=%d epochs=%d lr=%g batch=%d net=%dx%d",
            spec.name, config.seed, sft.demos, sft.epochs, sft.lr, sft.batch_size,
            net.hidden, net.depth,
        )
        demos = build_demos(spec, sft.demos, rng.split(1),
                            n_frames=config.sampler.n_frames, jitter=sft.jitter)
        sizes = velocity_net_sizes(spec, config.sampler, hidden=net.hidden, depth=net.depth)
        theta = net_init(sizes, rng.split(2))
        theta, history = sft_train(theta, demos, sft.epochs, sft.lr,
                                   rng.split(3), batch_size=sft.batch_size)
        ckpt = run_dir / "checkpoints" / "model.ckpt"
        save_policy(ckpt, theta, spec, config.sampler)
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

    for op in spec.operators:
        if spec.holds(spec.initial_frame, op.pre):
            for lit in op.post:
                add(Goal((lit,)))
    try:
        suite = generate_suite(spec, config.seed, counts=config.bench.counts)
    except SuiteError as exc:
        raise UsageError(f"cannot build a goal pool: {exc}") from exc
    for task in suite.tasks:
        add(task.goal)
    return goals


@dataclass(frozen=True)
class ResumeState:
    """A grpo run's `state.json`; one with no `rollout_k` predates train-time rollout K."""

    iterations_done: int
    seed: int
    rollout_k: int | None = None

    def __post_init__(self) -> None:
        if self.iterations_done < 0:
            raise ValueError(f"iterations_done must be >= 0, got {self.iterations_done}")


def cmd_grpo(args: argparse.Namespace) -> int:
    resume_dir = Path(args.resume) if args.resume else None
    config_path = args.config
    if resume_dir is not None and config_path is None:
        candidate = resume_dir / "config.yaml"
        if not candidate.exists():
            raise UsageError(f"resume directory has no config.yaml: {resume_dir}")
        config_path = str(candidate)
    config = _resolve(args, config_path)
    spec = _load_spec(config.domain)
    sampler = config.sampler
    if sampler.eta_scale <= 0.0:
        raise UsageError(f"group rollouts need eta_scale > 0, got {sampler.eta_scale}: "
                         "a deterministic sampler gives every member the same segment")
    rollout_k = rollout_k_steps(sampler.k_steps)

    prev_records: list[TrainingRecord] = []
    if resume_dir is not None:
        state_file = resume_dir / "state.json"
        if not state_file.exists():
            raise UsageError(f"nothing to resume: {state_file} not found")
        try:
            state = parse(ResumeState, json.loads(state_file.read_text()))
        except ValueError as exc:
            raise UsageError(f"malformed resume state {state_file}: {exc}") from exc
        start = state.iterations_done + 1
        if start > 1 and state.rollout_k != rollout_k:
            done = (f"at {state.rollout_k} denoising steps" if state.rollout_k is not None
                    else "at the full --k-steps (the state predates rollout_k)")
            print(f"warning: iterations 1..{start - 1} of {resume_dir} rolled out {done}; "
                  f"iterations from {start} roll out at {rollout_k} "
                  f"({ROLLOUT_K_RULE})", file=sys.stderr)
        reference = _load_ckpt(resume_dir / "checkpoints" / "reference.ckpt", spec, sampler)
        theta = _load_ckpt(resume_dir / "checkpoints" / "model.ckpt", spec, sampler)
        bundle = PolicyBundle(theta=theta, theta_old=clone_params(theta), reference=reference)
        log_csv = resume_dir / "reports" / "training_log.csv"
        try:
            prev_records = TrainingLog.read_csv(log_csv).records if log_csv.exists() else []
        except LoopwmError as exc:
            raise UsageError(str(exc)) from exc
        if [record.iteration for record in prev_records] != list(range(1, start)):
            raise UsageError(f"{log_csv} logs {len(prev_records)} iterations but {state_file} "
                             f"records {state.iterations_done} done; a resumed log holds "
                             f"iterations 1..{state.iterations_done} in order")
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
            "grpo: domain=%s seed=%d iterations=%d..%d group=%d goals=%d rollout_k=%d",
            spec.name, config.seed, start, config.grpo.iterations,
            config.grpo.group_size, len(goals), rollout_k,
        )
        # resumed runs restart optimizer moments; iteration numbering and the
        # curriculum position carry over through start_iteration
        rng = RandomSource(config.seed).split(100 + start)
        theta, tlog = train(bundle, spec, goals, sampler, config.grpo, rng,
                            start_iteration=start, weights=config.critic.as_weights())
        merged = TrainingLog(records=prev_records + tlog.records, events=tlog.events)
        save_policy(run_dir / "checkpoints" / "model.ckpt", theta, spec, sampler)
        save_policy(run_dir / "checkpoints" / "reference.ckpt", bundle.reference, spec, sampler)
        merged.write_csv(run_dir / "reports" / "training_log.csv")
        if merged.records:
            emit_curves(merged, run_dir / "reports" / "curves")
        done = merged.records[-1].iteration if merged.records else start - 1
        (run_dir / "state.json").write_text(
            json.dumps(asdict(ResumeState(done, config.seed, rollout_k)), indent=2) + "\n"
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

def _fmt_metric(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.2f}"


def _report_lines(mode: str, report) -> list[str]:
    lines = [f"bench[{mode}] {report.domain} suite {report.suite_digest[:12]} "
             f"({report.overall.n_tasks} tasks)"]
    buckets = [("overall", report.overall)]
    buckets.extend(sorted(report.by_difficulty.items()))
    for name, row in buckets:
        lines.append(
            f"  {name}: completeness {row.action_completeness:.3f}  "
            f"success {row.success_rate:.3f}  "
            f"smoothness {_fmt_metric(row.motion_smoothness)}  "
            f"interaction {_fmt_metric(row.object_interaction)}  "
            f"fidelity {_fmt_metric(row.physical_fidelity)}"
        )
    return lines


def cmd_bench(args: argparse.Namespace) -> int:
    """Evaluate a checkpoint, or the oracle, on a generated suite.

    With `--checkpoint` the run's config.yaml records the checkpoint's net;
    an `--oracle` run has no net and records the resolved `net` section.
    """
    config = _resolve(args)
    mode = config.bench.mode
    spec = _load_spec(config.domain)
    if args.oracle and args.checkpoint:
        raise UsageError("pass either --checkpoint or --oracle, not both")
    if args.oracle:
        policy = OraclePolicy(spec, n_frames=config.sampler.n_frames)
    elif args.checkpoint:
        theta = _load_ckpt(args.checkpoint, spec, config.sampler)
        policy = WorldModelPolicy(theta, spec, config.sampler)
        config = _with_net_of(config, theta)
    else:
        raise UsageError("bench needs --checkpoint or --oracle")

    suite_seed = config.seed if config.bench.suite_seed is None else config.bench.suite_seed
    suite = _generate(spec, suite_seed, config.bench.counts)
    loop_config = mode_config(mode, config.loop)
    run_dir = _prepare_run_dir(config, args.out)
    with _run_logging(run_dir):
        _log.info("bench: domain=%s mode=%s suite_seed=%s tasks=%d",
                  spec.name, mode, suite_seed, len(suite))
        report = evaluate_policy(policy, suite, config=loop_config,
                                 rng=RandomSource(config.seed).split(7),
                                 weights=config.critic.as_weights())
        save_suite(suite, run_dir / "reports" / "suite.json")
        report.write_json(run_dir / "reports" / "report.json")
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

    p = sub.add_parser(
        "grpo", parents=[base, sampler], help="group-relative policy optimization",
        description="Group-relative policy optimization from a supervised checkpoint. "
                    f"Rollouts denoise at the train-time K, {ROLLOUT_K_RULE}; the saved "
                    "checkpoints are evaluated by bench at its own --k-steps.")
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
