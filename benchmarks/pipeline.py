"""The user's pipeline, `loopwm sft` -> `loopwm grpo` -> `loopwm bench`, driven in-process.

Every stage goes through `loopwm.cli.main.main(argv)`, the entry point a user
runs, and is judged only by its exit code and the artifacts it writes. Flags
are limited to the surface later changes keep: no `--max-workers`, no
`--eta-scale`, no committed checkpoint, and only the kitchen domain.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

DOMAIN = "kitchen"
# The start checkpoint is trained in set-up at this seed, so every workload
# and every workload seed sees the same policy.
SETUP_SEED = 0
SUITE_SEED = 0
# Repetitions after a workload's pinned pass take seeds from here on.
EXTRA_SEED_BASE = 1_000_000


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every stage. The defaults are the benchmark; tests shrink them.

    At the CLI defaults (hidden 64, 16 frames) bench completeness is 0 before
    and after GRPO; with this net it is about 0.11, so a regression can show.
    """

    demos: int = 400
    epochs: int = 100
    batch_size: int = 32
    hidden: int = 128
    depth: int = 3
    n_frames: int = 8
    k_steps: int = 10
    group_size: int = 8
    # the whole default curriculum: levels 1 -> 3 -> 5 over 300 iterations
    grpo_iterations: int = 300
    grpo_probe_iterations: int = 60
    counts: tuple[int, int, int] = (20, 20, 10)
    # Quality is averaged over these pinned passes, one invocation per seed:
    # a single seed's completeness or final loss is too noisy to bound.
    sft_seeds: tuple[int, ...] = (1, 2, 3, 4)
    episode_seeds: tuple[int, ...] = tuple(range(1, 11))

    @property
    def n_tasks(self) -> int:
        return sum(self.counts)


class BenchmarkError(Exception):
    """The program under test lacks something the benchmark needs."""


@dataclass
class StageRun:
    """One CLI invocation: its cost, the work it did, and what its outputs showed."""

    stage: str
    exit_code: int
    seconds: float
    work: int  # demo samples x epochs, group members, or episodes
    attempted: int
    failed: int
    quality: dict[str, float | None] = field(default_factory=dict)
    artifacts: dict[str, bytes] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    iterations: int = 0
    # host speed at the time, from the reference computation around the run
    scale: float = 1.0

    @property
    def host_seconds(self) -> float:
        """Wall time scaled to the reference host."""
        return self.seconds * self.scale


def invoke(argv: list[str]) -> tuple[int, float]:
    """Run one CLI command, keeping its console output off the benchmark's stdout."""
    out, err = io.StringIO(), io.StringIO()
    # looked up on every call, because set-up imports the program afresh
    main = importlib.import_module("loopwm.cli.main").main
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    seconds = time.perf_counter() - start
    if code != 0:
        sys.stderr.write(f"loopwm {' '.join(argv)} exited {code}:\n{err.getvalue()}")
    return code, seconds


def _shape_flags(sizes: Sizes) -> list[str]:
    return ["--domain", DOMAIN, "--n-frames", str(sizes.n_frames),
            "--k-steps", str(sizes.k_steps)]


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _read_rows(path: Path) -> list[list[str]]:
    with path.open(newline="") as fh:
        return list(csv.reader(fh))[1:]


def run_sft(out: Path, seed: int, sizes: Sizes) -> StageRun:
    """`loopwm sft`; loss.csv must hold one finite row per epoch, ending below its start."""
    argv = ["sft", "--seed", str(seed), "--demos", str(sizes.demos),
            "--epochs", str(sizes.epochs), "--batch-size", str(sizes.batch_size),
            "--hidden", str(sizes.hidden), "--depth", str(sizes.depth),
            *_shape_flags(sizes), "--out", str(out)]
    code, seconds = invoke(argv)
    run = StageRun("sft", code, seconds, work=0, attempted=sizes.epochs, failed=0)
    loss_csv = out / "reports" / "loss.csv"
    if code != 0 or not loss_csv.exists():
        run.failed = sizes.epochs
        run.errors.append(f"sft exited {code}")
        return run
    rows = _read_rows(loss_csv)
    losses = [float(r[1]) if len(r) == 2 and _finite(r[1]) else math.nan for r in rows]
    run.failed = sum(1 for v in losses if not math.isfinite(v))
    if [r[0] for r in rows] != [str(i) for i in range(1, sizes.epochs + 1)]:
        run.errors.append(f"loss.csv has {len(rows)} rows for {sizes.epochs} epochs")
    if run.failed:
        run.errors.append(f"loss.csv holds {run.failed} non-finite losses")
    elif losses and not losses[-1] < losses[0]:
        run.errors.append(f"loss did not fall: {losses[0]} -> {losses[-1]}")
    run.work = sizes.demos * len(rows)
    run.quality["final_loss"] = losses[-1] if losses else None
    run.artifacts["loss.csv"] = loss_csv.read_bytes()
    run.artifacts["model.ckpt"] = (out / "checkpoints" / "model.ckpt").read_bytes()
    return run


@contextlib.contextmanager
def counting_group_updates():
    """Count GRPO group updates and skipped ones.

    The CLI's artifacts do not say how many plan steps an iteration rolled
    out, so this one counter is patched in every run, traced or not. It costs
    one Python call per group of `group_size * k_steps` network evaluations.
    """
    module = importlib.import_module("loopwm.grpo.train")
    original = getattr(module, "grpo_update", None)
    if original is None:
        raise BenchmarkError("loopwm.grpo.train.grpo_update is absent; "
                             "grpo.segments_per_s cannot be counted")
    counts = {"updates": 0, "skipped": 0}

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        counts["updates"] += 1
        counts["skipped"] += int(bool(result[2].skipped))
        return result

    module.grpo_update = counted
    try:
        yield counts
    finally:
        module.grpo_update = original


def run_grpo(out: Path, seed: int, checkpoint: Path, iterations: int, sizes: Sizes) -> StageRun:
    """`loopwm grpo`; training_log.csv must hold one finite row per iteration."""
    argv = ["grpo", "--seed", str(seed), "--checkpoint", str(checkpoint),
            "--iterations", str(iterations), "--group-size", str(sizes.group_size),
            *_shape_flags(sizes), "--out", str(out)]
    with counting_group_updates() as counts:
        code, seconds = invoke(argv)
    run = StageRun("grpo", code, seconds, work=counts["updates"] * sizes.group_size,
                   attempted=counts["updates"], failed=counts["skipped"])
    log_csv = out / "reports" / "training_log.csv"
    if code != 0 or not log_csv.exists():
        run.attempted = max(run.attempted, 1)
        run.failed = run.attempted
        run.errors.append(f"grpo exited {code}")
        return run
    rows = _read_rows(log_csv)
    run.iterations = len(rows)
    if [r[0] for r in rows] != [str(i) for i in range(1, iterations + 1)]:
        run.errors.append(f"training_log.csv has {len(rows)} rows for {iterations} iterations")
    if not all(len(r) == 7 and all(_finite(v) for v in r) for r in rows):
        run.errors.append("training_log.csv holds a malformed or non-finite row")
    elif rows:
        run.quality["mean_reward"] = sum(float(r[1]) for r in rows) / len(rows)
    run.artifacts["training_log.csv"] = log_csv.read_bytes()
    return run


def _check_report(report: dict, digest: str, sizes: Sizes) -> list[str]:
    errors = []
    if report.get("suite_digest") != digest:
        errors.append("report.json suite_digest differs from the generated suite's")
    rows = {"overall": report["overall"], **report["by_difficulty"]}
    if rows["overall"]["n_tasks"] != sizes.n_tasks:
        errors.append(f"report.json has {rows['overall']['n_tasks']} tasks, "
                      f"expected {sizes.n_tasks}")
    for name, row in rows.items():
        for key in ("action_completeness", "success_rate"):
            if not 0.0 <= row[key] <= 1.0:
                errors.append(f"{name}.{key} = {row[key]} outside [0, 1]")
        for key in ("motion_smoothness", "object_interaction", "physical_fidelity"):
            if row[key] is not None and not 1.0 <= row[key] <= 5.0:
                errors.append(f"{name}.{key} = {row[key]} outside [1, 5]")
    return errors


def run_bench(out: Path, episode_seed: int, checkpoint: Path, digest: str,
              sizes: Sizes) -> StageRun:
    """`loopwm bench --mode full` on the pinned suite, episodes drawn from `episode_seed`."""
    counts = ",".join(str(c) for c in sizes.counts)
    argv = ["bench", "--seed", str(episode_seed), "--checkpoint", str(checkpoint),
            "--mode", "full", "--suite-seed", str(SUITE_SEED), "--counts", counts,
            *_shape_flags(sizes), "--out", str(out)]
    code, seconds = invoke(argv)
    run = StageRun("eval", code, seconds, work=0, attempted=sizes.n_tasks, failed=0)
    report_json = out / "reports" / "report.json"
    if code != 0 or not report_json.exists():
        run.failed = sizes.n_tasks
        run.errors.append(f"bench exited {code}")
        return run
    blob = report_json.read_bytes()
    report = json.loads(blob)
    run.errors.extend(_check_report(report, digest, sizes))
    run.work = report["overall"]["n_tasks"]
    run.quality = dict(report["overall"])
    run.artifacts["report.json"] = blob
    return run


def suite_digest(sizes: Sizes) -> str:
    """Digest of the pinned suite, generated by the library rather than read back."""
    from loopwm.bench import generate_suite
    from loopwm.microworld import load_domain

    return generate_suite(load_domain(DOMAIN), SUITE_SEED, counts=sizes.counts).digest


def unit_seed(index: int, workload_seed: int, pinned: tuple[int, ...]) -> int:
    """Seed of a workload's `index`-th repetition: the pinned pass, then the
    workload seed, then seeds derived from it."""
    if index < len(pinned):
        return pinned[index]
    extra = index - len(pinned)
    return workload_seed if extra == 0 else EXTRA_SEED_BASE + 1000 * workload_seed + extra
