"""Benchmark of the loopwm pipeline: the `sft`, `grpo` and `eval` workloads.

Run from the repository root:

    python3 benchmarks/run.py --workload {sft,grpo,eval} --seed N --seconds S --trace {0,1}

The program is imported from `src/` of the same checkout and driven through
its CLI entry point in-process. Set-up (import, training the start checkpoint
at a pinned seed, and a short pass of GRPO and bench that warms both paths) is
repeated and its median reported as `setup_s`. Then the workload's own stage
is repeated on inputs drawn from `--seed` for `--seconds` seconds.

Every run reports all twelve end-to-end metrics. A workload's own stage is
measured in its timed body; `sft.*` and `grpo.*` on the other workloads come
from the set-up runs, and `eval.*` on the other workloads from one pinned bench
pass run after the body. `--trace 1` runs the workload's stage once untraced and
once with every layer entry wrapped, checks that both wrote the same bytes,
and reports the per-layer table instead.

Times are scaled to a reference host by `reference.HostMeter`, which times a
fixed computation around every timed invocation. The last line of stdout is
the JSON result. Scratch output goes to `.bench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("sft", "grpo", "eval")
SETUP_REPEATS = 3

# Pinned before numpy loads, so the parent and a change run with the same
# BLAS threading whatever the caller's environment says.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# metric -> (overall figure in report.json, unit)
EVAL_QUALITY = {
    "eval.completeness": ("action_completeness", "ratio"),
    "eval.success_rate": ("success_rate", "ratio"),
    "eval.motion_smoothness": ("motion_smoothness", "1-5"),
    "eval.object_interaction": ("object_interaction", "1-5"),
    "eval.physical_fidelity": ("physical_fidelity", "1-5"),
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Import loopwm from this checkout's src/, and fail if it is not there."""
    if not (SRC / "loopwm" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to measure: {SRC / 'loopwm'} is missing")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import loopwm

    if SRC.resolve() not in Path(loopwm.__file__).resolve().parents:
        raise SystemExit(f"error: loopwm was imported from {loopwm.__file__}, not {SRC}")


def fresh_import() -> None:
    """Drop every loaded loopwm module and import the CLI again, as a new process would."""
    for name in [m for m in sys.modules if m == "loopwm" or m.startswith("loopwm.")]:
        del sys.modules[name]
    importlib.import_module("loopwm.cli.main")


def machine_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
        commit = done.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "platform": platform.platform(),
        "commit": commit,
    }


def rate(runs) -> float:
    """Work per reference-host second over a list of stage runs."""
    return sum(r.work for r in runs) / sum(r.host_seconds for r in runs)


def timed(meter, run):
    """Attach the host speed measured around the invocation that just returned."""
    run.scale = meter.scale()
    return run


def timed_units(unit, seconds: float, minimum: int = 1) -> list:
    """Repeat `unit(i)` until about `seconds` have passed, stopping at the unit boundary
    nearest to the deadline, and never before `minimum` units."""
    runs, start = [], time.perf_counter()
    while True:
        runs.append(unit(len(runs)))
        elapsed = time.perf_counter() - start
        if len(runs) >= minimum and elapsed + 0.5 * elapsed / len(runs) >= seconds:
            return runs


def same_artifacts(runs, errors: list[str], what: str) -> None:
    """Runs on identical inputs must write identical bytes."""
    for run in runs[1:]:
        for name, blob in runs[0].artifacts.items():
            if run.artifacts.get(name) != blob:
                errors.append(f"{what}: {name} differs between runs on identical inputs")


def setup(work: Path, repeats: int, sizes, meter) -> tuple[float, dict]:
    """Import, generate the suite, train the start checkpoint and warm up GRPO.

    Repeated `repeats` times; returns the median scaled time and the last repetition.
    """
    import pipeline

    times, reps = [], []
    for i in range(repeats):
        out = work / "setup" / str(i)
        start = time.perf_counter()
        fresh_import()
        digest = pipeline.suite_digest(sizes)
        prepare = (time.perf_counter() - start) * meter.scale()
        sft = timed(meter, pipeline.run_sft(out / "sft", pipeline.SETUP_SEED, sizes))
        checkpoint = out / "sft" / "checkpoints" / "model.ckpt"
        grpo = timed(meter, pipeline.run_grpo(out / "grpo", pipeline.SETUP_SEED, checkpoint,
                                              sizes.grpo_probe_iterations, sizes))
        times.append(prepare + sft.host_seconds + grpo.host_seconds)
        reps.append({"digest": digest, "checkpoint": checkpoint, "sft": sft, "grpo": grpo})
        shutil.rmtree(out / "grpo")
    errors = [e for rep in reps for key in ("sft", "grpo") for e in rep[key].errors]
    for key in ("sft", "grpo"):
        same_artifacts([rep[key] for rep in reps], errors, key)
    return statistics.median(times), {**reps[-1], "reps": reps, "errors": errors}


def pinned_pass(workload: str, sizes) -> tuple[int, ...]:
    """Seeds every run of the workload repeats first; quality is averaged over them."""
    return {"sft": sizes.sft_seeds, "grpo": (), "eval": sizes.episode_seeds}[workload]


def workload_unit(workload: str, seed: int, state: dict, body: Path, sizes, meter):
    """The workload's own stage as a function of the repetition index."""
    import pipeline

    pinned = pinned_pass(workload, sizes)

    def unit(i: int):
        out = body / str(i)
        unit_seed = pipeline.unit_seed(i, seed, pinned)
        if workload == "sft":
            run = pipeline.run_sft(out, unit_seed, sizes)
        elif workload == "grpo":
            run = pipeline.run_grpo(out, unit_seed, state["checkpoint"],
                                    sizes.grpo_iterations, sizes)
        else:
            run = pipeline.run_bench(out, unit_seed, state["checkpoint"], state["digest"], sizes)
        timed(meter, run)
        shutil.rmtree(out, ignore_errors=True)
        return run

    return unit


def mean_quality(runs, key: str) -> float | None:
    """Mean of one quality figure over a pinned pass; None if no run produced it."""
    values = [r.quality[key] for r in runs if r.quality.get(key) is not None]
    return statistics.fmean(values) if values else None


def end_to_end(args, state: dict, sizes, work: Path, meter) -> tuple[dict, list, list[str]]:
    import pipeline

    errors = list(state["errors"])
    reps = state["reps"]
    own = args.workload
    unit = workload_unit(own, args.seed, state, work / "body", sizes, meter)
    n_pinned = len(pinned_pass(own, sizes))
    body = timed_units(unit, args.seconds, minimum=max(n_pinned, 1))
    if own == "eval":
        eval_pass = body[:n_pinned]
    else:
        eval_pass = [timed(meter, pipeline.run_bench(work / "pass" / str(i), seed,
                                                     state["checkpoint"], state["digest"], sizes))
                     for i, seed in enumerate(sizes.episode_seeds)]
    for run in body + eval_pass:
        errors.extend(run.errors)

    # another workload's stage is measured by its set-up runs at the pinned seed
    sft_runs = body if own == "sft" else [rep["sft"] for rep in reps]
    grpo_runs = body if own == "grpo" else [rep["grpo"] for rep in reps]
    sft_pass = body[:n_pinned] if own == "sft" else sft_runs[:1]
    metrics = {
        "setup_s": (state["setup_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "sft.samples_per_s": (rate(sft_runs), "samples/s"),
        "sft.final_loss": (mean_quality(sft_pass, "final_loss"), "mse"),
        "grpo.segments_per_s": (rate(grpo_runs), "segments/s"),
        "grpo.mean_reward": (mean_quality(grpo_runs[:1], "mean_reward"), "score"),
        "eval.episodes_per_s": (rate(body if own == "eval" else eval_pass), "episodes/s"),
    }
    for name, (key, unit) in EVAL_QUALITY.items():
        metrics[name] = (mean_quality(eval_pass, key), unit)
    return metrics, body, errors


def per_layer(args, state: dict, sizes, work: Path, meter) -> tuple[dict, list, list[str]]:
    import tracing

    errors = list(state["errors"])
    count = max(len(pinned_pass(args.workload, sizes)), 1)
    plain = [workload_unit(args.workload, args.seed, state, work / "plain", sizes, meter)(i)
             for i in range(count)]
    unit = workload_unit(args.workload, args.seed, state, work / "traced", sizes, meter)
    with tracing.Tracer() as tracer:
        traced = [unit(i) for i in range(count)]
    for a, b in zip(plain, traced):
        errors.extend(a.errors + b.errors)
        for name, blob in a.artifacts.items():
            if b.artifacts.get(name) != blob:
                errors.append(f"traced {name} differs from the untraced run's")
    for entry, target in tracer.absent:
        print(f"absent: {entry} ({target} not found)")
    tracer.write(work / "spans.jsonl")
    overhead = sum(r.host_seconds for r in traced) - sum(r.host_seconds for r in plain)
    iterations = sum(r.iterations for r in traced)
    metrics = tracing.layer_metrics(tracer, iterations, overhead)
    (work / "layers.json").write_text(json.dumps(
        {"absent": tracer.absent, "metrics": {k: v for k, (v, _) in metrics.items()}},
        indent=2, sort_keys=True) + "\n")
    return metrics, traced, errors


def main(argv: list[str] | None = None, sizes=None) -> int:
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import pipeline
    import reference

    sizes = sizes or pipeline.Sizes()
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    machine = machine_record()
    (work / "machine.json").write_text(json.dumps(machine, indent=2, sort_keys=True) + "\n")
    print("machine: " + json.dumps(machine, sort_keys=True))

    meter = reference.HostMeter()
    setup_s, state = setup(work, 1 if args.trace else SETUP_REPEATS, sizes, meter)
    state["setup_s"] = setup_s
    measure = per_layer if args.trace else end_to_end
    metrics, runs, errors = measure(args, state, sizes, work, meter)
    for sub in work.iterdir():
        if sub.is_dir():
            shutil.rmtree(sub)

    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(f"host: reference took {1e3 * statistics.median(meter.samples):.1f} ms "
          f"(median of {len(meter.samples)}) against {1e3 * reference.REFERENCE_SECONDS:.0f} ms")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value} {unit}")
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    raw = {"reference_seconds": meter.samples,
           "runs": [{"stage": r.stage, "seconds": r.seconds, "scale": r.scale, "work": r.work}
                    for r in runs]}
    (work / "result.json").write_text(json.dumps({**result, "raw": raw}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
