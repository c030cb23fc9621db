"""The benchmark's own checks, at sizes small enough to run in seconds.

Run from the repository root: python3 -m pytest benchmarks/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

import pipeline
import run
import tracing

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = pipeline.Sizes(demos=40, epochs=20, hidden=16, grpo_iterations=3,
                      grpo_probe_iterations=2, counts=(2, 2, 1), sft_seeds=(1, 2),
                      episode_seeds=(1, 2))


def bench(capsys, monkeypatch, tmp_path, workload: str, trace: int) -> dict:
    monkeypatch.setattr(run, "WORK", tmp_path)
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.1",
                     "--trace", str(trace)], sizes=TINY)
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted(capsys, monkeypatch, tmp_path, workload, trace):
    result = bench(capsys, monkeypatch, tmp_path, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        # quality can be 0 for the untrained tiny net; costs never are
        if not trace and (metric["unit"] in ("s", "MB") or metric["unit"].endswith("/s")):
            assert metric["value"] > 0, name


def test_traced_artifacts_match_and_a_difference_is_caught(capsys, monkeypatch, tmp_path):
    assert bench(capsys, monkeypatch, tmp_path, "sft", 1)["correct"] is True

    class PerturbingTracer(tracing.Tracer):
        """Changes the traced run's loss history, as a tracer with side effects would."""

        def __enter__(self):
            module = sys.modules["loopwm.cli.main"]
            original = module.sft_train

            def perturbed(*args, **kwargs):
                theta, history = original(*args, **kwargs)
                return theta, [h + 1e-3 for h in history]

            monkeypatch.setattr(module, "sft_train", perturbed)
            return super().__enter__()

    monkeypatch.setattr(tracing, "Tracer", PerturbingTracer)
    assert bench(capsys, monkeypatch, tmp_path, "sft", 1)["correct"] is False


def test_missing_wrapper_target_is_reported_absent():
    layers = {
        "numerics.net_forward": tracing.LAYERS["numerics.net_forward"],
        "gone.function": tracing.Layer(("loopwm.cli.main.no_such_function",)),
        "gone.module": tracing.Layer(("loopwm.no_such_module.function",)),
    }
    with tracing.Tracer(layers) as tracer:
        pass
    assert tracer.absent == [("gone.function", "loopwm.cli.main.no_such_function"),
                             ("gone.module", "loopwm.no_such_module.function")]
    metrics = tracing.layer_metrics(tracer, 0, 0.0)
    assert metrics["trace.absent_targets"] == (2, "count")
    assert metrics["gone.function.calls"] == (0, "count")
    assert not hasattr(sys.modules["loopwm.worldmodel.sampler"].net_forward, "__wrapped__")


def test_self_time_excludes_children_on_each_thread(monkeypatch):
    fake = types.ModuleType("fake_layers")

    def inner():
        sum(range(20000))

    def outer():
        fake.inner()
        fake.inner()

    fake.inner, fake.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layers", fake)
    layers = {"x.outer": tracing.Layer(("fake_layers.outer",)),
              "x.inner": tracing.Layer(("fake_layers.inner",))}
    with tracing.Tracer(layers) as tracer:
        threads = [threading.Thread(target=fake.outer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    by_id = {s.sid: s for s in tracer.spans}
    inners = [s for s in tracer.spans if s.name == "x.inner"]
    assert len(inners) == 8
    assert all(by_id[s.parent].thread == s.thread for s in inners)
    stats = tracing._entry_stats(tracer.spans)
    outer_wall = sum(s.wall for s in tracer.spans if s.name == "x.outer")
    inner_wall = sum(s.wall for s in inners)
    assert stats["x.outer"]["self"] == pytest.approx(outer_wall - inner_wall)
    assert fake.outer is outer


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "eval",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "correct" not in done.stdout
