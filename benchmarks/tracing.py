"""Per-layer spans recorded from outside the program.

Each entry of `LAYERS` names the module attributes its callers look up, e.g.
`loopwm.worldmodel.sampler.net_forward`, and the tracer replaces those
attributes with timing wrappers for the traced run only. Spans stay in memory
until the run ends. A span's parent is the innermost open span of the same
thread, so the bench's episode threads keep separate stacks. Self time is a
span's wall time minus its children's, and `wait_ms` is self wall time minus
self thread CPU time: under the episode pool most wall time is interpreter
lock wait, which must not pass for work.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


def _rows(args, kwargs, result):
    return {"rows": len(args[1])}


def _objective_rows(args, kwargs, result):
    group = args[2]
    return {"rows": sum(len(m.trace.steps) for m in group.members), "dropped": result.dropped}


def _update_skipped(args, kwargs, result):
    return {"skipped": int(bool(result[2].skipped))}


def _critic_accepted(args, kwargs, result):
    # the loop passes its tau by keyword; GRPO scores at the critic's default
    if "tau" in kwargs:
        tau = kwargs["tau"]
    else:
        tau = args[4] if len(args) > 4 else sys.modules["loopwm.critic.scoring"].DEFAULT_TAU
    return {"accepted": int(result.scalar >= tau)}


def _episode_counts(args, kwargs, result):
    first = [a for a in result.attempts if a.attempt == 0]
    return {
        "segments": result.segments_generated,
        "first_tries": len(first),
        "first_accepted": sum(1 for a in first if a.accepted),
        "retries": len(result.attempts) - len(first),
        "replans": len(result.replans),
    }


@dataclass(frozen=True)
class Layer:
    """One timed entry: the call sites to wrap and what to count per call."""

    targets: tuple[str, ...]
    extract: Callable | None = None


# Entry names are `<module layer>.<function>`. Where several modules import
# the same function, each import is a call site of its own.
LAYERS: dict[str, Layer] = {
    # the batch call nested inside net_forward stays inside net_forward's span
    "numerics.net_forward": Layer(("loopwm.worldmodel.sampler.net_forward",)),
    "numerics.net_forward_batch": Layer(("loopwm.worldmodel.training.net_forward_batch",
                                         "loopwm.grpo.update.net_forward_batch"), _rows),
    "numerics.net_backward_batch": Layer(("loopwm.worldmodel.training.net_backward_batch",
                                          "loopwm.grpo.update.net_backward_batch"), _rows),
    "numerics.opt_step": Layer(("loopwm.worldmodel.training.opt_step",
                                "loopwm.grpo.update.opt_step")),
    "worldmodel.build_demos": Layer(("loopwm.cli.main.build_demos",)),
    "worldmodel.flow_matching_loss": Layer(("loopwm.worldmodel.training.flow_matching_loss",)),
    "worldmodel.embed_condition": Layer(("loopwm.worldmodel.policy.embed_condition",
                                         "loopwm.grpo.rollout.embed_condition",
                                         "loopwm.worldmodel.training.embed_condition")),
    "worldmodel.sample_sde": Layer(("loopwm.worldmodel.policy.sample_sde",
                                    "loopwm.grpo.rollout.sample_sde")),
    "worldmodel.load_policy": Layer(("loopwm.cli.main.load_policy",)),
    "critic.evaluate": Layer(("loopwm.loop.engine.evaluate", "loopwm.grpo.rollout.evaluate"),
                             _critic_accepted),
    "planner.plan": Layer(("loopwm.loop.engine.plan",)),
    "planner.replan": Layer(("loopwm.loop.engine.replan",)),
    "loop.run_episode": Layer(("loopwm.bench.metrics.run_episode",), _episode_counts),
    "grpo.rollout_group": Layer(("loopwm.grpo.train.rollout_group",)),
    "grpo.objective_terms": Layer(("loopwm.grpo.update.objective_terms",), _objective_rows),
    "grpo.grpo_update": Layer(("loopwm.grpo.train.grpo_update",), _update_skipped),
    "bench.generate_suite": Layer(("loopwm.cli.main.generate_suite",)),
    "bench.evaluate_policy": Layer(("loopwm.cli.main.evaluate_policy",)),
    "microworld.load_domain": Layer(("loopwm.cli.main.load_domain",)),
}

# entries that also report how many rows their batches carried
_ROW_ENTRIES = ("numerics.net_forward_batch", "numerics.net_backward_batch",
                "grpo.objective_terms")


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    thread: int
    start: float
    wall: float
    cpu: float
    counts: dict | None


def _resolve(target: str):
    module_name, attr = target.rsplit(".", 1)
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None, attr
    return (module if hasattr(module, attr) else None), attr


class Tracer:
    """Wraps the call sites in `layers` while active and records one span per call."""

    def __init__(self, layers: dict[str, Layer] = LAYERS):
        self.layers = layers
        self.spans: list[Span] = []
        self.absent: list[tuple[str, str]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, extract: Callable | None) -> Callable:
        local, spans, ids = self._local, self.spans, self._ids

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            counts = None
            start, cpu0 = time.perf_counter(), time.thread_time()
            try:
                result = fn(*args, **kwargs)
                if extract is not None:
                    counts = extract(args, kwargs, result)
                return result
            finally:
                cpu = time.thread_time() - cpu0
                wall = time.perf_counter() - start
                stack.pop()
                spans.append(Span(sid, parent, name, threading.get_ident(), start,
                                  wall, cpu, counts))

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        for name, layer in self.layers.items():
            for target in layer.targets:
                module, attr = _resolve(target)
                if module is None:
                    self.absent.append((name, target))
                    continue
                original = getattr(module, attr)
                self._patched.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, layer.extract))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        """Spans as JSON lines, one per call, in completion order."""
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.sid, "parent": s.parent, "name": s.name,
                                     "thread": s.thread, "start": s.start, "wall": s.wall,
                                     "cpu": s.cpu, "counts": s.counts}) + "\n")


def _entry_stats(spans: list[Span]) -> dict[str, dict[str, float]]:
    child_wall: dict[int, float] = {}
    child_cpu: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_wall[s.parent] = child_wall.get(s.parent, 0.0) + s.wall
            child_cpu[s.parent] = child_cpu.get(s.parent, 0.0) + s.cpu
    stats: dict[str, dict[str, float]] = {}
    for s in spans:
        e = stats.setdefault(s.name, {"calls": 0, "wall": 0.0, "self": 0.0, "cpu": 0.0,
                                      "rows": 0})
        e["calls"] += 1
        e["wall"] += s.wall
        e["self"] += s.wall - child_wall.get(s.sid, 0.0)
        e["cpu"] += s.cpu - child_cpu.get(s.sid, 0.0)
        if s.counts:
            e["rows"] += s.counts.get("rows", 0)
    return stats


def _total(spans: list[Span], name: str, key: str) -> int:
    return sum(s.counts[key] for s in spans if s.name == name and s.counts)


def layer_metrics(tracer: Tracer, grpo_iterations: int,
                  overhead_s: float) -> dict[str, tuple[float, str]]:
    """The per-layer table: metric name -> (value, unit).

    Every entry reports calls, self_ms, cpu_ms and wait_ms, all self times.
    A call site the program no longer has is listed in `tracer.absent` and
    counted in `trace.absent_targets`; an entry with none left reads 0.
    """
    spans = tracer.spans
    stats = _entry_stats(spans)
    out: dict[str, tuple[float, str]] = {}
    for name in tracer.layers:
        e = stats.get(name, {"calls": 0, "wall": 0.0, "self": 0.0, "cpu": 0.0, "rows": 0})
        out[f"{name}.calls"] = (e["calls"], "count")
        if name in _ROW_ENTRIES:
            out[f"{name}.rows"] = (e["rows"], "count")
        out[f"{name}.self_ms"] = (1e3 * e["self"], "ms")
        out[f"{name}.cpu_ms"] = (1e3 * e["cpu"], "ms")
        # wall time is never below CPU time; the two clocks differ by under 1%
        out[f"{name}.wait_ms"] = (1e3 * max(e["self"] - e["cpu"], 0.0), "ms")

    by_id = {s.sid: s for s in spans}
    sde = [s for s in spans if s.name == "worldmodel.sample_sde"]
    nfe = sum(1 for s in spans if s.name == "numerics.net_forward" and s.parent is not None
              and by_id[s.parent].name == "worldmodel.sample_sde")
    out["worldmodel.sample_sde.nfe"] = (nfe, "count")
    out["worldmodel.us_per_nfe"] = (1e6 * sum(s.cpu for s in sde) / nfe if nfe else 0.0, "us")

    evaluations = stats.get("critic.evaluate", {}).get("calls", 0)
    accepted = _total(spans, "critic.evaluate", "accepted")
    out["critic.accept_ratio"] = (accepted / evaluations if evaluations else 0.0, "ratio")

    goal_plans = sum(1 for s in spans if s.name == "planner.plan" and (
        s.parent is None or by_id[s.parent].name != "loop.run_episode"))
    out["grpo.goal_accept_ratio"] = (grpo_iterations / goal_plans if goal_plans else 0.0,
                                     "ratio")

    episodes = [s for s in spans if s.name == "loop.run_episode"]
    first_tries = _total(spans, "loop.run_episode", "first_tries")
    walls_ms = sorted(1e3 * s.wall for s in episodes)
    out["loop.episodes"] = (len(episodes), "count")
    out["loop.segments_per_episode"] = (
        _total(spans, "loop.run_episode", "segments") / len(episodes) if episodes else 0.0,
        "count")
    out["loop.first_try_accept_ratio"] = (
        _total(spans, "loop.run_episode", "first_accepted") / first_tries if first_tries else 0.0,
        "ratio")
    out["loop.inner_retries"] = (_total(spans, "loop.run_episode", "retries"), "count")
    out["loop.replans"] = (_total(spans, "loop.run_episode", "replans"), "count")
    out["loop.episode_ms.p50"] = (statistics.median(walls_ms) if walls_ms else 0.0, "ms")
    out["loop.episode_ms.p90"] = (
        statistics.quantiles(walls_ms, n=10)[8] if len(walls_ms) >= 2 else 0.0, "ms")
    out["loop.episode.wait_ms"] = (1e3 * max(sum(s.wall - s.cpu for s in episodes), 0.0), "ms")

    out["grpo.members_dropped"] = (_total(spans, "grpo.objective_terms", "dropped"), "count")
    out["grpo.updates_skipped"] = (_total(spans, "grpo.grpo_update", "skipped"), "count")
    out["bench.evaluate_policy.wall_ms"] = (
        1e3 * stats.get("bench.evaluate_policy", {}).get("wall", 0.0), "ms")
    out["trace.overhead_s"] = (overhead_s, "s")
    out["trace.absent_targets"] = (len(tracer.absent), "count")
    return out
