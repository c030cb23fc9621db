"""Difficulty-stratified task suites, verified against the exhaustive oracle.

Every task starts at the domain's initial state, and its difficulty is the
minimal plan length from there: simple tasks solve in 1-3 steps, medium in
3-5, hard in more than 5 (capped at MAX_PLAN_LEN). The generator samples
goals from random forward walks along the successor lists of the domain's
plan graph (`DomainSpec.plan_graph`, the states the planner reads), so
every emitted task is reachable by construction. A candidate's minimal plan
length is the depth of its `planner.nearest` node; `verify_suite` re-checks
every band with the independent `minimal_plan_length`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import SuiteError
from ..microworld import MAX_PLAN_LEN, DomainSpec
from ..microworld.types import Literal
from ..numerics import RandomSource
from ..planner import Goal, nearest
from .oracle import minimal_plan_length

DIFFICULTIES = ("simple", "medium", "hard")

# acceptance bands (inclusive); "hard" means beyond 5 up to the plan length cap
BANDS = {
    "simple": (1, 3),
    "medium": (3, 5),
    "hard": (6, MAX_PLAN_LEN),
}

# generation targets are disjoint so a sampled goal lands in exactly one
# bucket; medium's lower edge moves off the shared boundary at 3
_TARGETS = {
    "simple": (1, 3),
    "medium": (4, 5),
    "hard": (6, MAX_PLAN_LEN),
}

DEFAULT_COUNTS = (20, 20, 10)

SUITE_FORMAT = "loopwm-suite-v1"

# sampling effort per requested task before the generator gives up on a level
_ATTEMPTS_PER_TASK = 500

_MAX_GOAL_LITERALS = 3


@dataclass(frozen=True)
class SuiteTask:
    """One benchmark task: a goal and how deep it sits below the initial state."""

    goal: Goal
    difficulty: str
    min_steps: int

    def key(self) -> tuple[str, ...]:
        """Dedup/hash identity: the sorted literal strings."""
        return tuple(sorted(str(lit) for lit in self.goal.literals))


@dataclass(frozen=True)
class PromptSuite:
    spec: DomainSpec
    tasks: tuple[SuiteTask, ...]
    _digest: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        payload = {
            "format": SUITE_FORMAT,
            "domain": self.spec.name,
            "tasks": [
                {"difficulty": t.difficulty, "literals": list(t.key()), "min_steps": t.min_steps}
                for t in self.tasks
            ],
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        object.__setattr__(self, "_digest", hashlib.sha256(blob).hexdigest())

    @property
    def domain(self) -> str:
        return self.spec.name

    @property
    def digest(self) -> str:
        return self._digest

    def counts(self) -> dict[str, int]:
        out = {d: 0 for d in DIFFICULTIES}
        for t in self.tasks:
            out[t.difficulty] += 1
        return out

    def __len__(self) -> int:
        return len(self.tasks)


def classify(min_steps: int | None) -> str | None:
    """Difficulty bucket for a minimal plan length, or None if out of range."""
    if min_steps is None:
        return None
    for name in DIFFICULTIES:
        lo, hi = _TARGETS[name]
        if lo <= min_steps <= hi:
            return name
    return None


def verify_suite(suite: PromptSuite) -> None:
    """Re-check every task's band with the exhaustive oracle."""
    for i, task in enumerate(suite.tasks):
        m = minimal_plan_length(suite.spec, suite.spec.initial_frame, task.goal.literals)
        lo, hi = BANDS[task.difficulty]
        if m is None or not lo <= m <= hi:
            raise SuiteError(
                f"task {i} claims {task.difficulty} but its minimal plan length "
                f"is {m}, outside [{lo}, {hi}]"
            )
        if m != task.min_steps:
            raise SuiteError(
                f"task {i} records min_steps={task.min_steps} but the oracle says {m}"
            )


def _sample_literals(spec: DomainSpec, rng: RandomSource) -> tuple[Literal, ...]:
    """Walk forward from the initial state, then pose some of the walked state as a goal.

    The walk follows the successor lists of `spec.plan_graph`; at most
    MAX_PLAN_LEN steps long, it never needs those of a node at the cap.
    """
    current = 0
    walk = 1 + rng.choice(MAX_PLAN_LEN)
    for _ in range(walk):
        successors = spec.plan_graph[current].successors
        if not successors:
            break
        current = successors[rng.choice(len(successors))]
    key = spec.plan_graph[current].key
    preds = sorted(spec.pred_bits)
    order = list(range(len(preds)))
    rng.shuffle(order)
    n_literals = 1 + rng.choice(_MAX_GOAL_LITERALS)
    return tuple(
        Literal(preds[i], bool(key & spec.pred_bits[preds[i]])) for i in order[:n_literals]
    )


def generate_suite(
    spec: DomainSpec,
    seed: int,
    counts: tuple[int, int, int] = DEFAULT_COUNTS,
) -> PromptSuite:
    """Sample a deduplicated suite with the requested per-level counts.

    Deterministic for a fixed (spec, seed, counts). Raises SuiteError,
    naming the level, when the domain cannot fill a bucket.
    """
    if len(counts) != len(DIFFICULTIES):
        raise SuiteError(f"counts must have {len(DIFFICULTIES)} entries, got {len(counts)}")
    if any(c < 0 for c in counts):
        raise SuiteError(f"counts must be >= 0, got {counts}")
    need = dict(zip(DIFFICULTIES, counts))
    rng = RandomSource(seed)
    found: dict[str, list[SuiteTask]] = {d: [] for d in DIFFICULTIES}
    seen: set[tuple[str, ...]] = set()
    budget = _ATTEMPTS_PER_TASK * max(sum(counts), 1)
    for _ in range(budget):
        if all(len(found[d]) >= need[d] for d in DIFFICULTIES):
            break
        literals = _sample_literals(spec, rng)
        # the walked node satisfies its own literals, so a nearest node exists
        steps = spec.plan_graph[nearest(spec, literals)].depth
        level = classify(steps)
        if level is None or len(found[level]) >= need[level]:
            continue
        task = SuiteTask(Goal(literals), level, steps)
        if task.key() in seen:
            continue
        seen.add(task.key())
        found[task.difficulty].append(task)
    for name in DIFFICULTIES:
        if len(found[name]) < need[name]:
            raise SuiteError(
                f"domain {spec.name!r} produced {len(found[name])} of {need[name]} "
                f"{name} tasks; it cannot fill that level"
            )
    tasks = tuple(task for name in DIFFICULTIES for task in found[name])
    return PromptSuite(spec, tasks)


def save_suite(suite: PromptSuite, path: str | Path) -> Path:
    """Write the suite as schema-tagged JSON: the domain name and each task."""
    path = Path(path)
    payload = {
        "format": SUITE_FORMAT,
        "domain": suite.domain,
        "tasks": [
            {
                "difficulty": t.difficulty,
                "min_steps": t.min_steps,
                "literals": [[lit.pred, lit.value] for lit in t.goal.literals],
                "text": t.goal.text,
            }
            for t in suite.tasks
        ],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path

