"""Difficulty-stratified task suites, verified against the exhaustive oracle.

Every task starts at the domain's initial state, and its difficulty is the
minimal plan length from there: simple tasks solve in 1-3 steps, medium in
3-5, hard in more than 5 (capped at the oracle's search depth). The
generator samples goals from random forward walks, so every emitted task is
reachable by construction. A candidate's minimal plan length comes from one
breadth-first pass over the predicate states reachable from the initial
state (operators read and write predicates only).
The pass runs over predicate bitmasks with the operator masks `DomainSpec`
compiles, goals are tested against the same masks, and the walks follow the
pass's successor lists; `verify_suite` re-checks every band with the
independent `minimal_plan_length`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import SuiteError
from ..microworld import DomainSpec
from ..microworld.types import Literal
from ..numerics import RandomSource
from ..planner import Goal
from .oracle import DEFAULT_MAX_LEN, minimal_plan_length

DIFFICULTIES = ("simple", "medium", "hard")

# acceptance bands (inclusive); "hard" means beyond 5 up to the oracle cap
BANDS = {
    "simple": (1, 3),
    "medium": (3, 5),
    "hard": (6, DEFAULT_MAX_LEN),
}

# generation targets are disjoint so a sampled goal lands in exactly one
# bucket; medium's lower edge moves off the shared boundary at 3
_TARGETS = {
    "simple": (1, 3),
    "medium": (4, 5),
    "hard": (6, DEFAULT_MAX_LEN),
}

DEFAULT_COUNTS = (20, 20, 10)

SUITE_FORMAT = "loopwm-suite-v1"

# sampling effort per requested task before the generator gives up on a level
_ATTEMPTS_PER_TASK = 500

_MAX_GOAL_LITERALS = 3

# (predicate bitmask, distance from the start, successor indices) per reachable state
_Reachable = list[tuple[int, int, list[int]]]


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
    start = suite.spec.initial_state()
    for i, task in enumerate(suite.tasks):
        m = minimal_plan_length(suite.spec, start, task.goal.literals)
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


def _reachable_states(spec: DomainSpec) -> _Reachable:
    """Every predicate state within DEFAULT_MAX_LEN steps of the initial state.

    Each is (key, distance, successors), the initial state first. A key is
    the state's predicate bitmask (`DomainSpec.state_key`). Breadth-first,
    so the distances never decrease along the list. A state's successors
    are the list indices its applicable operators lead to, in operator
    order, repeats included; states at the depth cap are not expanded and
    keep an empty list.
    """
    start_key = spec.state_key(spec.initial_state())
    index = {start_key: 0}
    reachable = [(start_key, 0, [])]
    frontier = [0]
    for depth in range(1, DEFAULT_MAX_LEN + 1):
        nxt = []
        for i in frontier:
            key, _, successors = reachable[i]
            for _, pre_true, pre_false, post_true, post_false in spec.operator_masks:
                if key & pre_true != pre_true or key & pre_false:
                    continue
                successor = (key & ~post_false) | post_true
                if successor not in index:
                    index[successor] = len(reachable)
                    reachable.append((successor, depth, []))
                    nxt.append(index[successor])
                successors.append(index[successor])
        frontier = nxt
    return reachable


def _plan_length(
    spec: DomainSpec, reachable: _Reachable, literals: tuple[Literal, ...]
) -> int | None:
    """Distance of the nearest reachable state where the literals hold, or None."""
    true, false = spec.literal_masks(literals)
    for key, depth, _ in reachable:
        if key & true == true and not key & false:
            return depth
    return None


def _sample_literals(
    spec: DomainSpec, reachable: _Reachable, rng: RandomSource
) -> tuple[Literal, ...]:
    """Walk forward from the initial state, then pose some of the walked state as a goal.

    The walk follows the successor lists of `reachable`, the domain's
    `_reachable_states`; it never needs those of a state at the depth cap.
    """
    current = 0
    walk = 1 + rng.choice(DEFAULT_MAX_LEN)
    for _ in range(walk):
        successors = reachable[current][2]
        if not successors:
            break
        current = successors[rng.choice(len(successors))]
    key = reachable[current][0]
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
    reachable = _reachable_states(spec)
    found: dict[str, list[SuiteTask]] = {d: [] for d in DIFFICULTIES}
    seen: set[tuple[str, ...]] = set()
    budget = _ATTEMPTS_PER_TASK * max(sum(counts), 1)
    for _ in range(budget):
        if all(len(found[d]) >= need[d] for d in DIFFICULTIES):
            break
        literals = _sample_literals(spec, reachable, rng)
        steps = _plan_length(spec, reachable, literals)
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

