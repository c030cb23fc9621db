"""Training configuration and the plan-length curriculum."""

from __future__ import annotations

from dataclasses import dataclass

from ..critic import DIMENSIONS
from ..errors import LoopwmError

# (first_iteration, max_plan_length) pairs; intervals are left-closed, so the
# entry (101, 3) governs iterations 101 through the next entry's start minus 1.
DEFAULT_CURRICULUM: tuple[tuple[int, int], ...] = ((1, 1), (101, 3), (201, 5))


@dataclass(frozen=True)
class GrpoConfig:
    """Knobs for group-relative policy optimization.

    The group reward is the programmatic critic's weighted scalar;
    `reward_dimension`, when set, trains on that single critic dimension (for
    per-dimension reward curves) instead; it must name one of
    `critic.DIMENSIONS`.
    """

    group_size: int = 8
    epsilon: float = 0.2
    beta: float = 0.01
    delta: float = 1e-8
    lr: float = 3e-4
    iterations: int = 300
    curriculum: tuple[tuple[int, int], ...] = DEFAULT_CURRICULUM
    reward_dimension: str | None = None

    def __post_init__(self) -> None:
        if self.group_size < 2:
            raise LoopwmError(f"group_size must be at least 2, got {self.group_size}")
        if not 0.0 < self.epsilon < 1.0:
            raise LoopwmError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.beta < 0.0:
            raise LoopwmError(f"beta must be nonnegative, got {self.beta}")
        if self.delta <= 0.0:
            raise LoopwmError(f"delta must be positive, got {self.delta}")
        if self.lr <= 0.0:
            raise LoopwmError(f"lr must be positive, got {self.lr}")
        if self.iterations < 0:
            raise LoopwmError(f"iterations must be nonnegative, got {self.iterations}")
        if self.reward_dimension is not None and self.reward_dimension not in DIMENSIONS:
            raise LoopwmError(
                f"unknown reward dimension {self.reward_dimension!r}; "
                f"the critic scores {list(DIMENSIONS)}"
            )
        if not self.curriculum:
            raise LoopwmError("curriculum must contain at least one entry")
        starts = [start for start, _ in self.curriculum]
        levels = [level for _, level in self.curriculum]
        if starts[0] != 1:
            raise LoopwmError(f"curriculum must start at iteration 1, got {starts[0]}")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise LoopwmError(f"curriculum starts must be strictly increasing: {starts}")
        if any(level < 1 for level in levels):
            raise LoopwmError(f"curriculum levels must be at least 1: {levels}")
        if any(b < a for a, b in zip(levels, levels[1:])):
            raise LoopwmError(f"curriculum levels must be non-decreasing: {levels}")


def curriculum_schedule(config: GrpoConfig, iteration: int) -> int:
    """Max plan length in force at `iteration` (left-closed intervals).

    Iterations past the last entry stay at the last level, so the schedule is
    piecewise-constant and non-decreasing over all iterations >= 1.
    """
    if iteration < 1:
        raise LoopwmError(f"iteration must be at least 1, got {iteration}")
    level = config.curriculum[0][1]
    for start, max_len in config.curriculum:
        if iteration < start:
            break
        level = max_len
    return level
