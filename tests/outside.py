"""Adapters of the kind an outside planner or critic plugs into the loop with.

`episode`, `run_suite` and `evaluate_policy` take any object with
`plan`/`replan` and any critic callable. An outside agent's answers arrive
as plain data, so its adapter rebuilds them into the package's value types;
these adapters do that over the builtin search and critic.
"""

from loopwm.critic import CriticReport, evaluate
from loopwm.critic.scoring import DIMENSIONS
from loopwm.microworld.types import ActionBinding
from loopwm.planner import PlanSequence, PlanStep, parse_goal_literal, plan, replan
from oracles import aggregate


def step_to_plain(step):
    return {
        "sid": step.sid,
        "instruction": step.instruction,
        "actions": [[a.verb, list(a.objects), a.tool] for a in step.actions],
        "pre": [str(lit) for lit in step.pre],
        "post": [str(lit) for lit in step.post],
    }


def step_from_plain(spec, plain):
    return PlanStep(
        plain["sid"],
        plain["instruction"],
        tuple(ActionBinding(verb, tuple(objects), tool) for verb, objects, tool in plain["actions"]),
        tuple(parse_goal_literal(spec, text) for text in plain["pre"]),
        tuple(parse_goal_literal(spec, text) for text in plain["post"]),
    )


class PlainDataPlanner:
    """An outside planner's adapter: its answers arrive as plain data.

    The plans come from the builtin search, flattened to plain values and
    rebuilt, the way an adapter over an outside agent would rebuild them.
    """

    def __init__(self):
        self.failures = []

    def _rebuild(self, spec, sequence):
        steps = tuple(step_from_plain(spec, step_to_plain(s)) for s in sequence.steps)
        return PlanSequence(steps, sequence.goal)

    def plan(self, spec, goal, state):
        return self._rebuild(spec, plan(spec, goal, state))

    def replan(self, spec, goal, failure):
        self.failures.append(failure)
        return self._rebuild(spec, replan(spec, goal, failure))


def plain_data_critic(tau):
    """An outside critic's adapter: scores and reasons arrive as plain data."""

    def critic(spec, segment, step):
        builtin = evaluate(spec, segment, step, tau=tau)
        scores = {d: float(builtin.scores[d]) for d in DIMENSIONS}
        return CriticReport(scores, dict(builtin.reasons), tuple(builtin.tags),
                            builtin.revised_instruction, aggregate(scores))

    return critic
