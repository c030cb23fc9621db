"""The planner's plan-graph lookup against a dict-state search, and the cached condition tails
against the uncached assembly.

`reference_search` is a breadth-first search from the initial state written
over plain predicate dicts, built from `spec.predicates` and each operator's
literals and from none of the tables `DomainSpec` compiles. `plan` must return its
operator indices, or both must find no plan.
"""

import numpy as np
import pytest
from collections import deque
from hypothesis import given, settings
from hypothesis import strategies as st

from loopwm.bench.oracle import minimal_plan_length
from loopwm.errors import NoPlanError
from loopwm.memory import WorldMemory
from loopwm.microworld import (
    MAX_PLAN_LEN,
    Literal,
    load_domain,
    reference_segment,
)
from loopwm.planner import Goal, PlanStep, plan
from loopwm.worldmodel import MAX_NORM_SID, embed_condition

SPECS = {name: load_domain(name) for name in ("kitchen", "workshop")}


def _true_predicates(state):
    return frozenset(p for p, v in state.items() if v)


def _holds(state, literals):
    return all(state[lit.pred] == lit.value for lit in literals)


def _successor(state, op):
    return {**state, **{lit.pred: lit.value for lit in op.post}}


def reference_search(spec, goal):
    state = dict(spec.predicates)
    if _holds(state, goal.literals):
        return ()
    ordered = sorted(enumerate(spec.operators), key=lambda pair: (pair[1].verb, pair[1].objects))
    queue = deque([(state, ())])
    visited = {_true_predicates(state)}
    while queue:
        current, path = queue.popleft()
        for index, op in ordered:
            if not _holds(current, op.pre):
                continue
            nxt = _successor(current, op)
            key = _true_predicates(nxt)
            if key in visited:
                continue
            new_path = path + (index,)
            if _holds(nxt, goal.literals):
                return new_path
            visited.add(key)
            queue.append((nxt, new_path))
    raise NoPlanError(f"goal {goal.text!r} is unreachable")


def _outcome(search, spec, goal):
    try:
        return search(spec, goal)
    except NoPlanError:
        return None


@st.composite
def walked_states(draw, spec):
    """A state reached from the initial state by a random walk of 0-8 applicable operators."""
    state = dict(spec.predicates)
    for _ in range(draw(st.integers(0, 8))):
        applicable = [op for op in spec.operators if _holds(state, op.pre)]
        if not applicable:
            break
        state = _successor(state, draw(st.sampled_from(applicable)))
    return state


@st.composite
def goals(draw, spec):
    """1-3 literals: half read off a walked state, so most are reachable, and half
    drawn freely, repeats, contradictions (p and not p) and unreachable sets included."""
    names = [p for p, _ in spec.predicates]
    if draw(st.booleans()):
        target = draw(walked_states(spec))
        picks = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
        return Goal(tuple(Literal(p, target[p]) for p in picks))
    literals = draw(st.lists(st.builds(Literal, st.sampled_from(names), st.booleans()),
                             min_size=1, max_size=3))
    return Goal(tuple(literals))


@pytest.mark.parametrize("name", sorted(SPECS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_bitmask_search_matches_dict_state_reference(name, data):
    # both builtin domains lie within the cap (7 and 6 steps deep), so the
    # uncapped reference and the graph must agree on every goal
    spec = SPECS[name]
    assert spec.plan_graph[-1].depth < MAX_PLAN_LEN
    goal = data.draw(goals(spec))
    steps = _outcome(plan, spec, goal)
    expected = _outcome(reference_search, spec, goal)
    assert (None if steps is None else tuple(s.op for s in steps)) == expected
    length = minimal_plan_length(spec, spec.initial_frame, goal.literals)
    assert length == (None if steps is None else len(steps))


def _uncached_condition(spec, step, memory):
    """Frame, one-hot, channel mask and capped sid, each assembled from the declared fields."""
    op = spec.operators[step.op]
    one_hot = np.zeros(len(spec.operators))
    one_hot[step.op] = 1.0
    mask = np.zeros(len(spec.channels))
    for lit in op.post:
        mask[spec.channels.index(lit.pred)] = 1.0
    for entity in op.motion.moves if op.motion is not None else ():
        mask[spec.channels.index(f"{entity}.x")] = 1.0
        mask[spec.channels.index(f"{entity}.y")] = 1.0
    sid = np.array([min(step.sid, MAX_NORM_SID) / MAX_NORM_SID])
    return np.concatenate([np.asarray(memory.frame, dtype=np.float64), one_hot, mask, sid])


@pytest.mark.parametrize("name", sorted(SPECS))
def test_embed_condition_matches_uncached_assembly(name):
    spec = SPECS[name]
    fresh = WorldMemory.fresh(spec)
    advanced = WorldMemory.fresh(spec)
    first = next(i for i, op in enumerate(spec.operators) if spec.holds(advanced.state, op.pre))
    advanced.advance(PlanStep(1, first), reference_segment(spec, advanced.state, first))
    assert not np.array_equal(advanced.frame, fresh.frame)
    for memory in (fresh, advanced):
        for op in range(len(spec.operators)):
            for sid in range(1, 21):
                step = PlanStep(sid, op)
                cond = embed_condition(spec, step, memory)
                assert cond.tobytes() == _uncached_condition(spec, step, memory).tobytes()
