import pytest

from loopwm.bench.oracle import minimal_plan_length
from loopwm.errors import DomainError, NoPlanError
from loopwm.microworld import ActionBinding, Literal, apply_operator, parse_literal
from loopwm.microworld.types import MAX_INSTRUCTION_WORDS
from loopwm.numerics import RandomSource
from loopwm.planner import (
    Goal,
    PlanSequence,
    PlanStep,
    parse_goal_literal,
    plan,
)


def goal_of(*texts):
    return Goal(tuple(parse_literal(t) for t in texts))


def bindings(sequence):
    return [step.actions[0] for step in sequence.steps]


def test_single_step_plan(kitchen):
    seq = plan(kitchen, goal_of("jar.lid_removed"), kitchen.initial_state())
    assert bindings(seq) == [ActionBinding("open", ("jar",), "hand")]
    assert seq.steps[0].sid == 1
    assert seq.steps[0].instruction == "open the jar and set the lid aside"
    assert parse_literal("jar.closed") in seq.steps[0].pre
    assert parse_literal("not jar.closed") in seq.steps[0].post


def test_minimal_plan_is_lexicographically_smallest(kitchen):
    # four ops are required; among valid orders the (verb, objects)-smallest wins
    seq = plan(kitchen, goal_of("cup.full"), kitchen.initial_state())
    assert [str(b) for b in bindings(seq)] == [
        "grasp(kettle) [hand]",
        "open(jar) [hand]",
        "pour(jar, cup) [hand]",
        "pour(kettle, cup) [kettle]",
    ]
    assert [s.sid for s in seq.steps] == [1, 2, 3, 4]


def test_six_step_plan(kitchen):
    seq = plan(kitchen, goal_of("cup.stirred"), kitchen.initial_state())
    assert len(seq) == 6
    assert minimal_plan_length(kitchen, kitchen.initial_state(), seq.goal.literals) == 6


def test_goal_already_satisfied_gives_empty_plan(kitchen):
    seq = plan(kitchen, goal_of("jar.closed"), kitchen.initial_state())
    assert len(seq) == 0


def test_unreachable_goal_raises(kitchen):
    with pytest.raises(NoPlanError, match="unreachable"):
        plan(kitchen, goal_of("not jar.closed", "not jar.lid_removed"),
             kitchen.initial_state())


def test_node_budget_exhaustion_raises(kitchen):
    with pytest.raises(NoPlanError, match="budget"):
        plan(kitchen, goal_of("cup.has_tea"), kitchen.initial_state(), node_budget=1)


def test_unknown_goal_predicate_raises(kitchen):
    with pytest.raises(DomainError, match="cup.levitating"):
        plan(kitchen, goal_of("cup.levitating"), kitchen.initial_state())


def test_goal_literal_forms(kitchen):
    assert parse_goal_literal(kitchen, "jar.closed") == Literal("jar.closed", True)
    assert parse_goal_literal(kitchen, "not jar.closed") == Literal("jar.closed", False)
    assert parse_goal_literal(kitchen, "jar closed") == Literal("jar.closed", True)
    assert parse_goal_literal(kitchen, "lid removed") == Literal("jar.lid_removed", True)
    assert parse_goal_literal(kitchen, "kettle grasped") == Literal("kettle.grasped", True)
    # "grasped" is a suffix of two predicates, so it must be rejected
    with pytest.raises(DomainError, match="grasped"):
        parse_goal_literal(kitchen, "grasped")
    with pytest.raises(DomainError, match="does not name a predicate"):
        parse_goal_literal(kitchen, "cup levitating")
    with pytest.raises(DomainError):
        parse_goal_literal(kitchen, "")


def _reachable_states(spec, limit=5000):
    from collections import deque

    def key(state):
        return frozenset(p for p, v in state.predicates.items() if v)

    start = spec.initial_state()
    seen = {key(start): start}
    queue = deque([start])
    while queue and len(seen) < limit:
        cur = queue.popleft()
        for op in spec.operators:
            if cur.satisfies(op.pre):
                nxt = apply_operator(spec, cur, op.binding)
                if key(nxt) not in seen:
                    seen[key(nxt)] = nxt
                    queue.append(nxt)
    return list(seen.values())


@pytest.mark.parametrize("domain_fixture", ["kitchen", "workshop"])
def test_fuzz_plans_validate_and_match_oracle(domain_fixture, request):
    spec = request.getfixturevalue(domain_fixture)
    rng = RandomSource(2289, 5)
    states = _reachable_states(spec)
    initial = spec.initial_state()
    checked = 0
    for _ in range(100):
        target = states[rng.choice(len(states))]
        true_lits = [parse_literal(p) for p, v in target.predicates.items() if v]
        if not true_lits:
            continue
        k = 1 + rng.choice(min(3, len(true_lits)))
        picks = sorted(rng.generator().permutation(len(true_lits))[:k])
        goal = Goal(tuple(true_lits[i] for i in picks))
        seq = plan(spec, goal, initial)
        state = initial
        for step in seq.steps:
            op = spec.find_operator(step.actions[0])
            assert state.satisfies(op.pre)
            state = apply_operator(spec, state, op.binding)
        assert state.satisfies(goal.literals)
        oracle_len = minimal_plan_length(spec, initial, goal.literals)
        assert oracle_len == len(seq)
        checked += 1
    assert checked >= 80


# ------------------------------------------------- plans from goal text


def jar_goal():
    return Goal((Literal("jar.lid_removed", True),))


def test_goal_text_plans_the_jar_example(kitchen):
    # the path `loopwm plan "lid removed"` takes: goal text, then the search
    goal = Goal((parse_goal_literal(kitchen, "lid removed"),))
    assert goal == jar_goal()
    sequence = plan(kitchen, goal, kitchen.initial_state())
    step = sequence.steps[0]
    assert len(sequence.steps) == 1
    assert step.sid == 1
    assert step.pre == (Literal("jar.closed", True),)
    assert Literal("jar.lid_removed", True) in step.post
    assert step.actions[0].verb == "open"
    assert step.actions[0].objects == ("jar",)
    assert step.actions[0].tool == "hand"


def test_plan_value_types_reject_malformed_steps(kitchen):
    # the checks every plan handed to the loop passes, whoever wrote it
    step = plan(kitchen, jar_goal(), kitchen.initial_state()).steps[0]
    with pytest.raises(ValueError, match="sid"):
        PlanStep(0, step.instruction, step.actions, step.pre, step.post)
    with pytest.raises(ValueError, match="action"):
        PlanStep(1, step.instruction, (), step.pre, step.post)
    wordy = " ".join(["very"] * MAX_INSTRUCTION_WORDS + ["long"])
    with pytest.raises(ValueError, match="instruction"):
        PlanStep(1, wordy, step.actions, step.pre, step.post)
    with pytest.raises(ValueError, match="instruction"):
        PlanStep(1, "   ", step.actions, step.pre, step.post)
    with pytest.raises(ValueError, match="increasing"):
        PlanSequence((step, step), jar_goal())
    with pytest.raises(ValueError, match="literal"):
        Goal(())
