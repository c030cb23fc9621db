import pytest

from loopwm.bench.oracle import minimal_plan_length
from loopwm.errors import DomainError, NoPlanError, PreconditionError
from conftest import chain_domain_dict, op_index
from loopwm.microworld import (
    MAX_PLAN_LEN,
    Literal,
    apply_operator,
    domain_from_dict,
    load_domain,
    parse_literal,
)
from loopwm.numerics import RandomSource
from loopwm.planner import Goal, PlanStep, parse_goal_literal, plan


def goal_of(*texts):
    return Goal(tuple(parse_literal(t) for t in texts))


def test_single_step_plan(kitchen):
    seq = plan(kitchen, goal_of("jar.lid_removed"))
    assert seq == (PlanStep(1, op_index(kitchen, "open", "jar")),)
    op = kitchen.operators[seq[0].op]
    assert str(op) == "open(jar) [hand]"
    assert op.instruction == "open the jar and set the lid aside"
    assert parse_literal("jar.closed") in op.pre
    assert parse_literal("not jar.closed") in op.post


def test_minimal_plan_is_lexicographically_smallest(kitchen):
    # four ops are required; among valid orders the (verb, objects)-smallest wins
    seq = plan(kitchen, goal_of("cup.full"))
    assert [str(kitchen.operators[s.op]) for s in seq] == [
        "grasp(kettle) [hand]",
        "open(jar) [hand]",
        "pour(jar, cup) [hand]",
        "pour(kettle, cup) [kettle]",
    ]
    assert [s.sid for s in seq] == [1, 2, 3, 4]


def test_six_step_plan(kitchen):
    goal = goal_of("cup.stirred")
    seq = plan(kitchen, goal)
    assert len(seq) == 6
    assert minimal_plan_length(kitchen, kitchen.initial_frame, goal.literals) == 6


def test_goal_already_satisfied_gives_empty_plan(kitchen):
    seq = plan(kitchen, goal_of("jar.closed"))
    assert len(seq) == 0


def test_unreachable_goal_raises(kitchen):
    with pytest.raises(NoPlanError, match="unreachable"):
        plan(kitchen, goal_of("not jar.closed", "not jar.lid_removed"))


def test_plans_reach_the_cap_and_no_further():
    # step i of the chain needs the literal step i - 1 sets, so chain.p<i> is i deep
    spec = domain_from_dict(chain_domain_dict(MAX_PLAN_LEN + 1))
    start = spec.initial_frame
    deepest = goal_of(f"chain.p{MAX_PLAN_LEN}")
    seq = plan(spec, deepest)
    assert [spec.operators[s.op].verb for s in seq] == [
        f"step{i}" for i in range(1, MAX_PLAN_LEN + 1)]
    assert minimal_plan_length(spec, start, deepest.literals) == MAX_PLAN_LEN
    beyond = goal_of(f"chain.p{MAX_PLAN_LEN + 1}")
    with pytest.raises(NoPlanError, match=f"unreachable within {MAX_PLAN_LEN} steps"):
        plan(spec, beyond)
    assert minimal_plan_length(spec, start, beyond.literals) is None
    assert minimal_plan_length(spec, start, beyond.literals, MAX_PLAN_LEN + 1) == MAX_PLAN_LEN + 1
    assert max(node.depth for node in spec.plan_graph) == MAX_PLAN_LEN


@pytest.mark.parametrize("name", ["kitchen", "workshop", "chain"])
def test_plan_graph_matches_the_dynamics(name):
    # the graph's bit keys and the operator tables' frame columns are two
    # compilations of one domain: each node's parent chain, applied to the
    # initial frame, lands on a state whose predicate channels encode the
    # node's key, and the operators applicable there lead to its successors
    if name == "chain":
        spec = domain_from_dict(chain_domain_dict(MAX_PLAN_LEN))
    else:
        spec = load_domain(name)
    n_pred = spec.n_predicates

    def key(frame):
        assert set(frame[:n_pred].tolist()) <= {0.0, 1.0}
        return sum(1 << i for i in range(n_pred) if frame[i] == 1.0)

    index = {node.key: n for n, node in enumerate(spec.plan_graph)}
    for node in spec.plan_graph:
        ops, at = [], node
        while at.parent != -1:
            ops.append(at.op)
            at = spec.plan_graph[at.parent]
        frame = spec.initial_frame
        for op in reversed(ops):
            frame = apply_operator(spec, frame, op)
        assert key(frame) == node.key
        if node.depth == MAX_PLAN_LEN:
            continue
        reached = []
        for op in range(len(spec.operators)):
            try:
                reached.append(index[key(apply_operator(spec, frame, op))])
            except PreconditionError:
                pass
        assert node.successors == tuple(reached)


def test_unknown_goal_predicate_raises(kitchen):
    with pytest.raises(DomainError, match="cup.levitating"):
        plan(kitchen, goal_of("cup.levitating"))


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
        return state[:spec.n_predicates].tobytes()

    start = spec.initial_frame
    seen = {key(start): start}
    queue = deque([start])
    while queue and len(seen) < limit:
        cur = queue.popleft()
        for i, op in enumerate(spec.operators):
            if spec.holds(cur, op.pre):
                nxt = apply_operator(spec, cur, i)
                if key(nxt) not in seen:
                    seen[key(nxt)] = nxt
                    queue.append(nxt)
    return list(seen.values())


@pytest.mark.parametrize("domain_fixture", ["kitchen", "workshop"])
def test_fuzz_plans_validate_and_match_oracle(domain_fixture, request):
    spec = request.getfixturevalue(domain_fixture)
    rng = RandomSource(2289, 5)
    states = _reachable_states(spec)
    initial = spec.initial_frame
    checked = 0
    for _ in range(100):
        target = states[rng.choice(len(states))]
        true_lits = [parse_literal(p) for i, (p, _) in enumerate(spec.predicates) if target[i]]
        if not true_lits:
            continue
        k = 1 + rng.choice(min(3, len(true_lits)))
        picks = sorted(rng.generator().permutation(len(true_lits))[:k])
        goal = Goal(tuple(true_lits[i] for i in picks))
        seq = plan(spec, goal)
        state = initial
        for step in seq:
            assert spec.holds(state, spec.operators[step.op].pre)
            state = apply_operator(spec, state, step.op)
        assert spec.holds(state, goal.literals)
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
    (step,) = plan(kitchen, goal)
    op = kitchen.operators[step.op]
    assert step.sid == 1
    assert op.pre == (Literal("jar.closed", True),)
    assert Literal("jar.lid_removed", True) in op.post
    assert (op.verb, op.objects, op.tool) == ("open", ("jar",), "hand")


def test_plan_value_types_reject_malformed_steps():
    # a plan step is (sid, operator index) and checks nothing; a goal needs a literal
    with pytest.raises(ValueError, match="literal"):
        Goal(())
