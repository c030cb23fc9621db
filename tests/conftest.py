import pytest

from loopwm.microworld import load_domain
from loopwm.numerics import net


@pytest.fixture(scope="session")
def kitchen():
    return load_domain("kitchen")


@pytest.fixture(scope="session")
def workshop():
    return load_domain("workshop")


@pytest.fixture
def tanh_calls(monkeypatch):
    """Shapes of every forward tanh call, one (width, rows) block per hidden layer run."""
    calls = []
    tanh = net._tanh

    def counted(h):
        calls.append(h.shape)
        return tanh(h)

    monkeypatch.setattr(net, "_tanh", counted)
    return calls


def op_index(spec, verb, *objects):
    """Index in `spec.operators` of the operator `verb(objects)`, the `op` of a plan step."""
    return next(i for i, op in enumerate(spec.operators) if (op.verb, op.objects) == (verb, objects))


def chain_domain_dict(n: int) -> dict:
    """A domain file whose step i sets chain.p<i> and needs chain.p<i-1>: chain.p<n> is n deep."""
    return {
        "name": "chain",
        "actor": "hand",
        "objects": {"hand": {"position": [0.5, 0.5], "movable": True},
                    "chain": {"position": [0.6, 0.5]}},
        "predicates": {f"chain.p{i}": i == 0 for i in range(n + 1)},
        "operators": [{"verb": f"step{i}", "objects": ["chain"], "pre": [f"chain.p{i - 1}"],
                       "post": [f"chain.p{i}"]} for i in range(1, n + 1)],
    }
