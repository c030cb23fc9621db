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
    """Input shapes of every forward tanh call, one per hidden layer run."""
    calls = []
    act, dact = net._ACTIVATIONS["tanh"]

    def counted(h):
        calls.append(h.shape)
        return act(h)

    monkeypatch.setitem(net._ACTIVATIONS, "tanh", (counted, dact))
    return calls


def op_index(spec, verb, *objects):
    """Index in `spec.operators` of the operator `verb(objects)`, the `op` of a plan step."""
    return next(i for i, op in enumerate(spec.operators) if (op.verb, op.objects) == (verb, objects))
