"""Package-wide rules that no single module's tests can see."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import ModuleType

import loopwm
from loopwm import numerics

# The package runs on one thread in one process and talks to no network:
# no concurrency that does not pay for itself. A change that brings one back
# deletes this test on purpose and says why.
FORBIDDEN = {"threading", "socket", "http", "urllib", "concurrent", "multiprocessing", "asyncio"}


def _imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module.split(".")[0]


def test_no_module_imports_threads_processes_or_networking():
    package = Path(loopwm.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert modules
    offenders = [
        f"{path.relative_to(package.parent)}:{line} imports {root}"
        for path in modules
        for line, root in _imported_roots(ast.parse(path.read_text(), str(path)))
        if root in FORBIDDEN
    ]
    assert offenders == []


def _package_trees() -> dict[Path, ast.Module]:
    """Every module of the package, parsed, by its path from the package's parent."""
    package = Path(loopwm.__file__).parent
    return {path.relative_to(package.parent): ast.parse(path.read_text(), str(path))
            for path in sorted(package.rglob("*.py"))}


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the public methods of the classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield item


def _named(node: ast.AST):
    """Every name a subtree reads or calls, as `ast.Name` or `ast.Attribute`."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_definition_is_named_elsewhere_in_the_package():
    # one implementation per concept, and no code that the program cannot
    # reach: a definition whose name appears nowhere else in the package
    # (its own body aside) is dead or serves only the tests, which keep
    # their own references in tests/oracles.py
    trees = _package_trees()
    uses = Counter(name for tree in trees.values() for name in _named(tree))
    unused = sorted(
        f"{path}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        for node in _definitions(tree)
        if uses[node.name] == Counter(_named(node))[node.name]
    )
    assert unused == []


def _bound_imports(tree: ast.Module):
    """(line, name) of every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or (isinstance(node, ast.ImportFrom)
                                         and node.module == "__future__"):
                    continue
                yield node.lineno, alias.asname or alias.name.split(".")[0]


def _test_trees() -> dict[Path, ast.Module]:
    """Every module of the tests, parsed, by its path from the repository root."""
    tests = Path(__file__).parent
    return {path.relative_to(tests.parent): ast.parse(path.read_text(), str(path))
            for path in sorted(tests.glob("*.py"))}


def test_every_import_is_read():
    # a name a module of the package or of the tests imports and never reads
    # is a leftover of deleted code; package `__init__` modules import names
    # to re-export them, so they are not checked
    unread = []
    for path, tree in {**_package_trees(), **_test_trees()}.items():
        if path.name == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread.extend(f"{path}:{line} {name}" for line, name in _bound_imports(tree)
                      if name not in read)
    assert sorted(unread) == []


def test_every_package_exports_exactly_what_it_binds():
    # a package `__init__` that defines `__all__` lists every public name it
    # binds, submodules aside, and each entry resolves, so a stale export
    # fails here instead of breaking `from package import *`
    package = Path(loopwm.__file__).parent
    checked = []
    for init in sorted(package.rglob("__init__.py")):
        name = ".".join(("loopwm", *init.parent.relative_to(package).parts))
        module = importlib.import_module(name)
        if not hasattr(module, "__all__"):
            continue
        bound = {key for key, value in vars(module).items()
                 if not key.startswith("_") and not isinstance(value, ModuleType)}
        assert [entry for entry in module.__all__ if not hasattr(module, entry)] == [], name
        assert len(module.__all__) == len(set(module.__all__)), name
        assert set(module.__all__) == bound, name
        checked.append(name)
    assert "loopwm.microworld" in checked and "loopwm.grpo" in checked


def test_one_forward_and_one_backward_checked_at_each_stage_entry():
    # each stage validates its inputs once, at entry, and runs the net's two
    # unchecked passes inside, so no computation needs a checked and an
    # unchecked version
    unchecked = sorted(
        f"{path}:{node.lineno} {node.name}"
        for path, tree in _package_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.endswith("_unchecked")
    )
    assert unchecked == []
    passes = [name for name in numerics.__all__
              if any(word in name for word in ("forward", "activations", "backward"))]
    assert passes == ["net_activations", "net_backward_batch"]


def test_the_cli_loads_no_third_party_package_but_its_two_dependencies():
    # domain files and run configs are checked by the one typed walk, so the
    # command line loads no schema validator, nor the packages one pulls in;
    # a fresh interpreter lists what importing it adds from site-packages
    script = """
import sys, sysconfig
from pathlib import Path
roots = {Path(sysconfig.get_paths()[key]) for key in ("purelib", "platlib")}
before = set(sys.modules)
import loopwm.cli.main
print(sorted({name.split(".")[0] for name in set(sys.modules) - before
              if any(root in Path(getattr(sys.modules[name], "__file__", None) or "/").parents
                     for root in roots)}))
"""
    src = Path(loopwm.__file__).parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "['numpy', 'yaml']"


# The benchmark's tracer wraps these by dotted name, but they are gone from the
# package (ROADMAP item 20 lists them); the tracer reports them as absent.
ABSENT_TRACER_TARGETS = {
    "loopwm.worldmodel.sampler.net_forward",
    "loopwm.worldmodel.training.net_forward_batch",
    "loopwm.grpo.update.net_forward_batch",
    "loopwm.worldmodel.training.flow_matching_loss",
    "loopwm.worldmodel.policy.sample_sde",
    "loopwm.grpo.rollout.sample_sde",
    "loopwm.grpo.rollout.evaluate",
    "loopwm.loop.engine.evaluate",
    "loopwm.loop.engine.replan",
    "loopwm.bench.metrics.run_episode",
}


def test_every_other_tracer_target_resolves():
    # a refactor that moves a name the tracer wraps (say `loop.engine.plan`)
    # would otherwise blind the benchmark's layer without failing a test
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # a dataclass looks its module up while it is made
    try:
        spec.loader.exec_module(tracing)
    finally:
        del sys.modules[spec.name]
    targets = {target for layer in tracing.LAYERS.values() for target in layer.targets}
    absent = {target for target in targets if tracing._resolve(target)[0] is None}
    assert absent == ABSENT_TRACER_TARGETS
    assert "loopwm.loop.engine.plan" in targets and "loopwm.cli.main.generate_suite" in targets


# Defaulted parameters that no call in src/ or benchmarks/ passes, each with
# the reason it keeps its default
UNPASSED_DEFAULTS = {
    # the reference oracle's search bound; test_planner raises it past the
    # planner's cap to show that the cap is where plans stop
    "loopwm/bench/oracle.py minimal_plan_length(max_len)",
    # numpy's signature; the program draws one integer at a time
    "loopwm/numerics/rng.py RandomSource.integers(shape)",
}


def _defaulted_parameters(tree: ast.Module):
    """(called name, qualified name, positional index or None, parameter) per default.

    A method's index counts from its first argument after self or cls, and a
    class's `__init__` is called by the class's name.
    """
    owner = {id(item): node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             for item in node.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = owner.get(id(node))
        called = cls.name if cls and node.name == "__init__" else node.name
        qualified = f"{cls.name}.{node.name}" if cls else node.name
        bound = int(cls is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list))
        spec = node.args
        positional = spec.posonlyargs + spec.args
        for i in range(len(positional) - len(spec.defaults), len(positional)):
            yield called, qualified, i - bound, positional[i].arg
        for arg, default in zip(spec.kwonlyargs, spec.kw_defaults):
            if default is not None:
                yield called, qualified, None, arg.arg


def test_every_parameter_default_is_overridden_somewhere():
    # a default that no call of the program or the benchmark overrides is a
    # setting with one value, a constant in disguise; tests do not count
    root = Path(__file__).resolve().parents[1]
    sources = [*_package_trees().values(),
               *(ast.parse(path.read_text(), str(path))
                 for path in sorted((root / "benchmarks").glob("*.py")))]
    positional, keywords = Counter(), {}
    for tree in sources:
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            star = any(isinstance(a, ast.Starred) for a in call.args)
            positional[name] = max(positional[name], math.inf if star else len(call.args))
            keywords.setdefault(name, set()).update(
                k.arg or "**" for k in call.keywords)
    unpassed = sorted(
        f"{path} {qualified}({param})"
        for path, tree in _package_trees().items()
        for called, qualified, index, param in _defaulted_parameters(tree)
        if not (index is not None and positional[called] > index)
        and not keywords.get(called, set()) & {param, "**"}
    )
    assert [u for u in unpassed if u not in UNPASSED_DEFAULTS] == []
    assert set(unpassed) == UNPASSED_DEFAULTS
