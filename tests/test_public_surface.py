"""The public surface: every library function has a caller outside the tests, every
constant and class a reader there, every parameter with a default is set by one, and
the package's names all resolve."""

import ast
import importlib
import inspect
from pathlib import Path

import mpmath
import pytest

import rydex

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("atoms", "radial", "vdw", "dynamics", "protocols", "harness")
SOURCES = [p for p in (ROOT / "src" / "rydex").glob("*.py") if p.name != "__init__.py"]
SOURCES += list((ROOT / "perfbench").glob("*.py"))
TREES = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
# public functions that only tests call, each with the reason it stays
ALLOWED = {"chain_ideal_state": "acceptance criterion 8"}
# public constants and classes that no source reads, each with the reason it stays
ALLOWED_NAMES: dict[str, str] = {}
# parameters with a default that only tests set, each with the reason it stays
ALLOWED_PARAMETERS = {
    "optimize_pairwise.restarts": "the determinism test freezes its optimum at 3 restarts",
    "pairwise_entangle.phases": "criterion 10's dressed sectors at protocol level, pinned "
                                "bit-exact",
}
_POSITIONAL = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)


def _public_functions():
    for module in (importlib.import_module(f"rydex.{m}") for m in MODULES):
        for name in module.__all__:
            if inspect.isfunction(getattr(module, name)):
                yield name, getattr(module, name)


def _loaded_names() -> set[str]:
    """Every name read as a bare name or an attribute in the sources."""
    names = set()
    for node in (node for tree in TREES for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _passed(call: ast.Call, params: list[inspect.Parameter]) -> set[str]:
    """Names of ``params`` that ``call`` passes; a ``*`` or ``**`` may pass any it can reach."""
    if any(k.arg is None for k in call.keywords):
        return {p.name for p in params}
    positional = [p.name for p in params if p.kind in _POSITIONAL]
    passed = {k.arg for k in call.keywords}
    for i, arg in enumerate(call.args):
        passed.update(positional[i:] if isinstance(arg, ast.Starred) else positional[i : i + 1])
    return passed


def test_every_public_function_has_a_caller_outside_the_tests():
    used = _loaded_names()
    uncalled = {name for name, _ in _public_functions() if name not in used}
    assert sorted(uncalled - ALLOWED.keys()) == []
    assert ALLOWED.keys() <= uncalled, "an allowed name has gained a caller: drop it"


def test_every_public_constant_and_class_is_read_outside_the_tests():
    names = {name for m in MODULES for name in importlib.import_module(f"rydex.{m}").__all__}
    unread = names - {name for name, _ in _public_functions()} - _loaded_names()
    assert sorted(unread - ALLOWED_NAMES.keys()) == []
    assert ALLOWED_NAMES.keys() <= unread, "an allowed name has gained a reader: drop it"


def test_every_default_parameter_is_set_outside_the_tests():
    calls: dict[str, list[ast.Call]] = {}
    for node in (node for tree in TREES for node in ast.walk(tree)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            calls.setdefault(name, []).append(node)
    unset = set()
    for name, func in _public_functions():
        params = list(inspect.signature(func).parameters.values())
        passed = set().union(*(_passed(call, params) for call in calls.get(name, [])))
        unset |= {f"{name}.{p.name}" for p in params
                  if p.default is not p.empty and p.name not in passed}
    assert sorted(unset - ALLOWED_PARAMETERS.keys()) == []
    assert ALLOWED_PARAMETERS.keys() <= unset, "an allowed parameter has gained a setter: drop it"


def test_package_names_load_lazily_and_completely():
    """Every package name is its layer's own object, ``dir`` lists it, and an
    unknown name fails by name."""
    layers = [importlib.import_module(f"rydex.{m}") for m in MODULES]
    for name in rydex.__all__:
        homes = [layer for layer in layers if name in layer.__all__]
        assert homes, f"{name} is in no layer's __all__"
        assert all(getattr(rydex, name) is getattr(layer, name) for layer in homes)
    assert set(rydex.__all__) <= set(dir(rydex))
    with pytest.raises(AttributeError, match="has no attribute 'frobnicate'"):
        rydex.frobnicate  # noqa: B018

    # names read through a layer that loads their home module on first use
    harness, radial = layers[MODULES.index("harness")], layers[MODULES.index("radial")]
    assert harness.pair_couplings is rydex.protocols.pair_couplings
    assert harness._batched_pulse3_fidelities is rydex.dynamics._batched_pulse3_fidelities
    assert radial.mpmath is mpmath
    for layer in (harness, radial):
        with pytest.raises(AttributeError, match="has no attribute 'frobnicate'"):
            layer.frobnicate  # noqa: B018
