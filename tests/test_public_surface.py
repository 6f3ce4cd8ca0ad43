"""The public surface: every library function has a caller outside the tests."""

import ast
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("atoms", "radial", "vdw", "dynamics", "protocols", "harness")
# public functions that only tests call, each with the reason it stays
ALLOWED = {"chain_ideal_state": "acceptance criterion 8"}


def _loaded_names(files) -> set[str]:
    """Every name read as a bare name or an attribute in ``files``."""
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_public_function_has_a_caller_outside_the_tests():
    files = [p for p in (ROOT / "src" / "rydex").glob("*.py") if p.name != "__init__.py"]
    used = _loaded_names(files + list((ROOT / "perfbench").glob("*.py")))
    uncalled = {
        name
        for module in (importlib.import_module(f"rydex.{m}") for m in MODULES)
        for name in module.__all__
        if inspect.isfunction(getattr(module, name)) and name not in used
    }
    assert sorted(uncalled - ALLOWED.keys()) == []
    assert ALLOWED.keys() <= uncalled, "an allowed name has gained a caller: drop it"
