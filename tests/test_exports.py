"""Every exported name exists, and every name a demo imports from incflow
resolves. The demos are parsed, not run: running them takes tens of
seconds."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import incflow

MODULES = ["incflow"] + [f"incflow.{m.name}" for m in pkgutil.iter_modules(incflow.__path__)]
DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_is_defined(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names undefined: {missing}"


def test_demo_imports_from_incflow_resolve():
    assert DEMOS, "no demo scripts found"
    for path in DEMOS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "incflow":
                mod = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(mod, alias.name), f"{path.name}: {node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "incflow":
                        importlib.import_module(alias.name)
