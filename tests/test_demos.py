"""Every glossgen name a demo imports must exist, so an API removal cannot
silently break a demo. The demos themselves are not run here."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def glossgen_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("glossgen"):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("glossgen"):
                    yield alias.name, None


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    names = list(glossgen_imports(demo))
    assert names, f"{demo.name} imports nothing from glossgen"
    for module_name, attr in names:
        module = importlib.import_module(module_name)
        assert attr is None or hasattr(module, attr), \
            f"{demo.name}: {module_name} has no {attr}"
