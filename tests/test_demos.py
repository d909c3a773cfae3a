"""Every glossgen name a demo imports must exist, so an API removal cannot
silently break a demo. The two fast demos also run; the others train for
half a minute or more each, so only their imports are checked."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import glossgen

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
FAST_DEMOS = [d for d in DEMOS
              if d.name in ("01_autodiff_basics.py", "02_encoding_and_attention.py")]


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


def test_fast_demos_found():
    assert len(FAST_DEMOS) == 2


@pytest.mark.parametrize("demo", FAST_DEMOS, ids=lambda p: p.name)
def test_fast_demo_runs(demo):
    src = str(Path(glossgen.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, str(demo)], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
