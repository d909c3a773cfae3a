"""Every benchmark hook target must resolve, so a refactor that renames a
hooked function fails here instead of silently zeroing a per-layer metric."""

import importlib.util
import sys
from pathlib import Path

HOOKS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "hooks.py"

# Targets merged away earlier; their hooks go with the next benchmark change.
KNOWN_ABSENT = {"decoder.hidden_step", "training.validation"}


def test_hook_targets_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_hooks", HOOKS_PATH)
    hooks = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, hooks)  # dataclasses look it up
    spec.loader.exec_module(hooks)
    absent = {hook.name for hook in hooks.HOOKS
              if any(hooks._resolve(target) is None for target in hook.targets)}
    assert absent <= KNOWN_ABSENT
