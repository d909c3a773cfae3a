"""Self-test of the benchmark's hooks and exact counts.

Run from the root of a glossgen checkout:

    python3 perfbench/selftest.py [--seed N]

1. Hooks: a function is patched under every module name that imports it, a
   missing target is reported as absent without aborting, and uninstalling
   restores the originals.
2. Exact counts: for each workload it runs ``run.py`` untraced, traced, and
   untraced again with the same seed, and requires identical exact counts
   (tape nodes per op, matmul FLOPs, call counts, padding, generated tokens,
   checkpoint bytes) from all three. Each run already requires every round,
   traced or not, to repeat the counts of its first round.

Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import run


def check_hooks() -> list[str]:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import hooks
    import glossgen.autodiff
    import glossgen.training

    original = glossgen.autodiff.backward
    gone = (hooks.Hook("test.missing_method", ("glossgen.decoder:DecoderStack.no_such_step",)),
            hooks.Hook("test.missing_module", ("glossgen.no_such_module:fit",)))
    saved = hooks.HOOKS
    hooks.HOOKS = saved + gone
    tracer = hooks.Tracer()
    try:
        tracer.install()
        problems = [f"{h.name}: status {tracer.status.get(h.name)!r}, expected 'absent'"
                    for h in gone if tracer.status.get(h.name) != "absent"]
        patched = glossgen.training.backward
        if patched is original or glossgen.autodiff.backward is not patched:
            problems.append("backward is not patched in both autodiff and training")
        problems += [f"hook {n}: {s}" for n, s in tracer.status.items()
                     if s != "ok" and not n.startswith("test.")]
    finally:
        tracer.uninstall()
        hooks.HOOKS = saved
    if glossgen.training.backward is not original or glossgen.autodiff.backward is not original:
        problems.append("uninstall did not restore backward")
    return problems


def exact_counts(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
    if out.returncode != 0 or not json.loads(last).get("correct"):
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{out.stdout}\n{out.stderr}")
    path = os.path.join(run.OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["exact_counts"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    problems = check_hooks()
    print("hooks: " + ("ok" if not problems else "FAILED"), flush=True)
    for workload in ("train-hier", "pretrain-lm", "eval-generate"):
        runs = [exact_counts(workload, args.seed, trace) for trace in (0, 1, 0)]
        bad = sorted({k for r in runs for k in set(r) | set(runs[0])
                      if r.get(k) != runs[0].get(k)})
        if bad:
            problems.append(f"{workload}: exact counts differ across runs in {bad}")
        print(f"{workload}: {len(runs[0])} exact counts, "
              + ("identical in untraced, traced and repeated runs" if not bad else "DIFFER"),
              flush=True)
    for p in problems:
        print("FAILED: " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
