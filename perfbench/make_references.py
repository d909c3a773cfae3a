"""Regenerate perfbench/references.json from the checkout's current code.

Run from the root of a glossgen checkout, only when the program's outputs
are meant to change:

    python3 perfbench/make_references.py

For every workload and each of the run.VARIANTS input variants it sets the
workload up once and stores the outputs of one round: the per-step losses and
validation perplexities of the training workloads, and the hypotheses and
perplexity of eval-generate.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    run._blas_threads()
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from hooks import Tracer
    from workloads import WORKLOADS

    path = os.path.join(run.HERE, "references.json")
    references = {}
    tracer = Tracer()
    tracer.install()
    workdir = os.path.join(run.OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for name, workload in WORKLOADS.items():
            references[name] = table = {}
            for variant in range(run.VARIANTS):
                state = workload.setup(variant, workdir)
                workload.prepare(state)
                tracer.begin_round()
                outputs = workload.run(state, tracer).outputs
                table[str(variant)] = {k: v for k, v in outputs.items() if k != "scores"}
                print(f"{name} variant {variant}: stored", flush=True)
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(references, fh, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
