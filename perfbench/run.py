"""glossgen benchmark: train, pretrain and generate workloads.

Run from the root of a glossgen checkout:

    python3 perfbench/run.py --workload train-hier --seed 0 --seconds 25 --trace 0

It imports the package from ``src/`` of that checkout, sets up the workload
five times (the reported ``setup_s`` is the median), then repeats rounds of
the workload until ``--seconds`` have passed. Every round is checked against
the references stored in ``perfbench/references.json``. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end metrics listed
in ``BENCHMARK.json``; with ``--trace 1`` the run spends half its time
untraced and half with layer spans recorded, checks that both halves give the
same exact counts, and reports the per-layer metrics. Details, the spans and
the environment go to ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUPS = 5
# --seed picks one of these input variants; each has stored reference outputs.
VARIANTS = 16

# Per-layer times and call counts are per op: per train step on the training
# workloads, per entry (definition and usage generated) on eval-generate.
PER_OP_SPANS = (
    "autodiff.backward", "autodiff.adam", "autodiff.clip", "autodiff.zero_grads",
    "encoder.encode", "encoder.attend", "embeddings.char_encode",
    "embeddings.contextual", "decoder.init_state", "decoder.gate_build",
    "decoder.embed", "decoder.stack_step", "decoder.hidden_step", "models.forward",
    "training.validation", "checkpoint.save", "metrics.perplexity", "metrics.score",
)
PER_OP_CALLS = ("encoder.encode", "encoder.attend", "embeddings.char_encode",
                "decoder.gate_build", "decoder.stack_step", "decoder.hidden_step")
SELF_SPANS = {"models.forward": "models.forward_self_ms",
              "decoder.sample": "decoder.sample_self_ms"}
SETUP_SPANS = ("checkpoint.load", "models.init", "data.load_corpus", "data.build_vocab")
TAPE_OPS = ("matmul", "add", "concat", "elementwise-mul", "sigmoid", "tanh", "softmax",
            "max-over-axis", "embedding-lookup", "conv1d", "cross-entropy-from-logits",
            "scale", "slice")


def _blas_threads() -> tuple[int, int]:
    """Pin the BLAS pool before numpy loads: the request, at most nproc."""
    nproc = len(os.sched_getaffinity(0))
    try:
        wanted = int(os.environ.get("OPENBLAS_NUM_THREADS", nproc))
    except ValueError:
        wanted = nproc
    threads = max(1, min(wanted, nproc))
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    return threads, nproc


def _openblas_runtime():
    """(config string, live thread count) from the OpenBLAS numpy loaded."""
    import ctypes
    import glob

    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    names = (("scipy_openblas_get_config64_", "scipy_openblas_get_num_threads64_"),
             ("openblas_get_config", "openblas_get_num_threads"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for config_name, threads_name in names:
            if hasattr(lib, config_name) and hasattr(lib, threads_name):
                config = getattr(lib, config_name)
                config.restype = ctypes.c_char_p
                return config().decode(), int(getattr(lib, threads_name)())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}", None


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _environment(seed, variant, threads, nproc) -> dict:
    import numpy as np
    config, live = _openblas_runtime()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "openblas": config, "blas_threads": live if live is not None else threads,
            "nproc": nproc, "machine": platform.machine(), "commit": _git_commit(),
            "seed": seed, "variant": variant}


def _tail(values):
    """(value, percentile): the highest percentile with 10 samples beyond it.

    None below 20 samples, where that percentile would not lie above the median.
    """
    n = len(values)
    if n < 20:
        return None, None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def _op_durations(workload, record) -> list[float]:
    if workload.op == "step":
        bounds = [record["round"].start] + record["step_ends"]
        return [b - a for a, b in zip(bounds, bounds[1:])]
    per_entry: dict[str, float] = {}
    for entry_id, _, _, seconds in record["generations"]:
        per_entry[entry_id] = per_entry.get(entry_id, 0.0) + seconds
    return list(per_entry.values())


def _measure(workload, variant, seconds, trace, tracer, workdir):
    """Set up SETUPS times, then run rounds; returns the raw records."""
    setup_times, setup_ranges = [], []
    state = None
    tracer.timed = trace
    for _ in range(SETUPS):
        state = None
        gc.collect()
        tracer.begin_round()
        lo = len(tracer.spans)
        start = perf_counter()
        state = workload.setup(variant, workdir)
        setup_times.append(perf_counter() - start)
        setup_ranges.append((lo, len(tracer.spans)))
    phases = [("untraced", False, seconds / 2 if trace else seconds)]
    if trace:
        phases.append(("traced", True, seconds / 2))
    records = []
    for phase, timed, budget in phases:
        tracer.timed = timed
        begin = perf_counter()
        while True:
            workload.prepare(state)
            gc.collect()
            tracer.begin_round()
            lo = len(tracer.spans)
            rnd = workload.run(state, tracer)
            records.append({"phase": phase, "round": rnd, "counts": dict(tracer.counts),
                            "step_ends": list(tracer.step_ends),
                            "generations": list(tracer.generations),
                            "spans": (lo, len(tracer.spans))})
            if perf_counter() - begin >= budget:
                break
    return setup_times, setup_ranges, records


def _end_to_end(workload, setup_times, records) -> dict:
    ops = [d for r in records for d in _op_durations(workload, r)]
    if workload.op == "step":
        token_rates = [r["round"].tokens / r["round"].wall for r in records]
    else:
        token_rates = [r["round"].tokens / sum(g[3] for g in r["generations"])
                       for r in records]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "op_ms.p50": (1000 * statistics.median(ops), "ms"),
        "tokens_per_s": (statistics.median(token_rates), "1/s"),
        "items_per_s": (statistics.median(r["round"].items / r["round"].wall
                                          for r in records), "1/s"),
    }


def _per_layer(workload, tracer, setup_ranges, records) -> tuple[dict, dict]:
    from hooks import self_times, summarize
    own = self_times(tracer.spans)
    traced = [r for r in records if r["phase"] == "traced"]
    untraced = [r for r in records if r["phase"] == "untraced"]
    n_ops = sum(len(_op_durations(workload, r)) for r in traced)
    table: dict[str, dict] = {}
    for r in traced:
        for name, row in summarize(tracer.spans, own, *r["spans"]).items():
            acc = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
    counts = traced[0]["counts"]
    steps = counts.get("steps", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    def per_step(key):
        return ratio(counts.get(key, 0), steps)

    out: dict[str, tuple] = {}
    for name in PER_OP_SPANS:
        out[f"{name}_ms"] = (1000 * table.get(name, {}).get("total_s", 0.0) / n_ops, "ms")
    for name in PER_OP_CALLS:
        out[f"{name}_calls"] = (table.get(name, {}).get("calls", 0) / n_ops, "count")
    for name, metric in SELF_SPANS.items():
        out[metric] = (1000 * table.get(name, {}).get("self_s", 0.0) / n_ops, "ms")
    for name in SETUP_SPANS:
        per_setup = [summarize(tracer.spans, own, lo, hi).get(name, {}).get("total_s", 0.0)
                     for lo, hi in setup_ranges]
        out[f"{name}_ms"] = (1000 * statistics.median(per_setup), "ms")
    out["autodiff.tape_nodes_per_step"] = (per_step("tape_nodes"), "count")
    for op in TAPE_OPS:
        out[f"autodiff.tape_nodes.{op}"] = (per_step("tape_nodes." + op), "count")
    other = counts.get("tape_nodes", 0) - sum(counts.get("tape_nodes." + op, 0)
                                              for op in TAPE_OPS)
    out["autodiff.tape_nodes.other"] = (ratio(other, steps), "count")
    out["autodiff.matmul_gflop_per_step"] = (per_step("matmul_flop") / 1e9, "GFLOP")
    positions = counts.get("decoder_positions", 0)
    out["models.pad_token_frac"] = (
        ratio(positions - counts.get("decoder_scored", 0), positions), "ratio")
    out["decoder.gen_capped_frac"] = (
        ratio(counts.get("samples_capped", 0), counts.get("samples", 0)), "ratio")
    out["checkpoint.save_bytes"] = (
        ratio(counts.get("save_bytes", 0), counts.get("checkpoint.save.calls", 0)), "B")
    traced_p50 = statistics.median(d for r in traced for d in _op_durations(workload, r))
    plain_p50 = statistics.median(d for r in untraced for d in _op_durations(workload, r))
    out["trace.overhead_frac"] = (traced_p50 / plain_p50 - 1.0, "ratio")
    return out, table


def _report_lines(workload, setup_times, records, metrics, attempted) -> list[str]:
    """Each end-to-end metric under its workload-specific name, with unit and count."""
    ops = [d for r in records for d in _op_durations(workload, r)]
    lines = [f"setup_s             {metrics['setup_s'][0]:.4f} s (median of {len(setup_times)} set-ups)",
             f"peak_rss_mb         {metrics['peak_rss_mb'][0]:.1f} MB"]
    lines.append(f"fail_frac           0.0 (0 of {attempted} attempted failed)")
    if workload.op == "step":
        tail, pct = _tail(ops)
        lines += [
            f"train_tokens_per_s  {metrics['tokens_per_s'][0]:.2f} 1/s (median of {len(records)} calls)",
            f"train_step_ms.p50   {metrics['op_ms.p50'][0]:.2f} ms (n={len(ops)} steps)",
            f"train_step_ms.tail  " + (f"{1000 * tail:.2f} ms (p{pct:.1f}, n={len(ops)})"
                                       if tail is not None else f"n/a (n={len(ops)} < 20)"),
        ]
    else:
        calls = [g[3] for r in records for g in r["generations"]]
        tail, pct = _tail(calls)
        lines += [
            f"gen_tokens_per_s    {metrics['tokens_per_s'][0]:.2f} 1/s (median of {len(records)} rounds, {len(calls)} calls)",
            f"gen_ms.p50          {1000 * statistics.median(calls):.2f} ms (n={len(calls)} calls)",
            f"gen_ms.tail         " + (f"{1000 * tail:.2f} ms (p{pct:.1f}, n={len(calls)})"
                                       if tail is not None else "n/a"),
            f"entry_ms.p50        {metrics['op_ms.p50'][0]:.2f} ms (n={len(ops)} entries)",
            f"eval_entries_per_s  {metrics['items_per_s'][0]:.3f} 1/s (median of {len(records)} calls)",
        ]
    return lines


def _declared(kind: str) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def _result_line(correct, attempted, failed, metrics, declared) -> str:
    if correct:
        missing = [n for n in declared if n not in metrics]
        if missing:
            raise RuntimeError(f"metrics declared in BENCHMARK.json but not computed: {missing}")
        values = {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in declared}
    else:
        values = {}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": values})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "glossgen", "__init__.py")):
        print(f"perfbench: {src}/glossgen not found; run from the root of a glossgen "
              "checkout", file=sys.stderr)
        return 2
    threads, nproc = _blas_threads()
    sys.path.insert(0, src)
    import glossgen
    if not os.path.realpath(glossgen.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"perfbench: imported glossgen from {glossgen.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from hooks import Tracer
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    variant = args.seed % VARIANTS
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        reference = json.load(fh)[workload.name][str(variant)]
    declared = _declared("per_layer" if args.trace else "end_to_end")
    env = _environment(args.seed, variant, threads, nproc)
    print(f"perfbench {workload.name} seed={args.seed} (variant {variant}) "
          f"trace={args.trace} seconds={args.seconds:g}")
    print("env " + json.dumps(env, sort_keys=True))

    tracer = Tracer()
    tracer.install()
    stem = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    problems: list[str] = []
    try:
        setup_times, setup_ranges, records = _measure(
            workload, variant, args.seconds, bool(args.trace), tracer, workdir)
    except Exception as exc:  # a failed operation is reported, not raised
        traceback.print_exc()
        attempted = tracer.counts.get("steps", 0) + tracer.counts.get("gen_calls", 0) + 1
        print(f"FAILED: {type(exc).__name__}: {exc}")
        print(_result_line(False, attempted, 1, {}, declared))
        return 1
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    for i, r in enumerate(records):
        problems += [f"round {i} ({r['phase']}): {p}"
                     for p in workload.check(r["round"].outputs, reference)]
        if r["counts"] != records[0]["counts"]:
            diff = {k for k in set(r["counts"]) | set(records[0]["counts"])
                    if r["counts"].get(k) != records[0]["counts"].get(k)}
            problems.append(f"round {i} ({r['phase']}): exact counts differ from "
                            f"round 0 in {sorted(diff)}")
    ops = [d for r in records for d in _op_durations(workload, r)]
    if not ops:
        problems.append(f"no {workload.op} boundaries observed; hook status {tracer.status}")
    attempted = (sum(r["counts"].get("steps", 0) for r in records) if workload.op == "step"
                 else sum(r["counts"].get("gen_calls", 0) for r in records)) or 1

    summary = {"args": vars(args), "env": env, "hooks": tracer.status,
               "problems": problems, "setup_s": setup_times,
               "round_wall_s": [r["round"].wall for r in records],
               "rounds": [r["phase"] for r in records],
               "exact_counts": dict(sorted(records[0]["counts"].items()))}
    absent = sorted(n for n, s in tracer.status.items() if s != "ok")
    if absent:
        print("hooks not installed: " + ", ".join(f"{n} ({tracer.status[n]})" for n in absent))
    if problems:
        for p in problems[:20]:
            print("CHECK FAILED: " + p)
        _write_json(stem + ".json", summary)
        print(_result_line(False, attempted, 0, {}, declared))
        return 1

    e2e = _end_to_end(workload, setup_times, records)
    for line in _report_lines(workload, setup_times, records, e2e, attempted):
        print(line)
    summary["end_to_end"] = {k: v[0] for k, v in e2e.items()}
    metrics = e2e
    if args.trace:
        layers, table = _per_layer(workload, tracer, setup_ranges, records)
        n_ops = sum(len(_op_durations(workload, r)) for r in records if r["phase"] == "traced")
        print(f"time per {workload.op} in the traced rounds ({n_ops} ops):")
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:<24} self {1000 * row['self_s'] / n_ops:9.3f} ms  "
                  f"total {1000 * row['total_s'] / n_ops:9.3f} ms  "
                  f"calls {row['calls'] / n_ops:8.2f}")
        print(f"trace overhead on {workload.op} p50: "
              f"{100 * layers['trace.overhead_frac'][0]:+.2f}%")
        summary["per_layer"] = {k: v[0] for k, v in layers.items()}
        summary["self_times"] = table
        _write_spans(stem + "-spans.jsonl", tracer.spans)
        metrics = layers
    _write_json(stem + ".json", summary)
    print(_result_line(True, attempted, 0, metrics, declared))
    return 0


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, op in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "op": op}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
