"""Wrap glossgen's public functions from outside the package.

Each hook names a layer span and one or more targets ``module:qualname``. A
function target is patched under every name that refers to it in a loaded
glossgen module, so ``from .autodiff import backward`` in ``training`` is
covered as well as ``glossgen.autodiff.backward``; a method target is patched
on its class. A target that no longer exists is reported as ``absent`` and the
run goes on without it.

The wrappers run in two modes. Untimed, they only count calls and run their
observers, which collect the exact counts (tape nodes, matmul FLOPs, padding,
generated tokens) and the op boundaries the end-to-end metrics are built from:
a step ends at the clock read on each ``adam_step`` return, and each
``generate`` call is timed. Timed, they also keep a span per call in memory:
name, start, end, parent span and the id of the step or entry it belongs to.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Hook:
    name: str                 # span name, "<module>.<layer>"
    targets: tuple            # "glossgen.module:Qualified.name" strings
    observe: object = None    # fn(tracer, arguments, result, t0, t1)
    opens: object = None      # fn(tracer, arguments) -> op id for later spans
    span: bool = True         # False: count and observe only


def _arg_with(arguments, attr):
    """First argument that has ``attr``; survives parameter renames."""
    for value in arguments.values():
        if hasattr(value, attr):
            return value
    return None


def _count_tape(tracer, arguments, result, t0, t1):
    tape = _arg_with(arguments, "nodes")
    counts = tracer.counts
    counts["tape_nodes"] += len(tape.nodes)
    for node in tape.nodes:
        counts["tape_nodes." + node.op] += 1
        if node.op == "matmul":
            a, b = node.inputs[0].data, node.inputs[1].data
            out = node.output.data.size
            inner = math.isqrt(a.size * b.size // out)
            counts["matmul_flop"] += 2 * out * inner


def _step_end(tracer, arguments, result, t0, t1):
    tracer.counts["steps"] += 1
    tracer.step_ends.append(t1)


def _record_generation(tracer, arguments, result, t0, t1):
    tokens = list(result[0])
    entry = _arg_with(arguments, "entry_id")
    task = arguments.get("task", "definition")
    tracer.counts["gen_calls"] += 1
    tracer.counts["gen_tokens"] += len(tokens)
    tracer.generations.append((entry.entry_id, task, tokens, t1 - t0))


def _count_capped(tracer, arguments, result, t0, t1):
    tracer.counts["samples"] += 1
    if len(result) >= arguments["max_len"]:
        tracer.counts["samples_capped"] += 1


def _count_padding(tracer, arguments, result, t0, t1):
    mask = result[2]
    tracer.counts["decoder_positions"] += int(mask.size)
    tracer.counts["decoder_scored"] += int(mask.sum())


def _count_save_bytes(tracer, arguments, result, t0, t1):
    path = next(v for v in arguments.values() if isinstance(v, (str, os.PathLike)))
    tracer.counts["save_bytes"] += os.path.getsize(path)


def _numbered(prefix):
    def opens(tracer, arguments):
        tracer.op_seq[prefix] += 1
        return f"{prefix}-{tracer.op_seq[prefix]}"
    return opens


def _entry_op(tracer, arguments):
    return "entry-" + _arg_with(arguments, "entry_id").entry_id


HOOKS = (
    Hook("autodiff.backward", ("glossgen.autodiff:backward",), observe=_count_tape),
    Hook("autodiff.adam", ("glossgen.autodiff:adam_step",), observe=_step_end),
    Hook("autodiff.clip", ("glossgen.autodiff:clip_global_norm",)),
    Hook("autodiff.zero_grads", ("glossgen.autodiff:zero_grads",),
         opens=_numbered("step")),
    Hook("encoder.encode", ("glossgen.encoder:ContextEncoder.encode",)),
    Hook("encoder.attend", ("glossgen.encoder:SenseAttention.attend",)),
    Hook("embeddings.char_encode", ("glossgen.embeddings:CharEncoder.encode",)),
    Hook("embeddings.contextual",
         ("glossgen.embeddings:ContextualProvider.embed_for_entry",)),
    Hook("decoder.init_state", ("glossgen.decoder:InitStateProjector.init_state",)),
    Hook("decoder.embed", ("glossgen.decoder:DecoderEmbedding.embed",)),
    Hook("decoder.gate_build", ("glossgen.decoder:GatedInputBuilder.build",)),
    Hook("decoder.stack_step", ("glossgen.decoder:DecoderStack.step",)),
    Hook("decoder.hidden_step", ("glossgen.decoder:DecoderStack.hidden_step",)),
    Hook("decoder.sample", ("glossgen.decoder:sample_sequence",),
         observe=_count_capped),
    Hook("models.init", ("glossgen.models:DefinitionModel.__init__",)),
    Hook("models.forward", ("glossgen.models:DefinitionModel.forward_batch",
                            "glossgen.models:DefinitionModel.lm_loss")),
    Hook("models.teacher_arrays", ("glossgen.models:DefinitionModel._teacher_arrays",),
         observe=_count_padding, span=False),
    Hook("models.generate", ("glossgen.models:DefinitionModel.generate",),
         observe=_record_generation, opens=_entry_op),
    Hook("training.fit", ("glossgen.training:train",
                          "glossgen.training:pretrain_decoder")),
    Hook("training.validation", ("glossgen.training:validation_ppl",),
         opens=_numbered("valid")),
    Hook("checkpoint.save", ("glossgen.checkpoint:save_checkpoint",),
         observe=_count_save_bytes),
    Hook("checkpoint.load", ("glossgen.checkpoint:load_checkpoint",)),
    Hook("data.load_corpus", ("glossgen.data:load_corpus",)),
    Hook("data.build_vocab", ("glossgen.data:build_vocab",)),
    Hook("metrics.evaluate", ("glossgen.metrics:evaluate",)),
    Hook("metrics.perplexity", ("glossgen.metrics:perplexity",),
         opens=_numbered("ppl")),
    Hook("metrics.score", ("glossgen.metrics:sentence_bleu", "glossgen.metrics:rouge_l")),
)


def _resolve(target):
    """(owner, attribute, function) for a target, or None if it is gone."""
    module_name, qualname = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = vars(owner).get(attr)
    if not inspect.isfunction(fn):
        return None
    return owner, attr, fn


class Tracer:
    """Hook state for one benchmark process.

    ``counts`` holds the exact counts of the current round and is cleared by
    ``begin_round``; ``spans`` accumulates over the whole run so that set-up
    and rounds can be sliced out of it by index.
    """

    def __init__(self):
        self.timed = False
        self.counts = Counter()
        self.step_ends: list[float] = []
        self.generations: list[tuple] = []
        self.spans: list[list] = []   # [name, start, end, parent index, op id]
        self.status: dict[str, str] = {}
        self.op_seq = Counter()
        self._stack: list[int] = []
        self._op = ""
        self._patches: list[tuple] = []

    def begin_round(self):
        self.counts = Counter()
        self.step_ends = []
        self.generations = []
        self.op_seq = Counter()
        self._op = ""

    # -- installation -------------------------------------------------------

    def install(self):
        import glossgen
        import pkgutil
        for info in pkgutil.iter_modules(glossgen.__path__):
            importlib.import_module(f"glossgen.{info.name}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "glossgen" or n.startswith("glossgen.")]
        for hook in HOOKS:
            found = 0
            for target in hook.targets:
                resolved = _resolve(target)
                if resolved is None:
                    continue
                owner, attr, fn = resolved
                wrapper = self._wrap(hook, fn)
                if inspect.isclass(owner):
                    self._patch(owner, attr, wrapper)
                else:
                    for module in modules:
                        for name, value in list(vars(module).items()):
                            if value is fn:
                                self._patch(module, name, wrapper)
                found += 1
            if found == len(hook.targets):
                self.status[hook.name] = "ok"
            else:
                self.status[hook.name] = "absent" if not found else "partial"

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, hook, fn):
        tracer = self
        key = hook.name + ".calls"
        sig = inspect.signature(fn)
        needs_args = hook.observe is not None or hook.opens is not None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[key] += 1
            timed = tracer.timed and hook.span
            if not (timed or needs_args):
                return fn(*args, **kwargs)
            arguments = None
            if needs_args:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            if timed:
                if hook.opens is not None:
                    tracer._op = hook.opens(tracer, arguments)
                index = len(tracer.spans)
                parent = tracer._stack[-1] if tracer._stack else -1
                tracer.spans.append([hook.name, 0.0, 0.0, parent, tracer._op])
                tracer._stack.append(index)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                if timed:
                    span = tracer.spans[index]
                    span[1], span[2] = t0, t1
                    tracer._stack.pop()
            if hook.observe is not None:
                try:
                    hook.observe(tracer, arguments, result, t0, t1)
                except Exception:  # a stale observer must not end the run
                    tracer.status[hook.name] = "observer failed: " + \
                        traceback.format_exc(limit=1).strip().splitlines()[-1]
            return result

        return wrapper


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans, own, lo: int, hi: int) -> dict:
    """Per span name over spans[lo:hi]: calls, total and self seconds.

    ``own`` is ``self_times(spans)``.
    """
    table: dict[str, list] = {}
    for i in range(lo, hi):
        name, start, end = spans[i][0], spans[i][1], spans[i][2]
        row = table.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += own[i]
    return {name: {"calls": c, "total_s": t, "self_s": s}
            for name, (c, t, s) in sorted(table.items())}
