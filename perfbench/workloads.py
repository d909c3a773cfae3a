"""The benchmark's three workloads: set-up, one timed round, and its checks.

All of them use the default ``ModelConfig`` dimensions (d_w 300, d_s 300,
char, contextual and gate on) on the corpora bundled with the package. The
workload seed sets model init, shuffle order, split and generation seeds.

- ``train-hier``: ``training.train`` on a ``hier-du`` model, batch 8, on the
  sense split of the bundled corpus (25 train / 3 valid) for one epoch per
  round, with a log and a checkpoint written to the work directory. The only
  workload that runs every training layer: batch-1 conditioning per entry,
  both decoder stacks plus the hierarchical re-run, backward, Adam on 16.3M
  parameters, validation and a checkpoint write.
- ``pretrain-lm``: ``training.pretrain_decoder`` on a ``single`` model, batch
  32, on the 70-sentence LM corpus. Conditioning is all zeros, so encoder,
  attention, char encoder, contextual provider, init projection, validation
  and checkpointing do no work; changes there should not move it.
- ``eval-generate``: ``metrics.evaluate`` on a ``hier-du`` model that set-up
  saves and reloads through ``checkpoint``, over all 32 entries labeled
  seen/unseen. Forward only. ``max_len`` is the longest reference definition,
  not the 32-token cap: an untrained model never emits the end marker, and at
  the cap decoding would hide the conditioning cost.

Every round of a workload starts from the same parameters, so it repeats the
same computation; its outputs are compared with references stored per seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from importlib import resources
from time import perf_counter

from glossgen import checkpoint, data, metrics, models, training
from glossgen.config import default_config

TRAIN_EPOCHS = 1        # per train-hier round
PRETRAIN_EPOCHS = 2     # per pretrain-lm round
LOSS_RTOL = 1e-9


@dataclass
class Round:
    start: float     # perf_counter just before the library call
    wall: float      # seconds in the library call
    items: int       # entries (or sentences) the call processed
    tokens: int      # training: scored target tokens, end marker included
    outputs: dict    # what the correctness gate compares


def _asset(name: str) -> str:
    return str(resources.files("glossgen").joinpath("assets").joinpath(name))


def _config(kind: str, seed: int, **train):
    cfg = default_config()
    return replace(cfg, model=replace(cfg.model, kind=kind),
                   train=replace(cfg.train, seed=seed, **train))


def _corpus_and_vocab(cfg):
    entries, _ = data.load_corpus(_asset("mini_corpus.jsonl"))
    # Same stream the CLI builds: the decoder must emit function words too.
    stream = [t for e in entries
              for seq in ([e.definition] + e.contexts + [e.usage or []])
              for t in seq]
    return entries, data.build_vocab(stream, cfg.data.vocab_size)


def _read_log(path) -> tuple[list[float], list[float]]:
    losses, ppls = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if "step" in record:
                losses.append(record["loss"])
            if "valid_ppl" in record:
                ppls.append(record["valid_ppl"])
    return losses, ppls


def _close(name, got, want) -> list[str]:
    if len(got) != len(want):
        return [f"{name}: {len(got)} values, reference has {len(want)}"]
    return [f"{name}[{i}] = {g!r}, reference {w!r}"
            for i, (g, w) in enumerate(zip(got, want))
            if not abs(g - w) <= LOSS_RTOL * abs(w)]


class _Fit:
    """Shared by the two training workloads: restore, fit, read the log."""

    def prepare(self, state):
        state["model"].load_state_arrays(state["initial"])

    def check(self, outputs, reference) -> list[str]:
        problems = _close("loss", outputs["losses"], reference["losses"])
        problems += _close("valid_ppl", outputs["valid_ppl"], reference["valid_ppl"])
        return problems


class TrainHier(_Fit):
    name = "train-hier"
    op = "step"

    def setup(self, seed: int, workdir: str) -> dict:
        cfg = _config("hier-du", seed, batch_size=8, max_epochs=TRAIN_EPOCHS,
                      patience=TRAIN_EPOCHS)
        entries, vocab = _corpus_and_vocab(cfg)
        train_set, valid_set, _ = data.split_by_sense(entries, cfg.data.split_ratios, seed)
        model = models.DefinitionModel(cfg.model, vocab, seed=seed)
        initial = {k: v.copy() for k, v in model.state_arrays().items()}
        state = {"cfg": cfg, "model": model, "initial": initial,
                 "train": train_set, "valid": valid_set,
                 "ckpt": os.path.join(workdir, "train-hier.npz"),
                 "log": os.path.join(workdir, "train-hier.jsonl")}
        warm = replace(cfg, train=replace(cfg.train, max_epochs=1))
        training.train(model, warm, train_set[:cfg.train.batch_size], valid_set,
                       checkpoint_path=state["ckpt"])
        return state

    def run(self, state, tracer) -> Round:
        cfg = state["cfg"]
        start = perf_counter()
        training.train(state["model"], cfg, state["train"], state["valid"],
                       checkpoint_path=state["ckpt"], log_path=state["log"])
        wall = perf_counter() - start
        losses, ppls = _read_log(state["log"])
        tokens = sum(len(e.definition) + len(e.usage) + 2 for e in state["train"])
        return Round(start, wall, len(state["train"]) * cfg.train.max_epochs,
                     tokens * cfg.train.max_epochs,
                     {"losses": losses, "valid_ppl": ppls})


class PretrainLm(_Fit):
    name = "pretrain-lm"
    op = "step"

    def setup(self, seed: int, workdir: str) -> dict:
        cfg = _config("single", seed, batch_size=32, pretrain_epochs=PRETRAIN_EPOCHS)
        _, vocab = _corpus_and_vocab(cfg)
        sentences = training.load_lm_sentences(_asset("lm_corpus.txt"), vocab)
        model = models.DefinitionModel(cfg.model, vocab, seed=seed)
        initial = {k: v.copy() for k, v in model.state_arrays().items()}
        state = {"cfg": cfg, "model": model, "initial": initial,
                 "sentences": sentences,
                 "log": os.path.join(workdir, "pretrain-lm.jsonl")}
        warm = replace(cfg, train=replace(cfg.train, pretrain_epochs=1))
        training.pretrain_decoder(model, warm, sentences[:cfg.train.batch_size])
        return state

    def run(self, state, tracer) -> Round:
        cfg = state["cfg"]
        start = perf_counter()
        training.pretrain_decoder(state["model"], cfg, state["sentences"],
                                  log_path=state["log"])
        wall = perf_counter() - start
        losses, _ = _read_log(state["log"])
        epochs = cfg.train.pretrain_epochs
        tokens = sum(len(s) + 1 for s in state["sentences"])
        return Round(start, wall, len(state["sentences"]) * epochs, tokens * epochs,
                     {"losses": losses, "valid_ppl": []})


class EvalGenerate:
    name = "eval-generate"
    op = "entry"

    def setup(self, seed: int, workdir: str) -> dict:
        cfg = _config("hier-du", seed)
        entries, vocab = _corpus_and_vocab(cfg)
        train_set, _, _ = data.split_by_sense(entries, cfg.data.split_ratios, seed)
        path = os.path.join(workdir, "eval-generate.npz")
        checkpoint.save_checkpoint(path, models.DefinitionModel(cfg.model, vocab, seed=seed),
                                   cfg)
        model, _, _ = checkpoint.load_checkpoint(path)
        state = {"model": model, "seed": seed,
                 "labeled": data.partition_seen_unseen(train_set, entries),
                 "max_len": max(len(e.definition) for e in entries)}
        metrics.evaluate(model, state["labeled"][:4], seed=seed, max_len=state["max_len"])
        return state

    def prepare(self, state):
        pass

    def run(self, state, tracer) -> Round:
        start = perf_counter()
        report = metrics.evaluate(state["model"], state["labeled"], seed=state["seed"],
                                  max_len=state["max_len"])
        wall = perf_counter() - start
        hypotheses: dict[str, dict] = {}
        for entry_id, task, tokens, _ in tracer.generations:
            hypotheses.setdefault(entry_id, {})[task] = tokens
        scores = [report.bleu, report.rouge, report.seen.bleu, report.seen.rouge,
                  report.unseen.bleu, report.unseen.rouge]
        tokens = sum(len(g[2]) for g in tracer.generations)
        return Round(start, wall, report.entries, tokens,
                     {"hypotheses": hypotheses, "ppl": report.ppl, "scores": scores})

    def check(self, outputs, reference) -> list[str]:
        problems = _close("ppl", [outputs["ppl"]], [reference["ppl"]])
        problems += [f"BLEU/ROUGE-L score {s!r} outside [0, 1]"
                     for s in outputs["scores"] if not 0.0 <= s <= 1.0]
        got, want = outputs["hypotheses"], reference["hypotheses"]
        if sorted(got) != sorted(want):
            problems.append(f"hypotheses for {len(got)} entries, reference has {len(want)}")
        for entry_id, tasks in sorted(want.items()):
            if got.get(entry_id) != tasks:
                problems.append(f"entry {entry_id}: hypotheses {got.get(entry_id)} "
                                f"differ from reference {tasks}")
        return problems


WORKLOADS = {w.name: w for w in (TrainHier(), PretrainLm(), EvalGenerate())}
