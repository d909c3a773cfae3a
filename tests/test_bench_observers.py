"""Every benchmark hook observer must read what the library hands it.

The tracer catches an observer's error, marks the hook "observer failed" and
lets the run go on, so a refactor that changes what an observer reads (a
return value's layout, an argument's name) would surface only as a wrong
benchmark number. This runs each observed path once at micro dimensions with
the tracer installed and checks that every observer ran and counted.
"""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

from glossgen import checkpoint, data, metrics, training
from glossgen.cli import asset_path
from glossgen.config import default_config
from glossgen.models import DefinitionModel

HOOKS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "hooks.py"


def load_hooks(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_hooks", HOOKS_PATH)
    hooks = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, hooks)  # dataclasses look it up
    spec.loader.exec_module(hooks)
    return hooks


def micro_config(kind):
    cfg = default_config()
    return replace(cfg,
                   model=replace(cfg.model, kind=kind, d_w=8, d_h=4, d_s=8, d_attn=8,
                                 d_e=8, max_gen_len=8),
                   train=replace(cfg.train, batch_size=8, max_epochs=1,
                                 pretrain_epochs=1))


def test_observers_read_the_library(monkeypatch, tmp_path):
    hooks = load_hooks(monkeypatch)
    entries, _ = data.load_corpus(asset_path("mini_corpus.jsonl"))
    cfg = micro_config("hier-du")
    vocab = data.model_vocab(entries, cfg.data.vocab_size)
    train_set, valid_set, _ = data.split_by_sense(entries, cfg.data.split_ratios, 0)
    path = tmp_path / "model.npz"
    tracer = hooks.Tracer()
    tracer.install()
    try:
        training.train(DefinitionModel(cfg.model, vocab, seed=0), cfg, train_set,
                       valid_set, checkpoint_path=path)
        lm_cfg = micro_config("single")
        training.pretrain_decoder(
            DefinitionModel(lm_cfg.model, vocab, seed=0), lm_cfg,
            training.load_lm_sentences(asset_path("lm_corpus.txt"), vocab))
        model, _, _ = checkpoint.load_checkpoint(path)
        metrics.evaluate(model, data.partition_seen_unseen(train_set, entries[:3]))
    finally:
        tracer.uninstall()
    failed = {name: status for name, status in tracer.status.items()
              if status.startswith("observer failed")}
    assert failed == {}
    for key in ("steps", "tape_nodes", "gen_calls", "samples", "decoder_positions",
                "save_bytes"):
        assert tracer.counts[key] > 0, key


def test_pad_counts_are_exact(monkeypatch):
    """One teacher-forced batch: each task pads every sequence to the
    longest plus its end marker, and scores each sequence's own tokens and
    its end marker."""
    hooks = load_hooks(monkeypatch)
    entries, _ = data.load_corpus(asset_path("mini_corpus.jsonl"))
    batch = entries[:5]
    cfg = micro_config("hier-du")
    model = DefinitionModel(cfg.model, data.model_vocab(entries, cfg.data.vocab_size), seed=0)
    lengths = [[len(e.definition) for e in batch], [len(e.usage) for e in batch]]
    assert all(len(set(task)) > 1 for task in lengths)  # each task pads
    tracer = hooks.Tracer()
    tracer.install()
    try:
        model.forward_batch(batch)
    finally:
        tracer.uninstall()
    assert tracer.counts["decoder_positions"] == sum(len(task) * (max(task) + 1)
                                                     for task in lengths)
    assert tracer.counts["decoder_scored"] == sum(n + 1 for task in lengths for n in task)
