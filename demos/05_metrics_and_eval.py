"""Overlap metrics and the seen/unseen evaluation report."""

import math

from glossgen.cli import asset_path
from glossgen.config import Config, DataConfig, ModelConfig, TrainConfig
from glossgen.data import (load_corpus, model_vocab, partition_seen_unseen,
                           split_by_sense)
from glossgen.metrics import (evaluate, format_report, perplexity, rouge_l,
                              sentence_bleu)
from glossgen.models import DefinitionModel
from glossgen.training import train

cand = "the cat sat".split()
ref = "the cat sat down".split()
print(f"bleu({cand!r}, {ref!r}) = {sentence_bleu(cand, ref):.6f}")
print(f"  brevity penalty alone would give exp(1 - 4/3) = "
      f"{math.exp(1 - 4 / 3):.6f}")
print(f"rouge_l same pair = {rouge_l(cand, ref):.6f}  (expected 6/7 = "
      f"{6 / 7:.6f})")
print(f"identical sentences: bleu {sentence_bleu(ref, ref):.1f}, "
      f"rouge {rouge_l(ref, ref):.1f}")
print(f"disjoint sentences:  bleu "
      f"{sentence_bleu('a b'.split(), 'c d'.split()):.1f}")

# train a small model on the train split, report on the test split
entries, _ = load_corpus(asset_path("mini_corpus.jsonl"))
vocab = model_vocab(entries, 400)

train_set, valid_set, test_set = split_by_sense(entries, (0.7, 0.15, 0.15),
                                                seed=0)
print(f"\nsplit sizes: {len(train_set)} train, {len(valid_set)} valid, "
      f"{len(test_set)} test")

cfg = Config(
    model=ModelConfig(kind="single", d_w=24, d_h=16, d_s=48, d_attn=24,
                      char_on=False, contextual_on=False),
    train=TrainConfig(batch_size=8, lr=5e-3, max_epochs=80, patience=80,
                      seed=0),
    data=DataConfig(),
)
model = DefinitionModel(cfg.model, vocab, seed=cfg.train.seed)
result = train(model, cfg, train_set, valid_set)
print(f"trained {result.epochs_run} epochs, "
      f"valid perplexity {result.best_ppl:.3f}")

# test entries whose word appeared in training count as seen
labeled = partition_seen_unseen(train_set, test_set)
report = evaluate(model, labeled, seed=0)
print()
print(format_report(report))
print(f"test perplexity recomputed directly: "
      f"{perplexity(model, test_set):.4f}")
