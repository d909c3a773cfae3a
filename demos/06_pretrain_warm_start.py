"""Decoder language-model pretraining as a warm start for definition training."""

import os
import tempfile

from glossgen.checkpoint import load_pretrained
from glossgen.cli import asset_path
from glossgen.config import Config, DataConfig, ModelConfig, TrainConfig
from glossgen.data import load_corpus, model_vocab
from glossgen.models import DefinitionModel
from glossgen.training import load_lm_sentences, pretrain_decoder, train

entries, _ = load_corpus(asset_path("mini_corpus.jsonl"))
vocab = model_vocab(entries, 400)

cfg = Config(
    model=ModelConfig(kind="single", d_w=24, d_h=16, d_s=64, d_attn=24,
                      char_on=False, contextual_on=False),
    train=TrainConfig(batch_size=8, lr=5e-3, max_epochs=5, patience=99,
                      seed=0, pretrain_epochs=8),
    data=DataConfig(),
)

sentences = load_lm_sentences(asset_path("lm_corpus.txt"), vocab)
print(f"language-model corpus: {len(sentences)} sentences")

# fit the decoder branch alone as a language model over raw sentences
donor = DefinitionModel(cfg.model, vocab, seed=cfg.train.seed)
with tempfile.TemporaryDirectory() as tmp:
    lm_path = os.path.join(tmp, "decoder_lm.npz")
    history = pretrain_decoder(donor, cfg, sentences, out_path=lm_path)
    print(f"pretraining loss: {history[0]['mean_train_loss']:.3f} -> "
          f"{history[-1]['mean_train_loss']:.3f}")

    # same short budget, cold initialization versus the warmed decoder
    cold = DefinitionModel(cfg.model, vocab, seed=cfg.train.seed)
    cold_result = train(cold, cfg, entries, entries)

    warm = DefinitionModel(cfg.model, vocab, seed=cfg.train.seed)
    loaded = load_pretrained(lm_path, warm)
    print(f"warm start restored {len(loaded)} decoder arrays")
    warm_result = train(warm, cfg, entries, entries)

print(f"\nafter {cfg.train.max_epochs} epochs:")
print(f"  cold perplexity {cold_result.history[-1]['valid_ppl']:.2f}")
print(f"  warm perplexity {warm_result.history[-1]['valid_ppl']:.2f}")
