"""Joint definition and usage generation with the multi-task decoders."""

from glossgen.cli import asset_path
from glossgen.config import Config, DataConfig, ModelConfig, TrainConfig
from glossgen.data import load_corpus, model_vocab
from glossgen.models import DefinitionModel, expected_param_count
from glossgen.training import make_query_entry, train

entries, _ = load_corpus(asset_path("mini_corpus.jsonl"))
vocab = model_vocab(entries, 400)


def make_cfg(kind):
    return Config(
        model=ModelConfig(kind=kind, d_w=24, d_h=16, d_s=64, d_attn=24,
                          char_on=False, contextual_on=False),
        train=TrainConfig(batch_size=8, lr=5e-3, max_epochs=600, patience=600,
                          seed=0),
        data=DataConfig(),
    )


# the single-task decoder carries one stack; the others add a second one,
# and the hierarchical kinds feed the first stack's state into the second
for kind in ("single", "parallel", "hier-du", "hier-ud"):
    cfg = make_cfg(kind)
    n = expected_param_count(cfg.model, len(vocab))
    print(f"{kind:9s} parameters: {n}")

cfg = make_cfg("parallel")
model = DefinitionModel(cfg.model, vocab, seed=cfg.train.seed)
result = train(model, cfg, entries, entries, stop_ppl=1.15)
print(f"\nparallel kind trained for {result.epochs_run} epochs, "
      f"best perplexity {result.best_ppl:.3f}")

for word in ("check", "lantern", "anchor"):
    entry = next(e for e in entries if e.word == word)
    query = make_query_entry(word, " ".join(entry.contexts[0]))
    d, _ = model.generate(query, task="definition")
    u, _ = model.generate(query, task="usage")
    print(f"\n{word}:")
    print(f"  definition: {' '.join(d)}")
    print(f"  usage:      {' '.join(u)}")
