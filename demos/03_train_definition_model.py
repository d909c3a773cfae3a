"""Train a small definition model on the bundled corpus and query it."""

from glossgen.cli import asset_path
from glossgen.config import Config, DataConfig, ModelConfig, TrainConfig
from glossgen.data import build_vocab, load_corpus
from glossgen.metrics import perplexity
from glossgen.models import DefinitionModel
from glossgen.training import make_query_entry, train

entries, _ = load_corpus(asset_path("mini_corpus.jsonl"))
tokens = []
for e in entries:
    tokens.append(e.word)
    tokens.extend(e.definition)
    for ctx in e.contexts:
        tokens.extend(ctx)
vocab = build_vocab(tokens, k=400)

cfg = Config(
    model=ModelConfig(kind="single", d_w=24, d_h=16, d_s=64, d_attn=24,
                      char_on=False, contextual_on=False),
    train=TrainConfig(batch_size=8, lr=5e-3, max_epochs=600, patience=600,
                      seed=0),
    data=DataConfig(),
)

model = DefinitionModel(cfg.model, vocab, seed=cfg.train.seed)
print(f"parameters: {sum(t.data.size for t in model.params().values())}")

# memorize the whole corpus; stop once it is essentially learned
result = train(model, cfg, entries, entries, stop_ppl=1.08)
print(f"stopped after {result.epochs_run} epochs, "
      f"perplexity {perplexity(model, entries, model.tasks):.3f}")

# one word, three senses: the context sentence selects the definition
print("\n'check' against its three corpus contexts:")
for e in entries:
    if e.word != "check":
        continue
    context = " ".join(e.contexts[0])
    query = make_query_entry("check", context)
    tokens_out, _ = model.generate(query)
    print(f"  {context!r}\n    -> {' '.join(tokens_out)}")

# a query built from free text follows the same path; with 32 training
# entries an unseen context mostly falls outside the learned vocabulary,
# so treat this as plumbing rather than generalization
query = make_query_entry("check", "please check the spelling twice")
tokens_out, meta = model.generate(query)
print(f"\nfree-text query -> {' '.join(tokens_out)}")
print(f"meta: {meta}")
