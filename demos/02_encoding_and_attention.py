"""Context encoding and sense attention for one ambiguous word."""

import numpy as np

from glossgen.autodiff import (AdamState, Tape, adam_step, backward, embedding_lookup,
                               global_grad_norm, zero_grads)
from glossgen.config import ModelConfig
from glossgen.data import load_corpus, model_vocab, tokenize
from glossgen.embeddings import CharEncoder
from glossgen.models import DefinitionModel
from glossgen.cli import asset_path

entries, report = load_corpus(asset_path("mini_corpus.jsonl"))
vocab = model_vocab(entries, 400)
print(f"corpus: {len(entries)} entries, vocab {len(vocab)} tokens")

cfg = ModelConfig(kind="single", d_w=24, d_h=16, d_s=32, d_attn=24,
                  char_on=False, contextual_on=False)
model = DefinitionModel(cfg, vocab, seed=0)

# character n-gram features exist independently of the corpus
chars = CharEncoder(np.random.default_rng(0))
feat = chars.encode(["check", "bank"])
print(f"char features for 'check' and 'bank': shape {feat.data.shape}")

# the encoder runs a bidirectional recurrence over a batch of context
# sentences at once; H stacks each sentence's states, one block after another
ctxs = [tokenize("she went to the bank to deposit a check"), tokenize("check the oil")]
H, v_c, lengths = model.encoder.encode([vocab.encode(c) for c in ctxs])
print(f"encoded {lengths} tokens -> H {H.data.shape}, summaries {v_c.data.shape}")


def show_attention(word, sentence):
    toks = tokenize(sentence)
    v_star = embedding_lookup(model.embedding.frozen, vocab.encode([word]))
    H, _, lengths = model.encoder.encode([vocab.encode(toks)])
    _, weights = model.attention.attend(v_star, H, lengths)
    print(f"\nattention for {word!r} in: {sentence}")
    order = np.argsort(-weights.data.ravel())
    for i in order[:4]:
        print(f"  {weights.data.ravel()[i]:.3f}  {toks[i]}")


# train briefly so the weights reflect the data rather than initialization
senses = {e.sense_id for e in entries if e.word == "check"}
print(f"\n'check' has {len(senses)} senses in the corpus")

# adam_step clips the gradients to norm 5 through its scale, then zeroes them
state = AdamState(lr=5e-3)
zero_grads(model.params())
for step in range(150):
    with Tape() as tape:
        out = model.forward_batch(entries[:8])
        backward(tape, out.loss)
    norm = global_grad_norm(model.params())
    adam_step(model.params(), state, 5.0 / norm if norm > 5.0 else 1.0)
print(f"loss after 150 steps on 8 entries: {float(out.loss.data):.3f}")

show_attention("check", "she paid the bill with a check from her account")
show_attention("check", "please check the engine before the long drive")
