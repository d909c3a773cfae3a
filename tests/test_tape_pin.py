"""Pin the shape of one training step's tape for every model kind.

One forward and backward pass at a micro config with char and contextual
features on. Per-op node counts are exact and deterministic, so a refactor or
a hoisting change that alters the computation shows here without any timing.
The loss and the global gradient norm are pinned to 1e-9 relative.
"""

from collections import Counter

import pytest

from glossgen.autodiff import Tape, backward, global_grad_norm, zero_grads
from glossgen.config import ModelConfig
from glossgen.data import DictionaryEntry, Vocabulary
from glossgen.models import DefinitionModel

WORDS = ["check", "run", "walk", "cat", "dog", "sun", "tree", "bird"]


def entry(eid, word, definition, context, usage):
    return DictionaryEntry(entry_id=eid, word=word, pos="n", sense_id=eid,
                           definition=definition, contexts=[context],
                           context_target_indices=[context.index(word)],
                           usage=usage, usage_target_index=None)


ENTRIES = [
    entry("e1", "check", ["a", "small", "mark"], ["the", "check", "is", "here"],
          ["the", "check", "works"]),
    entry("e2", "dog", ["an", "animal"], ["a", "dog", "runs"],
          ["my", "dog", "sleeps", "all", "day"]),
]

# case -> (per-op node counts, loss, global gradient norm)
PINNED = {
    "single": (
        {"add": 109, "concat": 16, "conv1d": 5, "cross-entropy-from-logits": 1,
         "elementwise-mul": 36, "embedding-lookup": 6, "matmul": 74,
         "max-over-axis": 12, "scale": 17, "sigmoid": 35, "slice": 60, "softmax": 1,
         "tanh": 23},
        2.510736984501566, 0.8400259974690731),
    "parallel": (
        {"add": 178, "concat": 21, "conv1d": 5, "cross-entropy-from-logits": 2,
         "elementwise-mul": 62, "embedding-lookup": 7, "matmul": 119,
         "max-over-axis": 12, "scale": 29, "sigmoid": 60, "slice": 96, "softmax": 1,
         "tanh": 35},
        4.984729642398024, 1.4054293146339396),
    "hier-du": (
        {"add": 244, "concat": 24, "conv1d": 5, "cross-entropy-from-logits": 2,
         "elementwise-mul": 86, "embedding-lookup": 7, "matmul": 162,
         "max-over-axis": 12, "scale": 40, "sigmoid": 84, "slice": 132, "softmax": 1,
         "tanh": 47},
        4.966689106472574, 1.4494798366750745),
    "hier-ud": (
        {"add": 224, "concat": 24, "conv1d": 5, "cross-entropy-from-logits": 2,
         "elementwise-mul": 78, "embedding-lookup": 7, "matmul": 150,
         "max-over-axis": 12, "scale": 36, "sigmoid": 76, "slice": 120, "softmax": 1,
         "tanh": 43},
        4.9667050578043135, 1.41138437614936),
    "lm_loss": (
        {"add": 48, "concat": 3, "cross-entropy-from-logits": 1,
         "elementwise-mul": 18, "embedding-lookup": 1, "matmul": 33, "scale": 7,
         "sigmoid": 17, "slice": 24, "tanh": 8},
        2.486108994755765, 0.4629195400911051),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_tape_shape_loss_and_grad_norm(case):
    kind = "single" if case == "lm_loss" else case
    cfg = ModelConfig(kind=kind, d_w=8, d_h=4, d_s=8, d_attn=8, d_e=8,
                      max_gen_len=8, char_on=True, contextual_on=True)
    model = DefinitionModel(cfg, Vocabulary(WORDS), seed=7)
    params = model.pretrainable_params() if case == "lm_loss" else model.params()
    zero_grads(params)
    with Tape() as tape:
        if case == "lm_loss":
            loss = model.lm_loss([[4, 5, 6], [7, 8]]).loss
        else:
            loss = model.forward_batch(ENTRIES).loss
        backward(tape, loss)
    counts, want_loss, want_norm = PINNED[case]
    assert dict(Counter(node.op for node in tape.nodes)) == counts
    assert float(loss.data) == pytest.approx(want_loss, rel=1e-9, abs=0)
    assert global_grad_norm(params) == pytest.approx(want_norm, rel=1e-9, abs=0)
