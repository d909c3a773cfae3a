"""Gated GRU decoders, one per task, each with its own input gate.

Each step consumes a gated concatenation of step-constant conditioning
features (sense vector, char features, contextual vector) and the previous
token's embedding, and emits a distribution over the output vocabulary.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ShapeError, Tensor, add, concat, embedding_lookup, matmul, mul, sigmoid
from .config import S0_VARIANTS
from .data import SPECIALS
from .embeddings import glorot
from .encoder import GruCell


class DecoderEmbedding:
    """Previous-token embeddings: a frozen pretrained table whose special rows
    (pad/unk/bos/eos) are replaced by a small trainable table."""

    def __init__(self, frozen_matrix: np.ndarray, rng: np.random.Generator):
        self.frozen = Tensor(frozen_matrix)  # no grad, never updated
        self.dim = frozen_matrix.shape[1]
        self.specials = Tensor(rng.uniform(-0.1, 0.1, size=(len(SPECIALS), self.dim)),
                               requires_grad=True)

    def params(self) -> dict[str, Tensor]:
        return {"emb.specials": self.specials}

    def embed(self, ids) -> Tensor:
        ids = np.asarray(ids, dtype=np.intp)
        is_special = ids < len(SPECIALS)
        base = embedding_lookup(self.frozen, ids)
        spec = embedding_lookup(self.specials, np.minimum(ids, len(SPECIALS) - 1))
        keep = Tensor(np.repeat((~is_special).astype(float)[:, None], self.dim, axis=1))
        swap = Tensor(np.repeat(is_special.astype(float)[:, None], self.dim, axis=1))
        return add(mul(base, keep), mul(spec, swap))


class InitStateProjector:
    """Produce the decoder's initial hidden states from [v*; v_c].

    Variants: "both" projects the full concatenation; "word"/"context" zero
    the other half before projecting; "zeros" allocates no parameters and
    starts every layer at zero. Only layer 1 is initialized; upper layers
    always start at zero.
    """

    def __init__(self, rng: np.random.Generator, d_w: int, d_ctx: int, d_s: int,
                 n_layers: int, variant: str):
        if variant not in S0_VARIANTS:
            raise ShapeError(f"unknown s0 variant {variant!r}")
        self.d_w, self.d_ctx, self.d_s = d_w, d_ctx, d_s
        self.n_layers = n_layers
        self.variant = variant
        self._params: dict[str, Tensor] = {}
        if variant != "zeros":
            self._params["init.W_s"] = Tensor(
                glorot(rng, (d_w + d_ctx, d_s)), requires_grad=True)
            self._params["init.b_s"] = Tensor(np.zeros(d_s), requires_grad=True)

    def params(self) -> dict[str, Tensor]:
        return dict(self._params)

    def init_state(self, v_star: Tensor, v_c: Tensor) -> list[Tensor]:
        """One state per layer, each with a row per row of v* (B, d_w) and v_c (B, d_ctx)."""
        batch = v_star.shape[0]
        if v_star.shape != (batch, self.d_w) or v_c.shape != (batch, self.d_ctx):
            raise ShapeError(f"init_state: v* {v_star.shape} and v_c {v_c.shape} must be "
                             f"(B, {self.d_w}) and (B, {self.d_ctx})")
        upper = [Tensor(np.zeros((batch, self.d_s))) for _ in range(self.n_layers - 1)]
        if self.variant == "zeros":
            return [Tensor(np.zeros((batch, self.d_s)))] + upper
        if self.variant == "word":
            v_c = Tensor(np.zeros((batch, self.d_ctx)))
        elif self.variant == "context":
            v_star = Tensor(np.zeros((batch, self.d_w)))
        joint = concat([v_star, v_c], axis=1)
        s0 = add(matmul(joint, self._params["init.W_s"]), self._params["init.b_s"])
        return [s0] + upper


class GatedInputBuilder:
    """Assemble x_t = g * [a*; y_prev; c*; e*] with g = sigma(u W_g).

    The step-constant ``features`` are [a*, c*, e*] holding only the active
    components (char/contextual switched off are left out); with the gate
    switched off, x_t is the raw concatenation and no W_g parameter exists.
    """

    def __init__(self, rng: np.random.Generator, dim: int, gate_on: bool, prefix: str):
        self.dim = dim
        self.gate_on = gate_on
        self.prefix = prefix
        self._params: dict[str, Tensor] = {}
        if gate_on:
            self._params[f"{prefix}.W_g"] = Tensor(glorot(rng, (dim, dim)),
                                                   requires_grad=True)

    def params(self) -> dict[str, Tensor]:
        return dict(self._params)

    def build(self, features: list[Tensor], y_prev: Tensor) -> Tensor:
        a_star, *rest = features
        u = concat([a_star, y_prev, *rest], axis=1)
        if u.shape[1] != self.dim:
            raise ShapeError(f"gated input: assembled dim {u.shape[1]}, expected {self.dim}")
        if not self.gate_on:
            return u
        g = sigmoid(matmul(u, self._params[f"{self.prefix}.W_g"]))
        return mul(g, u)


class DecoderStack:
    """One task's decoder: its input gate (``gate``, parameters under
    "<prefix>.gate"), stacked GRU layers, and the output projection to
    vocabulary logits. The gate is drawn from ``rng`` first."""

    def __init__(self, rng: np.random.Generator, input_dim: int, d_s: int,
                 vocab_size: int, n_layers: int, gate_on: bool, prefix: str):
        self.gate = GatedInputBuilder(rng, input_dim, gate_on, f"{prefix}.gate")
        self.d_s = d_s
        self.n_layers = n_layers
        self.prefix = prefix
        self.cells = [GruCell(rng, input_dim if i == 0 else d_s, d_s,
                              f"{prefix}.gru{i}") for i in range(n_layers)]
        self._params = {
            f"{prefix}.W_d": Tensor(glorot(rng, (d_s, vocab_size)), requires_grad=True),
            f"{prefix}.b_d": Tensor(np.zeros(vocab_size), requires_grad=True),
        }

    def params(self) -> dict[str, Tensor]:
        out = self.gate.params()
        for cell in self.cells:
            out.update(cell.params())
        out.update(self._params)
        return out

    def step(self, states: list[Tensor], x: Tensor) -> list[Tensor]:
        """Run every layer over the time-major rows of ``x`` (row t*B + b, B =
        rows of each state), one layer at a time; returns each layer's states
        in x's rows. With B rows of x that is one step: the next states."""
        if len(states) != self.n_layers:
            raise ShapeError(f"{self.prefix}: expected {self.n_layers} states, got {len(states)}")
        out = []
        for cell, h in zip(self.cells, states):
            x = cell.run(h, x)
            out.append(x)
        return out

    def logits(self, h: Tensor) -> Tensor:
        """Project the top layer's state to vocabulary logits (batch, V)."""
        return add(matmul(h, self._params[f"{self.prefix}.W_d"]),
                   self._params[f"{self.prefix}.b_d"])


def sample_sequence(step_fn, init_state, bos_id: int, eos_id: int, max_len: int,
                    temperature: float, rng: np.random.Generator) -> list[int]:
    """Autoregressive temperature sampling; exact argmax below tau = 1e-6.

    Stops when the end marker is drawn or max_len tokens are emitted; the end
    marker itself is not returned.
    """
    if not temperature > 0:
        raise ValueError("sample_sequence: temperature must be positive")
    if max_len < 1:
        raise ValueError("sample_sequence: max_len must be at least 1")
    state = init_state
    prev = bos_id
    out: list[int] = []
    for _ in range(max_len):
        state, logits = step_fn(state, prev)
        z = logits.data[0]
        if temperature < 1e-6:
            tok = int(np.argmax(z))
        else:
            scaled = (z - z.max()) / temperature
            probs = np.exp(scaled)
            probs /= probs.sum()
            tok = int(rng.choice(len(probs), p=probs))
        if tok == eos_id:
            break
        out.append(tok)
        prev = tok
    return out
