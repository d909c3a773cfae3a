"""Context encoding: GRU cells, the bidirectional sentence encoder, and the
scaled dot-product attention that reads the target word's sense out of it.

Row convention throughout: activations are (batch, dim) matrices, weights are
(in, out), so every projection is x @ W + b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeError, Tensor, add, concat, embedding_lookup, matmul, max_over_axis, mul, one_minus, scale, sigmoid, slice_axis, softmax, tanh
from .embeddings import glorot


class GruCell:
    """Gated recurrent cell.

    z = sigma(x W_z + h U_z + b_z)
    r = sigma(x W_r + h U_r + b_r)
    cand = tanh(x W_h + (r * h) U_h + b_h)
    h_new = (1 - z) * h + z * cand

    With all-zero parameters and h = v this gives h_new = 0.5 v (z = 0.5,
    cand = 0), which pins the convention: the update gate scales the candidate.
    """

    def __init__(self, rng: np.random.Generator, input_dim: int, hidden_dim: int,
                 prefix: str):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.prefix = prefix
        p: dict[str, Tensor] = {}
        for gate in ("z", "r", "h"):
            p[f"{prefix}.W_{gate}"] = Tensor(glorot(rng, (input_dim, hidden_dim)),
                                             requires_grad=True)
            p[f"{prefix}.U_{gate}"] = Tensor(glorot(rng, (hidden_dim, hidden_dim)),
                                             requires_grad=True)
            p[f"{prefix}.b_{gate}"] = Tensor(np.zeros(hidden_dim), requires_grad=True)
        self._params = p

    def params(self) -> dict[str, Tensor]:
        return dict(self._params)

    def step(self, h_prev: Tensor, x: Tensor) -> Tensor:
        if x.shape[-1] != self.input_dim or h_prev.shape[-1] != self.hidden_dim:
            raise ShapeError(
                f"{self.prefix}: expected input dim {self.input_dim} and hidden dim "
                f"{self.hidden_dim}, got x {x.shape} and h {h_prev.shape}")
        p, pre = self._params, self.prefix
        z = sigmoid(add(add(matmul(x, p[f"{pre}.W_z"]), matmul(h_prev, p[f"{pre}.U_z"])),
                        p[f"{pre}.b_z"]))
        r = sigmoid(add(add(matmul(x, p[f"{pre}.W_r"]), matmul(h_prev, p[f"{pre}.U_r"])),
                        p[f"{pre}.b_r"]))
        cand = tanh(add(add(matmul(x, p[f"{pre}.W_h"]),
                            matmul(mul(r, h_prev), p[f"{pre}.U_h"])),
                        p[f"{pre}.b_h"]))
        return add(mul(one_minus(z), h_prev), mul(z, cand))

    def zero_state(self, batch: int) -> Tensor:
        return Tensor(np.zeros((batch, self.hidden_dim)))


@dataclass
class EncodedContext:
    H: Tensor    # (m, 2*d_h), row i = [forward state ; backward state]
    v_c: Tensor  # (1, 2*d_h), dimension-wise max over H rows


class ContextEncoder:
    """Bidirectional GRU over the encoder's own trainable embedding table.

    Contexts longer than ``max_len`` tokens are truncated.
    """

    def __init__(self, rng: np.random.Generator, matrix: np.ndarray, d_h: int,
                 max_len: int = 64):
        self.table = Tensor(matrix, requires_grad=True)  # (V, d_w)
        self.d_w = matrix.shape[1]
        self.d_h = d_h
        self.max_len = max_len
        self.fwd = GruCell(rng, self.d_w, d_h, "enc.fwd")
        self.bwd = GruCell(rng, self.d_w, d_h, "enc.bwd")

    def params(self) -> dict[str, Tensor]:
        out = {"enc.table": self.table}
        out.update(self.fwd.params())
        out.update(self.bwd.params())
        return out

    def encode(self, token_ids) -> EncodedContext:
        ids = list(token_ids)[: self.max_len]
        if not ids:
            raise ShapeError("context encoder: empty context")
        emb = embedding_lookup(self.table, ids)  # (m, d_w)
        m = len(ids)
        xs = [slice_axis(emb, 0, t, t + 1) for t in range(m)]
        h = self.fwd.zero_state(1)
        fwd_states = []
        for t in range(m):
            h = self.fwd.step(h, xs[t])
            fwd_states.append(h)
        h = self.bwd.zero_state(1)
        bwd_states: list[Tensor | None] = [None] * m
        for t in reversed(range(m)):
            h = self.bwd.step(h, xs[t])
            bwd_states[t] = h
        rows = [concat([fwd_states[t], bwd_states[t]], axis=1) for t in range(m)]
        H = rows[0] if m == 1 else concat(rows, axis=0)
        v_c = max_over_axis(H, axis=0, keepdims=True)
        return EncodedContext(H=H, v_c=v_c)


class SenseAttention:
    """Scaled dot-product readout of the target sense from the context states.

    Q = v* W_Q (1 x d), K = H W_K (m x d), V = H W_V (m x d),
    weights = softmax(Q K^T / sqrt(d)), output = (weights V) W_O, a (1 x d_w) row.
    """

    def __init__(self, rng: np.random.Generator, d_w: int, d_ctx: int, d_attn: int):
        self.d_w = d_w
        self.d_ctx = d_ctx
        self.d_attn = d_attn
        self._params = {
            "attn.W_Q": Tensor(glorot(rng, (d_w, d_attn)), requires_grad=True),
            "attn.W_K": Tensor(glorot(rng, (d_ctx, d_attn)), requires_grad=True),
            "attn.W_V": Tensor(glorot(rng, (d_ctx, d_attn)), requires_grad=True),
            "attn.W_O": Tensor(glorot(rng, (d_attn, d_w)), requires_grad=True),
        }

    def params(self) -> dict[str, Tensor]:
        return dict(self._params)

    def attend(self, v_star: Tensor, H: Tensor) -> tuple[Tensor, Tensor]:
        """Returns (a_star (1, d_w), weights (1, m))."""
        if v_star.shape != (1, self.d_w):
            raise ShapeError(f"attention: v* must be (1, {self.d_w}), got {v_star.shape}")
        if H.shape[-1] != self.d_ctx:
            raise ShapeError(f"attention: H must have {self.d_ctx} columns, got {H.shape}")
        p = self._params
        q = matmul(v_star, p["attn.W_Q"])
        k = matmul(H, p["attn.W_K"])
        v = matmul(H, p["attn.W_V"])
        scores = scale(matmul(q, k, transpose_b=True), 1.0 / np.sqrt(self.d_attn))
        weights = softmax(scores, axis=1)
        a_star = matmul(matmul(weights, v), p["attn.W_O"])
        return a_star, weights
