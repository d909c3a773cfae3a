"""Context encoding: GRU cells, the bidirectional sentence encoder, and the
scaled dot-product attention that reads the target word's sense out of it.

Row convention throughout: activations are (batch, dim) matrices, weights are
(in, out), so every projection is x @ W + b.
"""

from __future__ import annotations

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

    A step is split in two: ``project`` computes the input halves x W + b,
    ``advance`` adds h U and applies the gates. ``run`` projects a whole
    sequence at once and advances through it.
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

    def project(self, x: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """The input halves x W + b of the three gates, for every row of x."""
        if x.shape[-1] != self.input_dim:
            raise ShapeError(f"{self.prefix}: expected input dim {self.input_dim}, "
                             f"got x {x.shape}")
        p, pre = self._params, self.prefix
        return tuple(add(matmul(x, p[f"{pre}.W_{gate}"]), p[f"{pre}.b_{gate}"])
                     for gate in ("z", "r", "h"))

    def advance(self, h_prev: Tensor, proj) -> Tensor:
        """One recurrent step from projected inputs; only h U is computed here."""
        if h_prev.shape[-1] != self.hidden_dim or proj[0].shape != h_prev.shape:
            raise ShapeError(
                f"{self.prefix}: expected hidden dim {self.hidden_dim} and matching "
                f"rows, got h {h_prev.shape} and projected x {proj[0].shape}")
        p, pre = self._params, self.prefix
        xz, xr, xh = proj
        z = sigmoid(add(xz, matmul(h_prev, p[f"{pre}.U_z"])))
        r = sigmoid(add(xr, matmul(h_prev, p[f"{pre}.U_r"])))
        cand = tanh(add(xh, matmul(mul(r, h_prev), p[f"{pre}.U_h"])))
        return add(mul(one_minus(z), h_prev), mul(z, cand))

    def run(self, h0: Tensor, x: Tensor, reverse: bool = False) -> Tensor:
        """Run over a whole sequence given as time-major rows of x (row
        t*B + b is step t of sequence b, B = rows of h0). The inputs are
        projected in one matmul per gate; returns the states in x's rows.
        A one-step call is ``advance(h0, project(x))``, with no row slicing."""
        batch = h0.shape[0]
        steps = x.shape[0] // batch
        if steps * batch != x.shape[0] or steps == 0:
            raise ShapeError(f"{self.prefix}: {x.shape[0]} input rows do not split "
                             f"into steps of {batch}")
        proj = self.project(x)
        if steps == 1:
            return self.advance(h0, proj)
        states: list[Tensor | None] = [None] * steps
        h = h0
        for t in (reversed(range(steps)) if reverse else range(steps)):
            h = self.advance(h, [slice_axis(p, 0, t * batch, (t + 1) * batch)
                                 for p in proj])
            states[t] = h
        return concat(states, axis=0)

    def zero_state(self, batch: int) -> Tensor:
        return Tensor(np.zeros((batch, self.hidden_dim)))


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

    def encode(self, token_ids) -> tuple[Tensor, Tensor]:
        """Returns (H (m, 2*d_h), v_c (1, 2*d_h)): row i of H is [forward
        state ; backward state] at token i, v_c the dimension-wise max over H."""
        ids = list(token_ids)[: self.max_len]
        if not ids:
            raise ShapeError("context encoder: empty context")
        emb = embedding_lookup(self.table, ids)  # (m, d_w)
        h0 = self.fwd.zero_state(1)
        H = concat([self.fwd.run(h0, emb), self.bwd.run(h0, emb, reverse=True)], axis=1)
        return H, max_over_axis(H, axis=0, keepdims=True)


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
