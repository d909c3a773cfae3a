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

    def run(self, h0: Tensor, x: Tensor) -> Tensor:
        """Run forward over a whole sequence given as time-major rows of x
        (row t*B + b is step t of sequence b, B = rows of h0). The inputs are
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
        states, h = [], h0
        for t in range(steps):
            h = self.advance(h, [slice_axis(p, 0, t * batch, (t + 1) * batch) for p in proj])
            states.append(h)
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
        d_w = matrix.shape[1]
        self.max_len = max_len
        self.fwd = GruCell(rng, d_w, d_h, "enc.fwd")
        self.bwd = GruCell(rng, d_w, d_h, "enc.bwd")

    def params(self) -> dict[str, Tensor]:
        out = {"enc.table": self.table}
        out.update(self.fwd.params())
        out.update(self.bwd.params())
        return out

    def encode(self, contexts) -> tuple[Tensor, Tensor, list[int]]:
        """One bidirectional pass over a batch of contexts (id lists).

        Returns (H (sum L, 2*d_h), v_c (B, 2*d_h), lengths): H holds each
        context's rows [forward state ; backward state], context after
        context; row b of v_c is the dimension-wise max over context b's rows;
        ``lengths`` are the row counts L of H's blocks.

        The contexts run as one time-major batch, each padded after its
        tokens to the longest. The backward direction runs forward over each
        context reversed, so in both directions a pad only follows a
        context's real tokens and no state that is read has seen one. One
        lookup per direction gathers the states of the real tokens, the
        backward ones flipped back into token order, so no pad row reaches H
        or its max-pool.
        """
        ids = [list(c)[: self.max_len] for c in contexts]
        if not ids or not all(ids):
            raise ShapeError("context encoder: empty context")
        lengths = [len(c) for c in ids]
        batch, steps = len(ids), max(lengths)
        grids = np.zeros((2, steps, batch), dtype=np.intp)  # a pad reads table row 0
        for b, c in enumerate(ids):
            grids[0, :len(c), b] = c
            grids[1, :len(c), b] = c[::-1]
        h0 = self.fwd.zero_state(batch)
        fwd = self.fwd.run(h0, embedding_lookup(self.table, grids[0].reshape(-1)))
        bwd = self.bwd.run(h0, embedding_lookup(self.table, grids[1].reshape(-1)))
        tokens = [(t, b, n) for b, n in enumerate(lengths) for t in range(n)]
        H = concat([embedding_lookup(fwd, [t * batch + b for t, b, _ in tokens]),
                    embedding_lookup(bwd, [(n - 1 - t) * batch + b for t, b, n in tokens])],
                   axis=1)
        ends = np.cumsum(lengths)
        v_c = concat([max_over_axis(slice_axis(H, 0, end - n, end), axis=0, keepdims=True)
                      for n, end in zip(lengths, ends)], axis=0)
        return H, v_c, lengths


class SenseAttention:
    """Scaled dot-product readout of each entry's sense from its context states.

    Q = v* W_Q (B x d), K = H W_K (sum L x d), V = H W_V (sum L x d),
    weights = softmax(Q K^T / sqrt(d) + bias), output = (weights V) W_O, a
    (B x d_w) matrix. The bias is 0 on each query's own block of H and -1e30
    elsewhere: finite, yet its weights there come out exactly 0.
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

    def attend(self, v_star: Tensor, H: Tensor, lengths) -> tuple[Tensor, Tensor]:
        """Returns (a_star (B, d_w), weights (B, sum L)) for B queries, where
        query b attends to the b-th block of ``lengths`` rows of H."""
        if v_star.shape != (len(lengths), self.d_w):
            raise ShapeError(f"attention: v* must be ({len(lengths)}, {self.d_w}), "
                             f"got {v_star.shape}")
        if H.shape != (sum(lengths), self.d_ctx) or min(lengths) < 1:
            raise ShapeError(f"attention: H must be blocks of {lengths} rows with "
                             f"{self.d_ctx} columns, got {H.shape}")
        p = self._params
        q = matmul(v_star, p["attn.W_Q"])
        k = matmul(H, p["attn.W_K"])
        v = matmul(H, p["attn.W_V"])
        scores = scale(matmul(q, k, transpose_b=True), 1.0 / np.sqrt(self.d_attn))
        block = np.repeat(np.arange(len(lengths)), lengths)
        outside = block != np.arange(len(lengths))[:, None]
        scores = add(scores, Tensor(np.where(outside, -1e30, 0.0)))
        weights = softmax(scores, axis=1)
        a_star = matmul(matmul(weights, v), p["attn.W_O"])
        return a_star, weights
