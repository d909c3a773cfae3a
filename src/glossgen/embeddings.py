"""Word-, character-, and context-level representations of the target word.

Three sources feed the decoder: a fixed pretrained vector for the word, a
character convolution over its spelling, and a per-occurrence contextual
vector. The first is frozen; the char encoder is trainable; the contextual
vector is always a constant feature.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, add, concat, conv1d, embedding_lookup, matmul, max_over_axis, mul, one_minus, sigmoid, slice_axis, tanh
from .data import SPECIALS, stable_seed

CHAR_EMB_DIM = 20
CONV_WIDTHS = (2, 3, 4, 5, 6)
CONV_COUNTS = (10, 30, 40, 40, 40)
CHAR_FEATURE_DIM = sum(CONV_COUNTS)  # 160
HIGHWAY_LAYERS = 2

# Fixed character inventory: boundary=0, unknown=1, then the alphabet.
CHARS = ["\x00", "\x01"] + list("abcdefghijklmnopqrstuvwxyz")
CHAR_IDS = {c: i for i, c in enumerate(CHARS)}
BOUNDARY_CHAR_ID = 0
UNK_CHAR_ID = 1


class EmbeddingError(Exception):
    pass


def glorot(rng: np.random.Generator, shape) -> np.ndarray:
    fan_in, fan_out = (shape[0], shape[-1]) if len(shape) > 1 else (shape[0], shape[0])
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


def _read_vectors(path, dim: int) -> dict[str, np.ndarray]:
    """Records of a "key v1 .. vd" text file, by key (a later record wins).

    Every record holds ``dim`` finite values, the width the caller's model
    reads. A first line of two whole numbers is a "count dim" header and is
    skipped, unless records are one value wide. Raises EmbeddingError naming
    ``path:line`` for a bad record.
    """
    vectors: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts or (line_no == 1 and len(parts) == 2 and dim != 1
                             and all(p.isdecimal() for p in parts)):
                continue
            values = parts[1:]
            if len(values) != dim:
                raise EmbeddingError(
                    f"{path}:{line_no}: expected {dim} values, got {len(values)}")
            try:
                vector = np.array([float(v) for v in values])
            except ValueError:
                raise EmbeddingError(f"{path}:{line_no}: values must be numbers") from None
            if not np.isfinite(vector).all():
                raise EmbeddingError(f"{path}:{line_no}: values must be finite")
            vectors[parts[0]] = vector
    if not vectors:
        raise EmbeddingError(f"{path}: empty vector file (no records)")
    return vectors


def load_word_embeddings(path, vocab, seed: int, dim: int):
    """Read a vector file of ``dim``-wide records into a (V, dim) matrix
    aligned with ``vocab``.

    Tokens absent from the file (and the three non-pad specials) get rows
    drawn uniform(-0.1, 0.1) from ``seed``; the pad row is zero. Returns
    (matrix, coverage) where coverage is the found fraction of non-special
    vocabulary tokens.
    """
    vectors = _read_vectors(path, dim)
    rng = np.random.default_rng(seed)
    matrix = np.zeros((len(vocab), dim))
    found = 0
    for i, token in enumerate(vocab.id_to_token):
        if token in vectors:
            matrix[i] = vectors[token]
            if i >= len(SPECIALS):
                found += 1
        elif i != vocab.pad_id:
            matrix[i] = rng.uniform(-0.1, 0.1, size=dim)
    n_real = len(vocab) - len(SPECIALS)
    coverage = found / n_real if n_real else 1.0
    return matrix, coverage


class CharEncoder:
    """Char-CNN word features: widths 2..6, tanh, max-over-time, 2 highway layers.

    Output is one 160-wide row per word, deterministic per word given the
    parameters.
    """

    def __init__(self, rng: np.random.Generator):
        p: dict[str, Tensor] = {}
        p["char.table"] = Tensor(rng.uniform(-0.1, 0.1, size=(len(CHARS), CHAR_EMB_DIM)),
                                 requires_grad=True)
        for w, n in zip(CONV_WIDTHS, CONV_COUNTS):
            p[f"char.conv{w}.kernel"] = Tensor(glorot(rng, (w, CHAR_EMB_DIM, n)),
                                               requires_grad=True)
            p[f"char.conv{w}.bias"] = Tensor(np.zeros(n), requires_grad=True)
        for layer in range(HIGHWAY_LAYERS):
            p[f"char.hw{layer}.W_T"] = Tensor(glorot(rng, (CHAR_FEATURE_DIM, CHAR_FEATURE_DIM)),
                                              requires_grad=True)
            p[f"char.hw{layer}.b_T"] = Tensor(np.zeros(CHAR_FEATURE_DIM), requires_grad=True)
            p[f"char.hw{layer}.W_H"] = Tensor(glorot(rng, (CHAR_FEATURE_DIM, CHAR_FEATURE_DIM)),
                                              requires_grad=True)
            p[f"char.hw{layer}.b_H"] = Tensor(np.zeros(CHAR_FEATURE_DIM), requires_grad=True)
        self._params = p

    def params(self) -> dict[str, Tensor]:
        return dict(self._params)

    def encode(self, words) -> Tensor:
        """Features of a batch of words, a (len(words), 160) matrix.

        Each word is one row (Kim et al. 2016): every word is padded with the
        boundary char to the longest, and to at least the widest filter, and
        all of them run through each convolution as one sequence, word after
        word. A word's max-over-time reads only the windows within its first
        max(len, 6) chars, the padding it would get alone, so its features do
        not depend on the rest of the batch.
        """
        words = list(words)
        if not words or not all(words):
            raise EmbeddingError("char encoder: empty word")
        spans = [max(len(w), max(CONV_WIDTHS)) for w in words]
        width = max(spans)
        ids = np.full((len(words), width), BOUNDARY_CHAR_ID, dtype=np.intp)
        for i, w in enumerate(words):
            ids[i, :len(w)] = [CHAR_IDS.get(c, UNK_CHAR_ID) for c in w]
        p = self._params
        emb = embedding_lookup(p["char.table"], ids.reshape(-1))  # (words*width, 20)
        pieces = []
        for w in CONV_WIDTHS:
            feat = conv1d(emb, p[f"char.conv{w}.kernel"])
            feat = tanh(add(feat, p[f"char.conv{w}.bias"]))
            pieces.append(concat([max_over_axis(slice_axis(feat, 0, i * width,
                                                           i * width + span - w + 1),
                                                axis=0, keepdims=True)
                                  for i, span in enumerate(spans)], axis=0))  # (words, n_w)
        x = concat(pieces, axis=1)  # (words, 160)
        for layer in range(HIGHWAY_LAYERS):
            t = sigmoid(add(matmul(x, p[f"char.hw{layer}.W_T"]), p[f"char.hw{layer}.b_T"]))
            g = tanh(add(matmul(x, p[f"char.hw{layer}.W_H"]), p[f"char.hw{layer}.b_H"]))
            x = add(mul(t, g), mul(one_minus(t), x))
        return x


class ContextualProvider:
    """Per-occurrence vector for the target word, dimension d_e, constant.

    Without a table it is "deterministic-test": a unit vector from a stable
    hash of (target token, previous token, next token) in the entry's first
    context, or of the word alone when that context has no resolved
    occurrence. With a table it is "file-backed": a precomputed vector by
    entry id, failing on absent keys.
    """

    def __init__(self, dim: int, seed: int = 0, table: dict | None = None):
        self.dim = dim
        self.seed = seed
        self.table = table
        # recorded in checkpoint headers as "contextual_kind"
        self.kind = "deterministic-test" if table is None else "file-backed"

    def embed_for_entry(self, entry) -> np.ndarray:
        if self.table is not None:
            if entry.entry_id not in self.table:
                raise EmbeddingError(
                    f"no precomputed contextual vector for entry {entry.entry_id!r}")
            return self.table[entry.entry_id]
        context, idx = entry.contexts[0], entry.context_target_indices[0]
        if idx is None:
            target, prev, nxt = entry.word, "", ""
        elif not 0 <= idx < len(context):
            raise EmbeddingError(
                f"target index {idx} out of range for context of length {len(context)}")
        else:
            target = context[idx]
            prev = context[idx - 1] if idx > 0 else ""
            nxt = context[idx + 1] if idx + 1 < len(context) else ""
        rng = np.random.default_rng(stable_seed(self.seed, target, prev, nxt))
        v = rng.normal(size=self.dim)
        return v / np.linalg.norm(v)


def load_contextual_file(path, dim: int) -> ContextualProvider:
    """A file-backed provider from a vector file keyed by entry id."""
    return ContextualProvider(dim, table=_read_vectors(path, dim))
