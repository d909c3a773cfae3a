"""Model assembly: wire embeddings, encoder, attention, and decoders into the
four trainable variants.

Kinds, each stated once in ``config.KINDS`` as its tasks and whether it is
hierarchical: "single" (definition only), "parallel" (independent definition
and usage decoders over shared conditioning), "hier-du" (definition decoder at
the bottom, usage decoder stacked on its re-run states), "hier-ud" (mirror).
All variants share the conditioning stack: encoder, attention, char encoder,
contextual provider, both embedding tables, and the initial-state projection.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeError, Tensor, add, concat, cross_entropy_from_logits, embedding_lookup, matmul, mul, scale, sum_all
from .config import KINDS, ConfigError, ModelConfig
from .data import SPECIALS, Vocabulary
from .decoder import DecoderEmbedding, DecoderStack, InitStateProjector, sample_sequence
from .embeddings import CHAR_EMB_DIM, CHAR_FEATURE_DIM, CHARS, CONV_COUNTS, CONV_WIDTHS, HIGHWAY_LAYERS, CharEncoder, ContextualProvider, glorot, load_contextual_file
from .encoder import ContextEncoder, SenseAttention


def _gru_param_count(input_dim: int, hidden_dim: int) -> int:
    return 3 * (input_dim * hidden_dim + hidden_dim * hidden_dim + hidden_dim)


def feature_widths(cfg: ModelConfig) -> list[int]:
    """Widths of the step-constant decoder features [a*, c*, e*] that are on."""
    return ([cfg.d_w] + ([CHAR_FEATURE_DIM] if cfg.char_on else [])
            + ([cfg.d_e] if cfg.contextual_on else []))


def gated_input_dim(cfg: ModelConfig) -> int:
    return cfg.d_w + sum(feature_widths(cfg))


def expected_param_count(cfg: ModelConfig, vocab_size: int) -> int:
    """Closed-form trainable parameter count; must match the built model.

    Shared stack: encoder table V*d_w, two encoder GRUs, four attention
    projections, optional char encoder, a d_w row per special token, and the
    initial-state projection unless the zeros variant. Each of the kind's
    tasks adds a decoder stack: an optional gate (G^2), its GRU layers, and
    the output projection; a hierarchical kind adds the (G+d_s) x G shortcut
    matrix.
    """
    tasks, hierarchical = KINDS[cfg.kind]
    d_w, d_h, d_s, d = cfg.d_w, cfg.d_h, cfg.d_s, cfg.d_attn
    total = vocab_size * d_w
    total += 2 * _gru_param_count(d_w, d_h)
    total += d_w * d + 2 * (2 * d_h * d) + d * d_w
    if cfg.char_on:
        char = len(CHARS) * CHAR_EMB_DIM
        char += sum(w * CHAR_EMB_DIM * n for w, n in zip(CONV_WIDTHS, CONV_COUNTS))
        char += CHAR_FEATURE_DIM
        char += HIGHWAY_LAYERS * 2 * (CHAR_FEATURE_DIM ** 2 + CHAR_FEATURE_DIM)
        total += char
    total += len(SPECIALS) * d_w
    if cfg.s0_variant != "zeros":
        total += (d_w + 2 * d_h) * d_s + d_s
    g = gated_input_dim(cfg)
    stack = _gru_param_count(g, d_s)
    stack += (cfg.n_decoder_layers - 1) * _gru_param_count(d_s, d_s)
    stack += d_s * vocab_size + vocab_size
    if cfg.gate_on:
        stack += g * g
    total += len(tasks) * stack
    if hierarchical:
        total += (g + d_s) * g
    return total


def check_fits_memory(cfg: ModelConfig, vocab_size: int, training: bool) -> None:
    """Refuse, before the model is built, one whose float64 arrays need more
    bytes than the machine's physical memory (a ConfigError naming both sizes).

    Training holds four copies of the trainable parameters (values, gradients,
    Adam's m and v) and one of the frozen V x d_w table. Gradients exist only
    between backward and Adam, so loading a checkpoint holds two of each: the
    arrays read from the file and the model's own.
    """
    params, frozen = expected_param_count(cfg, vocab_size), vocab_size * cfg.d_w
    need = 8 * (4 * params + frozen if training else 2 * (params + frozen))
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(f"the model needs {need} bytes to {'train' if training else 'load'}, "
                          f"more than this machine's {have} bytes of memory")


def assign_arrays(targets: dict[str, Tensor], arrays: dict[str, np.ndarray]) -> None:
    """Copy ``arrays`` into the tensors of the same names. Every name, shape
    and dtype is checked first, so a mismatch raises ShapeError with no
    tensor changed."""
    missing = sorted(set(targets) - set(arrays))
    extra = sorted(set(arrays) - set(targets))
    if missing or extra:
        raise ShapeError(
            f"checkpoint mismatch: missing {missing[:3]}, unexpected {extra[:3]}")
    for name, tensor in targets.items():
        got, want = arrays[name], tensor.data
        if (got.shape, got.dtype) != (want.shape, want.dtype):
            raise ShapeError(f"checkpoint array {name!r} is {got.dtype} {got.shape}, "
                             f"model expects {want.dtype} {want.shape}")
    for name, tensor in targets.items():
        tensor.data[...] = arrays[name]


@dataclass
class ForwardOutput:
    loss: Tensor                      # optimization objective (scalar)
    nll: dict[str, tuple[float, int]]  # task -> (total NLL, scored tokens)


class DefinitionModel:
    """One trainable model of any kind, built deterministically from a seed.

    Construction draws from independent child generators in a fixed order
    (tables, encoder, attention, char, specials, init, definition decoder,
    usage decoder, shortcut), so the shared layers and the definition decoder
    are bit-identical across kinds at equal seeds. The vector file
    ``contextual_file`` is read, at ``cfg.d_e``, only when ``cfg.contextual_on``;
    otherwise e* comes from the deterministic provider seeded with ``seed``.
    """

    def __init__(self, cfg: ModelConfig, vocab: Vocabulary, seed: int,
                 pretrained_matrix: np.ndarray | None = None,
                 contextual_file: str | os.PathLike | None = None):
        self.cfg = cfg
        self.vocab = vocab
        self.seed = seed
        self.contextual = (load_contextual_file(contextual_file, cfg.d_e)
                           if contextual_file is not None and cfg.contextual_on
                           else ContextualProvider(cfg.d_e, seed=seed))
        v = len(vocab)
        kids = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(10)]

        if pretrained_matrix is not None:
            if pretrained_matrix.shape != (v, cfg.d_w):
                raise ShapeError(
                    f"pretrained matrix {pretrained_matrix.shape} does not fit vocab "
                    f"{v} x d_w {cfg.d_w}")
            frozen = enc_matrix = pretrained_matrix  # each table copies it
        else:
            frozen = kids[0].uniform(-0.1, 0.1, size=(v, cfg.d_w))
            frozen[vocab.pad_id] = 0.0
            enc_matrix = kids[1].uniform(-0.1, 0.1, size=(v, cfg.d_w))
            enc_matrix[vocab.pad_id] = 0.0

        self.encoder = ContextEncoder(kids[2], enc_matrix, cfg.d_h,
                                      max_len=cfg.max_context_len)
        self.attention = SenseAttention(kids[3], cfg.d_w, 2 * cfg.d_h, cfg.d_attn)
        self.char_encoder = CharEncoder(kids[4]) if cfg.char_on else None
        self.embedding = DecoderEmbedding(frozen, kids[5])
        self.init_proj = InitStateProjector(kids[6], cfg.d_w, 2 * cfg.d_h, cfg.d_s,
                                            cfg.n_decoder_layers, cfg.s0_variant)
        g = gated_input_dim(cfg)
        self.tasks, hierarchical = KINDS[cfg.kind]
        self.def_stack = DecoderStack(kids[7], g, cfg.d_s, v, cfg.n_decoder_layers,
                                      cfg.gate_on, "def")
        self.usg_stack = self.shortcut = None
        if "usage" in self.tasks:
            self.usg_stack = DecoderStack(kids[8], g, cfg.d_s, v, cfg.n_decoder_layers,
                                          cfg.gate_on, "usg")
        if hierarchical:
            self.shortcut = Tensor(glorot(kids[9], (g + cfg.d_s, g)), requires_grad=True)

    # -- parameters ---------------------------------------------------------

    def params(self) -> dict[str, Tensor]:
        p: dict[str, Tensor] = {}
        p.update(self.encoder.params())
        p.update(self.attention.params())
        if self.char_encoder is not None:
            p.update(self.char_encoder.params())
        p.update(self.embedding.params())
        p.update(self.init_proj.params())
        p.update(self.def_stack.params())
        if self.usg_stack is not None:
            p.update(self.usg_stack.params())
        if self.shortcut is not None:
            p["hier.W_p"] = self.shortcut
        return p

    def _state_tensors(self) -> dict[str, Tensor]:
        """Every tensor needed to reconstruct the model, frozen tables included."""
        return {**self.params(), "emb.frozen": self.embedding.frozen}

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self._state_tensors().items()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        assign_arrays(self._state_tensors(), arrays)

    # -- conditioning -------------------------------------------------------

    def _condition(self, entries):
        """(features, s0) for a batch: ``features`` is [a*, c*, e*], one row per
        entry, with c* and e* only when that feature is on.

        One pass serves the whole batch: the encoder runs every entry's first
        context as one padded batch, the attention reads each entry's own
        block of context states, and the char CNN encodes every headword,
        one row per entry. The headword rows v* and e* come from constant
        tables and record no node."""
        for e in entries:
            if not e.contexts:
                raise ShapeError(f"entry {e.entry_id}: no context sentence")
        words = [e.word for e in entries]
        v_star = embedding_lookup(self.embedding.frozen, self.vocab.encode(words))
        H, v_c, lengths = self.encoder.encode([self.vocab.encode(e.contexts[0])
                                               for e in entries])
        features = [self.attention.attend(v_star, H, lengths)[0]]
        if self.char_encoder is not None:
            features.append(self.char_encoder.encode(words))
        if self.cfg.contextual_on:
            features.append(Tensor(np.stack([self.contextual.embed_for_entry(e)
                                             for e in entries])))
        return features, self.init_proj.init_state(v_star, v_c)

    # -- decoding -----------------------------------------------------------

    def _teacher_arrays(self, seqs):
        pad, bos, eos = self.vocab.pad_id, self.vocab.bos_id, self.vocab.eos_id
        b = len(seqs)
        t_max = max(len(s) for s in seqs) + 1
        inputs = np.full((b, t_max), pad, dtype=np.intp)
        golds = np.full((b, t_max), pad, dtype=np.intp)
        mask = np.zeros((b, t_max))
        for i, s in enumerate(seqs):
            n = len(s) + 1
            inputs[i, :n] = [bos] + list(s)
            golds[i, :n] = list(s) + [eos]
            mask[i, :n] = 1.0
        return inputs, golds, mask

    def _route(self, task: str):
        """(lower, upper) for a task: ``upper`` is the task's own stack, which
        builds the inputs with its gate and emits the task's tokens; ``lower``
        is set only for the last task of a hierarchical kind, and is the first
        task's stack, re-run on the same inputs beneath it."""
        if task not in self.tasks:
            raise ShapeError(f"model kind {self.cfg.kind} has no {task!r} task")
        stacks = {"definition": self.def_stack, "usage": self.usg_stack}
        _, hierarchical = KINDS[self.cfg.kind]
        lower = stacks[self.tasks[0]] if hierarchical and task == self.tasks[-1] else None
        return lower, stacks[task]

    def _decode(self, route, states, ids, features):
        """Run a route over time-major input ids (row t*B + b is entry b at
        step t, B = rows of each feature); returns (states, logits).

        ``states`` is (lower states, upper states); the lower half is carried
        unchanged when the route has no lower stack. Each stack runs one layer
        at a time, so each weight matrix sees one matmul over all rows, and
        the returned states hold every row. Teacher forcing calls this once
        over whole sequences; sampling calls it with one id per entry, which
        makes the returned states the next step's."""
        lower, upper = route
        low, up = states
        steps = len(ids) // features[0].shape[0]
        if steps > 1:
            features = [concat([f] * steps, axis=0) for f in features]
        x = upper.gate.build(features, self.embedding.embed(ids))
        if lower is not None:
            low = lower.step(low, x)
            x = matmul(concat([x, low[-1]], axis=1), self.shortcut)
        up = upper.step(up, x)
        return (low, up), upper.logits(up[-1])

    def _decode_loss(self, route, s0, features, seqs):
        """Teacher-forced NLL of ``seqs``: (token mean, total, token count)."""
        inputs, golds, mask = self._teacher_arrays(seqs)
        _, logits = self._decode(route, (s0, s0), inputs.T.reshape(-1), features)
        ce = cross_entropy_from_logits(logits, golds.T.reshape(-1))
        total = sum_all(mul(ce, Tensor(mask.T.reshape(-1))))
        count = int(mask.sum())
        return scale(total, 1.0 / count), float(total.data), count

    # -- public forward -----------------------------------------------------

    def encode_task(self, entries, task: str) -> list[list[int]]:
        """Each entry's gold ids for ``task``; ShapeError names an entry without them."""
        seqs = []
        for e in entries:
            text = e.definition if task == "definition" else e.usage
            if not text:
                raise ShapeError(f"entry {e.entry_id}: no {task} text")
            seqs.append(self.vocab.encode(text))
        return seqs

    def forward_batch(self, entries, tasks=None) -> ForwardOutput:
        """Teacher-forced scores of ``tasks``, by default all of ``self.tasks``."""
        entries = list(entries)
        if not entries:
            raise ShapeError("forward: empty batch")
        tasks = self.tasks if tasks is None else tasks
        gold = {task: (self._route(task), self.encode_task(entries, task)) for task in tasks}
        features, s0 = self._condition(entries)
        loss, nll = None, {}
        for task, (route, seqs) in gold.items():
            mean, total, count = self._decode_loss(route, s0, features, seqs)
            loss = mean if loss is None else add(loss, mean)
            nll[task] = (total, count)
        return ForwardOutput(loss=loss, nll=nll)

    def forward(self, entry) -> ForwardOutput:
        return self.forward_batch([entry])

    def lm_loss(self, token_seqs) -> ForwardOutput:
        """Unconditional language-model scores of raw id sequences, as the
        "definition" task.

        Used by decoder pre-training: every conditioning feature is a zero
        vector and all decoder layers start at zero, leaving only y_{t-1} live,
        so only the definition decoder, its gate, and the trainable special
        embedding rows receive gradients.
        """
        seqs = [list(s) for s in token_seqs]
        if not seqs or any(not s for s in seqs):
            raise ShapeError("lm_loss: empty sentence in batch")
        batch = len(seqs)
        m = self.cfg
        features = [Tensor(np.zeros((batch, w))) for w in feature_widths(m)]
        s0 = [Tensor(np.zeros((batch, m.d_s))) for _ in range(m.n_decoder_layers)]
        # The bare definition route for every kind: no lower stack underneath.
        mean, total, count = self._decode_loss((None, self.def_stack), s0, features, seqs)
        return ForwardOutput(loss=mean, nll={"definition": (total, count)})

    def pretrainable_params(self) -> dict[str, Tensor]:
        """Parameters that receive gradients in the zero-conditioned regime."""
        p: dict[str, Tensor] = {}
        p.update(self.embedding.params())
        p.update(self.def_stack.params())
        return p

    # -- generation ---------------------------------------------------------

    def generate(self, entry, task: str = "definition", temperature: float | None = None,
                 seed: int = 0, max_len: int | None = None):
        """Sample one sequence for the entry; returns (tokens, metadata)."""
        temperature = self.cfg.temperature if temperature is None else temperature
        max_len = self.cfg.max_gen_len if max_len is None else max_len
        features, s0 = self._condition([entry])
        route = self._route(task)

        def step(states, prev_id):
            return self._decode(route, states, [prev_id], features)

        rng = np.random.default_rng(seed)
        ids = sample_sequence(step, (s0, s0), self.vocab.bos_id, self.vocab.eos_id,
                              max_len, temperature, rng)
        unknown = entry.word not in self.vocab
        meta = {
            "task": task,
            "unknown_word": unknown,
            "context_target_absent": entry.context_target_indices[0] is None,
            "warnings": [f"entry {entry.entry_id}: word {entry.word!r} not in vocabulary, "
                         "using the unknown-token vector"] if unknown else [],
        }
        return self.vocab.decode(ids), meta
