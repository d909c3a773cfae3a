import json

import numpy as np
import pytest

import glossgen.training as training
from glossgen.autodiff import Tape, backward, clip_global_norm, zero_grads
from glossgen.checkpoint import CheckpointError, load_checkpoint, load_pretrained
from glossgen.config import Config, DataConfig, ModelConfig, TrainConfig
from glossgen.data import DictionaryEntry, Vocabulary
from glossgen.metrics import MetricsError, perplexity
from glossgen.models import DefinitionModel
from glossgen.training import (TrainingError, load_lm_sentences, make_query_entry,
                               pretrain_decoder, train)

WORDS = ["check", "run", "walk", "cat", "dog", "sun", "tree", "bird",
         "fish", "rock", "rain", "wind", "fire", "snow", "moon", "star"]


def micro_cfg(**kw):
    base = dict(d_w=8, d_h=4, d_s=8, d_attn=8, d_e=8, max_gen_len=8,
                char_on=False, contextual_on=False)
    base.update(kw)
    return ModelConfig(**base)


def full_cfg(model_kw=None, **train_kw):
    train_kw.setdefault("batch_size", 4)
    train_kw.setdefault("max_epochs", 3)
    return Config(model=micro_cfg(**(model_kw or {})), train=TrainConfig(**train_kw),
                  data=DataConfig())


def entry(word, definition, usage=None, eid=None):
    context = ["the", word, "is", "here"]
    return DictionaryEntry(
        entry_id=eid or f"{word}.1", word=word, pos="n", sense_id="s1",
        definition=list(definition), contexts=[context],
        context_target_indices=[1],
        usage=list(usage) if usage else None, usage_target_index=None)


def corpus(with_usage=False):
    out = []
    for i, w in enumerate(WORDS[:8]):
        usage = ["the", w, "works"] if with_usage else None
        out.append(entry(w, [WORDS[(i + 1) % 8], "and", WORDS[(i + 2) % 8]],
                         usage=usage, eid=f"{w}.{i}"))
    return out


def build(seed=0, **kw):
    return DefinitionModel(micro_cfg(**kw), Vocabulary(WORDS), seed=seed)


def lm_sentences(vocab):
    return [vocab.encode(["the", w, "is", "here"]) for w in WORDS[:8]]


def read_log(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def reference_fit(params, t, items, epochs, loss_of):
    """The fit loop as three whole-array passes per step (zero, clip, Adam)
    around backward; returns (m, v, per-step losses and pre-clip norms)."""
    m = {n: np.zeros_like(p.data) for n, p in params.items()}
    v = {n: np.zeros_like(p.data) for n, p in params.items()}
    steps = []
    for epoch in range(1, epochs + 1):
        rng = np.random.default_rng((t.seed, epoch))
        for batch in training._batches(items, t.batch_size, rng):
            zero_grads(params)
            with Tape() as tape:
                loss = loss_of(batch)
                backward(tape, loss)
            norm = clip_global_norm(params, t.clip_norm)
            bc1, bc2 = 1.0 - t.beta1 ** (len(steps) + 1), 1.0 - t.beta2 ** (len(steps) + 1)
            for name, p in params.items():
                g = p.grad
                m[name] *= t.beta1
                m[name] += (1.0 - t.beta1) * g
                v[name] *= t.beta2
                v[name] += (1.0 - t.beta2) * (g * g)
                p.data -= t.lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + t.eps)
            steps.append((float(loss.data), norm))
    return m, v, steps


# kind -> validation perplexity of corpus(with_usage=True) at batch sizes 1
# and 2, model seed 1 with char and contextual features on, recorded while
# the scores were still separate definition and usage fields
PINNED_VALID_PPL = {
    "single": (19.895355751432376, 19.89535575143237),
    "parallel": (19.986720563396254, 19.986720563396254),
    "hier-du": (19.965156524624785, 19.965156524624792),
    "hier-ud": (20.14960803814993, 20.149608038149918),
}


class TestValidationPpl:
    """Validation perplexity is ``metrics.perplexity`` pooled over all tasks."""

    def test_matches_pooled_forward_totals(self):
        model = build(seed=1, kind="parallel")
        entries = corpus(with_usage=True)
        (d_total, d_count), (u_total, u_count) = model.forward_batch(entries).nll.values()
        expected = np.exp((d_total + u_total) / (d_count + u_count))
        assert perplexity(model, entries, model.tasks) == pytest.approx(expected, rel=1e-12)

    def test_single_kind_uses_definition_only(self):
        model = build(seed=1)
        entries = corpus()
        total, count = model.forward_batch(entries).nll["definition"]
        expected = np.exp(total / count)
        assert perplexity(model, entries, model.tasks) == pytest.approx(expected, rel=1e-12)

    def test_batch_size_does_not_change_result(self):
        model = build(seed=2)
        entries = corpus()
        a = perplexity(model, entries, model.tasks, batch_size=3)
        b = perplexity(model, entries, model.tasks, batch_size=8)
        assert a == pytest.approx(b, rel=1e-12)

    def test_empty_corpus_rejected(self):
        model = build()
        with pytest.raises(MetricsError, match="empty"):
            perplexity(model, [], model.tasks)

    @pytest.mark.parametrize("kind", sorted(PINNED_VALID_PPL))
    def test_pinned(self, kind):
        model = build(seed=1, kind=kind, char_on=True, contextual_on=True)
        got = tuple(perplexity(model, corpus(with_usage=True), model.tasks, batch_size=b)
                    for b in (1, 2))
        assert got == PINNED_VALID_PPL[kind]


class TestTrainLoop:
    def test_identical_seeds_identical_logs(self, tmp_path):
        logs = []
        for run in ("a", "b"):
            model = build(seed=4)
            path = tmp_path / f"{run}.jsonl"
            train(model, full_cfg(max_epochs=2), corpus(), corpus()[:4], log_path=path)
            logs.append(path.read_bytes())
        assert logs[0] == logs[1]

    def test_loss_decreases_on_memorizable_corpus(self):
        model = build(seed=0)
        result = train(model, full_cfg(max_epochs=4, lr=5e-3), corpus(), corpus()[:4])
        assert result.history[-1]["mean_train_loss"] < result.history[0]["mean_train_loss"]

    def test_first_logged_loss_is_plain_forward_nll(self, tmp_path):
        cfg = full_cfg(max_epochs=1)
        entries = corpus()
        ref_model = build(seed=9)
        rng = np.random.default_rng((cfg.train.seed, 1))
        first_batch = next(training._batches(entries, cfg.train.batch_size, rng))
        expected = float(ref_model.forward_batch(first_batch).loss.data)
        model = build(seed=9)
        path = tmp_path / "log.jsonl"
        train(model, cfg, entries, entries[:2], log_path=path)
        first = json.loads(path.read_text().splitlines()[0])
        assert first["loss"] == pytest.approx(expected, rel=1e-12)
        assert first["epoch"] == 1 and first["step"] == 1

    def test_patience_counts_consecutive_non_improving_epochs(self, monkeypatch):
        ppls = iter([5.0, 4.0, 4.5, 4.4, 4.3])
        monkeypatch.setattr(training, "perplexity", lambda *a, **k: next(ppls))
        result = train(build(), full_cfg(max_epochs=5, patience=1), corpus(), corpus()[:2])
        assert result.epochs_run == 4
        assert result.best_epoch == 2
        assert result.best_ppl == 4.0

    def test_patience_zero_stops_on_first_non_improvement(self, monkeypatch):
        ppls = iter([5.0, 4.0, 4.5, 4.4])
        monkeypatch.setattr(training, "perplexity", lambda *a, **k: next(ppls))
        result = train(build(), full_cfg(max_epochs=4, patience=0), corpus(), corpus()[:2])
        assert result.epochs_run == 3
        assert result.best_epoch == 2

    def test_stop_ppl_halts_early(self, monkeypatch):
        ppls = iter([3.0, 1.2, 1.1])
        monkeypatch.setattr(training, "perplexity", lambda *a, **k: next(ppls))
        result = train(build(), full_cfg(max_epochs=3, patience=5), corpus(),
                       corpus()[:2], stop_ppl=1.5)
        assert result.epochs_run == 2

    def test_non_finite_loss_names_batch_and_step(self):
        model = build(seed=0)
        model.params()["attn.W_Q"].data[...] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingError, match=r"epoch 1 step 1.*check\.0"):
                train(model, full_cfg(batch_size=32), corpus(), corpus()[:2])

    def test_best_checkpoint_reproduces_best_ppl(self, tmp_path):
        cfg = full_cfg(max_epochs=3, lr=5e-3)
        path = tmp_path / "best.npz"
        valid = corpus()[:4]
        result = train(build(seed=1), cfg, corpus(), valid, checkpoint_path=path)
        loaded, _, meta = load_checkpoint(path)
        assert perplexity(loaded, valid, loaded.tasks) == pytest.approx(result.best_ppl, abs=1e-9)
        assert meta["best_epoch"] == result.best_epoch

    def test_frozen_table_never_moves(self):
        model = build(seed=2)
        before = model.embedding.frozen.data.copy()
        train(model, full_cfg(max_epochs=2), corpus(), corpus()[:2])
        assert np.array_equal(model.embedding.frozen.data, before)

    def test_multi_task_kinds_train(self):
        for kind in ("parallel", "hier-du", "hier-ud"):
            model = build(seed=3, kind=kind)
            result = train(model, full_cfg(model_kw={"kind": kind}, max_epochs=2),
                           corpus(with_usage=True), corpus(with_usage=True)[:4])
            assert all(np.isfinite(r["mean_train_loss"]) for r in result.history)
            assert np.isfinite(result.best_ppl)

    def test_empty_train_corpus_rejected(self):
        with pytest.raises(TrainingError, match="empty"):
            train(build(), full_cfg(), [], corpus()[:2])

    @pytest.mark.parametrize("kind", ["parallel", "hier-du", "hier-ud"])
    @pytest.mark.parametrize("split", ["train", "valid"])
    def test_missing_task_text_stops_before_first_step(self, tmp_path, monkeypatch,
                                                        kind, split):
        monkeypatch.setattr(training, "adam_step", lambda *a: pytest.fail("stepped"))
        entries = corpus(with_usage=True)
        victim = entries[5] if split == "train" else entries[-1]
        victim.usage = None
        log = tmp_path / "log.jsonl"
        with pytest.raises(TrainingError, match=f"entry {victim.entry_id}: no usage text"):
            train(build(kind=kind), full_cfg(model_kw={"kind": kind}), entries[:6],
                  entries[6:], log_path=log)
        assert not log.exists()


class TestNonFiniteGradient:
    """A NaN gradient stops the fit loop before Adam writes any parameter."""

    def inject_nan(self, monkeypatch, param):
        real = training.backward

        def backward_then_nan(tape, loss):
            real(tape, loss)
            param.grad.flat[0] = np.nan

        monkeypatch.setattr(training, "backward", backward_then_nan)

    def test_train_raises_and_leaves_params(self, monkeypatch):
        model = build(seed=0)
        self.inject_nan(monkeypatch, model.params()["def.W_d"])
        before = {n: t.data.copy() for n, t in model.params().items()}
        with pytest.raises(TrainingError, match=r"gradient norm nan at epoch 1 step 1"):
            train(model, full_cfg(), corpus(), corpus()[:2])
        assert all(np.array_equal(t.data, before[n]) for n, t in model.params().items())

    def test_pretrain_raises_and_leaves_params(self, monkeypatch):
        model = build(seed=0)
        self.inject_nan(monkeypatch, model.params()["def.gru0.W_z"])
        before = {n: t.data.copy() for n, t in model.params().items()}
        sentences = [model.vocab.encode(["the", w, "is", "here"]) for w in WORDS[:8]]
        with pytest.raises(TrainingError, match=r"pretrain epoch 1 step 1"):
            pretrain_decoder(model, full_cfg(pretrain_epochs=1), sentences)
        assert all(np.array_equal(t.data, before[n]) for n, t in model.params().items())


class TestOptimizerPass:
    """``_fit`` zeroes gradients once and lets ``adam_step`` clip, update and
    zero them in one pass; the result is bit-identical to separate passes."""

    @pytest.fixture
    def adam_states(self, monkeypatch):
        states, real = [], training.AdamState

        def recording(**kw):
            states.append(real(**kw))
            return states[-1]

        monkeypatch.setattr(training, "AdamState", recording)
        return states

    @staticmethod
    def assert_matches(params, state, steps, ref_params, ref):
        m, v, ref_steps = ref
        for name, p in params.items():
            assert np.array_equal(p.data, ref_params[name].data), name
            assert np.array_equal(state.m[name], m[name]), name
            assert np.array_equal(state.v[name], v[name]), name
        assert [(r["loss"], r["grad_norm"]) for r in steps] == ref_steps
        assert all(r["clipped"] for r in steps)

    @pytest.mark.parametrize("kind", ["single", "parallel", "hier-du", "hier-ud"])
    def test_clipped_training_matches_separate_passes(self, tmp_path, adam_states, kind):
        cfg = full_cfg(model_kw={"kind": kind}, max_epochs=2, clip_norm=1e-3)
        items = corpus(with_usage=True)
        model, ref_model = build(seed=3, kind=kind), build(seed=3, kind=kind)
        log = tmp_path / "log.jsonl"
        result = train(model, cfg, items, items[:4], log_path=log)
        assert result.epochs_run == 2
        steps = [r for r in read_log(log) if "step" in r]
        ref = reference_fit(ref_model.params(), cfg.train, items, 2,
                            lambda batch: ref_model.forward_batch(batch).loss)
        self.assert_matches(model.params(), adam_states[0], steps,
                            ref_model.params(), ref)

    def test_clipped_pretraining_matches_separate_passes(self, tmp_path, adam_states):
        cfg = full_cfg(pretrain_epochs=2, clip_norm=1e-3)
        model, ref_model = build(seed=5), build(seed=5)
        sentences = lm_sentences(model.vocab)
        log = tmp_path / "pretrain.jsonl"
        pretrain_decoder(model, cfg, sentences, log_path=log)
        steps = [r for r in read_log(log) if "step" in r]
        ref = reference_fit(ref_model.pretrainable_params(), cfg.train, sentences, 2,
                            lambda batch: ref_model.lm_loss(batch).loss)
        self.assert_matches(model.pretrainable_params(), adam_states[0], steps,
                            ref_model.pretrainable_params(), ref)

    def test_zero_gradient_step_is_a_fixed_point(self, tmp_path, monkeypatch):
        # a zero norm never reaches the clip factor's division
        model = build(seed=0)
        real = training.backward

        def backward_then_zero(tape, loss):
            real(tape, loss)
            zero_grads(model.params())

        monkeypatch.setattr(training, "backward", backward_then_zero)
        before = {n: t.data.copy() for n, t in model.params().items()}
        log = tmp_path / "log.jsonl"
        train(model, full_cfg(max_epochs=1, clip_norm=1e-3), corpus(), corpus()[:2],
              log_path=log)
        steps = [r for r in read_log(log) if "step" in r]
        assert steps and all(r["grad_norm"] == 0.0 and not r["clipped"] for r in steps)
        assert all(np.array_equal(t.data, before[n]) for n, t in model.params().items())

    def test_one_adam_step_per_batch_and_one_zeroing_per_fit(self, monkeypatch):
        # the benchmark ends a training step at each adam_step return
        calls = {"adam_step": 0, "zero_grads": 0}
        for name in calls:
            real = getattr(training, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(training, name, counted)
        model = build(seed=0)
        train(model, full_cfg(max_epochs=2, batch_size=3), corpus(), corpus()[:2])
        assert calls == {"adam_step": 2 * 3, "zero_grads": 1}
        pretrain_decoder(model, full_cfg(pretrain_epochs=1, batch_size=5),
                         lm_sentences(model.vocab))
        assert calls == {"adam_step": 2 * 3 + 2, "zero_grads": 2}


class TestPretrain:
    def test_zero_epochs_saves_initialization(self, tmp_path):
        model = build(seed=5)
        init = {n: t.data.copy() for n, t in model.pretrainable_params().items()}
        path = tmp_path / "pre.npz"
        history = pretrain_decoder(model, full_cfg(pretrain_epochs=0),
                                   lm_sentences(model.vocab), out_path=path)
        assert history == []
        fresh = build(seed=6)
        load_pretrained(path, fresh)
        for name, arr in init.items():
            assert np.array_equal(fresh.pretrainable_params()[name].data, arr)

    def test_only_decoder_branch_moves(self):
        model = build(seed=5)
        enc_before = model.params()["enc.fwd.W_z"].data.copy()
        attn_before = model.params()["attn.W_Q"].data.copy()
        dec_before = model.params()["def.gru0.W_z"].data.copy()
        pretrain_decoder(model, full_cfg(pretrain_epochs=1), lm_sentences(model.vocab))
        assert np.array_equal(model.params()["enc.fwd.W_z"].data, enc_before)
        assert np.array_equal(model.params()["attn.W_Q"].data, attn_before)
        assert not np.array_equal(model.params()["def.gru0.W_z"].data, dec_before)

    def test_loss_decreases(self):
        model = build(seed=5)
        history = pretrain_decoder(model, full_cfg(pretrain_epochs=4, lr=5e-3),
                                   lm_sentences(model.vocab))
        assert history[-1]["mean_train_loss"] < history[0]["mean_train_loss"]

    def test_warm_start_transfers_language_model(self, tmp_path):
        shared = np.random.default_rng(0).normal(size=(20, 8))
        vocab = Vocabulary(WORDS)
        src = DefinitionModel(micro_cfg(), vocab, seed=5, pretrained_matrix=shared)
        path = tmp_path / "pre.npz"
        pretrain_decoder(src, full_cfg(pretrain_epochs=2), lm_sentences(vocab),
                         out_path=path)
        dst = DefinitionModel(micro_cfg(), vocab, seed=11, pretrained_matrix=shared)
        load_pretrained(path, dst)
        seqs = lm_sentences(vocab)[:3]
        src_total, _ = src.lm_loss(seqs).nll["definition"]
        dst_total, _ = dst.lm_loss(seqs).nll["definition"]
        assert src_total == pytest.approx(dst_total, rel=1e-12)

    def test_width_mismatch_rejected_on_warm_start(self, tmp_path):
        src = build(seed=0)
        path = tmp_path / "pre.npz"
        pretrain_decoder(src, full_cfg(pretrain_epochs=0), lm_sentences(src.vocab),
                         out_path=path)
        wide = DefinitionModel(micro_cfg(d_s=12), Vocabulary(WORDS), seed=0)
        with pytest.raises(CheckpointError):
            load_pretrained(path, wide)

    def test_empty_corpus_rejected(self):
        with pytest.raises(TrainingError, match="empty"):
            pretrain_decoder(build(), full_cfg(), [])


class TestHelpers:
    def test_load_lm_sentences(self, tmp_path):
        path = tmp_path / "lm.txt"
        path.write_text("The cat is here\n\nthe DOG runs\n")
        vocab = Vocabulary(WORDS)
        seqs = load_lm_sentences(path, vocab)
        assert len(seqs) == 2
        assert seqs[0] == vocab.encode(["the", "cat", "is", "here"])

    def test_load_lm_sentences_empty_file(self, tmp_path):
        path = tmp_path / "lm.txt"
        path.write_text("\n\n")
        with pytest.raises(TrainingError, match="no usable"):
            load_lm_sentences(path, Vocabulary(WORDS))

    def test_make_query_entry(self):
        e = make_query_entry("Run", "She RUNS every day")
        assert e.word == "run"
        assert e.contexts == [["she", "runs", "every", "day"]]
        assert e.context_target_indices == [1]

    def test_make_query_entry_unmatched_target(self):
        e = make_query_entry("cat", "no felines around")
        assert e.context_target_indices == [None]

    def test_make_query_entry_rejects_blanks(self):
        with pytest.raises(TrainingError):
            make_query_entry("", "some context")
        with pytest.raises(TrainingError):
            make_query_entry("word", "   ")
