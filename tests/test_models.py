import numpy as np
import pytest

from glossgen.autodiff import AdamState, ShapeError, Tape, adam_step, backward, grad_check, zero_grads
from glossgen.config import ModelConfig
from glossgen.data import DictionaryEntry, Vocabulary
from glossgen.models import DefinitionModel, expected_param_count, gated_input_dim

WORDS = ["check", "run", "walk", "cat", "dog", "sun", "tree", "bird",
         "fish", "rock", "rain", "wind", "fire", "snow", "moon", "star"]


def micro_cfg(**kw):
    base = dict(d_w=8, d_h=4, d_s=8, d_attn=8, d_e=8, max_gen_len=8,
                char_on=False, contextual_on=False)
    base.update(kw)
    return ModelConfig(**base)


def make_vocab():
    return Vocabulary(WORDS)  # 4 specials + 16 words = 20


def entry(word="check", definition=("a", "small", "mark"), context=None, usage=None,
          eid="e1", sense="s1"):
    context = list(context) if context else ["the", word, "is", "here"]
    definition = list(definition)
    idx = context.index(word) if word in context else None
    return DictionaryEntry(
        entry_id=eid, word=word, pos="n", sense_id=sense, definition=definition,
        contexts=[context], context_target_indices=[idx],
        usage=list(usage) if usage else None,
        usage_target_index=None)


def usage_entry(**kw):
    kw.setdefault("usage", ["the", kw.get("word", "check"), "works"])
    return entry(**kw)


def padded_batch():
    """Two entries whose definitions and usages differ in length, the longer
    one swapping sides, so teacher forcing pads each task differently."""
    return [usage_entry(),
            entry(word="dog", definition=["sun", "tree"], context=["a", "dog", "runs"],
                  usage=["dog", "fish", "rock", "rain", "wind"], eid="e2", sense="s2")]


def stepwise_nll(model, entries, task):
    """Total NLL of the entries' gold sequences, recomputed one entry and one
    ``_decode`` step at a time exactly as ``generate`` feeds its sampler."""
    total, count = 0.0, 0
    for e in entries:
        features, s0 = model._condition([e])
        route = model._route(task)
        gold = model.vocab.encode(e.definition if task == "definition" else e.usage)
        gold.append(model.vocab.eos_id)
        states, prev = (s0, s0), model.vocab.bos_id
        for g in gold:
            states, logits = model._decode(route, states, [prev], features)
            z = logits.data[0]
            total -= z[g] - z.max() - np.log(np.exp(z - z.max()).sum())
            prev = g
        count += len(gold)
    return total, count


# (kind, task, temperature) -> tokens sampled at seed 3 for pinned_entries(),
# recorded before teacher forcing and sampling shared one decode pass
PINNED_SAMPLES = {
    ("single", "definition", 1.0):
        ["<unk> check fire bird <unk> dog sun <bos>".split(),
         "<unk> check fire bird <unk> dog sun".split()],
    ("single", "definition", 0.05):
        ["<unk> check wind tree <pad> <unk> <unk> <pad>".split(),
         "<bos> walk wind tree <bos> dog sun".split()],
    ("parallel", "definition", 1.0):
        ["<unk> check fire bird <unk> dog sun <bos>".split(),
         "<unk> check fire bird <unk> dog sun".split()],
    ("parallel", "definition", 0.05):
        ["<unk> check wind tree <pad> <unk> <unk> <pad>".split(),
         "<bos> walk wind tree <bos> dog sun".split()],
    ("parallel", "usage", 1.0):
        ["<unk> check fire bird <unk> dog sun".split(),
         "<unk> check fire bird <unk> dog sun".split()],
    ("parallel", "usage", 0.05):
        ["<unk> check moon bird <pad> dog sun <bos>".split(),
         []],
    ("hier-du", "definition", 1.0):
        ["<unk> check fire bird <unk> dog sun <bos>".split(),
         "<unk> check fire bird <unk> dog sun".split()],
    ("hier-du", "definition", 0.05):
        ["<unk> check wind tree <pad> <unk> <unk> <pad>".split(),
         "<bos> walk wind tree <bos> dog sun".split()],
    ("hier-du", "usage", 1.0):
        ["<unk> check fire bird <bos> dog sun".split(),
         "<unk> check fire bird <unk> dog sun".split()],
    ("hier-du", "usage", 0.05):
        ["<bos> run star fire".split(),
         []],
    ("hier-ud", "definition", 1.0):
        ["<unk> check fire bird <unk> dog sun".split(),
         "<unk> check fire bird <unk> dog sun".split()],
    ("hier-ud", "definition", 0.05):
        ["<bos> check wind sun <unk> walk walk <unk>".split(),
         "<unk> check snow bird <pad> run walk <unk>".split()],
    ("hier-ud", "usage", 1.0):
        ["<unk> check fire bird <unk> dog sun".split(),
         "<unk> check fire bird <unk> dog sun".split()],
    ("hier-ud", "usage", 0.05):
        ["<unk> check moon bird <pad> dog sun <bos>".split(),
         []],
}


# kind -> (tasks, loss, {task: (total NLL, tokens)}) of padded_batch() at
# seed 22 with char and contextual features on, recorded while the scores
# were still separate definition and usage fields
PINNED_SCORES = {
    "single": (("definition",), 2.994933953996859,
               {"definition": (20.964537677978015, 7)}),
    "parallel": (("definition", "usage"), 6.001378663585112,
                 {"definition": (20.964537677978015, 7), "usage": (30.064447095882528, 10)}),
    "hier-du": (("definition", "usage"), 5.9847511882801525,
                {"definition": (20.964537677978015, 7), "usage": (29.898172342832932, 10)}),
    "hier-ud": (("usage", "definition"), 5.98888487240391,
                {"definition": (20.877081139709595, 7), "usage": (30.064447095882528, 10)}),
}


def pinned_entries():
    """A usage entry and one whose context is the word alone."""
    return [usage_entry(),
            entry(word="dog", definition=["sun"], context=["dog"], usage=["dog", "runs"],
                  eid="e2")]


class TestParamCounts:
    @pytest.mark.parametrize("kind", ["single", "parallel", "hier-du", "hier-ud"])
    @pytest.mark.parametrize("gate", [True, False])
    def test_kind_and_gate(self, kind, gate):
        cfg = micro_cfg(kind=kind, gate_on=gate)
        model = DefinitionModel(cfg, make_vocab(), seed=0)
        actual = sum(t.size for t in model.params().values())
        assert actual == expected_param_count(cfg, 20)

    @pytest.mark.parametrize("char,ctx", [(True, True), (True, False), (False, True)])
    def test_feature_switches(self, char, ctx):
        cfg = micro_cfg(char_on=char, contextual_on=ctx)
        model = DefinitionModel(cfg, make_vocab(), seed=0)
        assert sum(t.size for t in model.params().values()) == expected_param_count(cfg, 20)

    @pytest.mark.parametrize("variant", ["zeros", "word", "context", "both"])
    def test_s0_variants(self, variant):
        cfg = micro_cfg(s0_variant=variant)
        model = DefinitionModel(cfg, make_vocab(), seed=0)
        assert sum(t.size for t in model.params().values()) == expected_param_count(cfg, 20)

    def test_gate_ablation_drops_exactly_g_squared(self):
        on = expected_param_count(micro_cfg(gate_on=True), 20)
        off = expected_param_count(micro_cfg(gate_on=False), 20)
        g = gated_input_dim(micro_cfg())
        assert on - off == g * g

    def test_gated_dim_formula(self):
        assert gated_input_dim(micro_cfg()) == 16
        assert gated_input_dim(micro_cfg(char_on=True)) == 176
        assert gated_input_dim(micro_cfg(contextual_on=True)) == 24


class TestForwardSingle:
    def test_nll_matches_stepwise_recomputation(self):
        model = DefinitionModel(micro_cfg(), make_vocab(), seed=1)
        for entries in ([entry()], padded_batch()):
            out = model.forward_batch(entries)
            recomputed, tokens = stepwise_nll(model, entries, "definition")
            assert abs(out.nll["definition"][0] - recomputed) < 1e-9
            assert out.nll["definition"][1] == tokens

    def test_loss_is_token_mean(self):
        model = DefinitionModel(micro_cfg(), make_vocab(), seed=1)
        out = model.forward(entry())
        total, count = out.nll["definition"]
        assert abs(out.loss.item() - total / count) < 1e-12

    def test_zero_conditioning_is_pure_language_model(self):
        # lm_loss depends on the definition decoder alone: no usage stack or
        # shortcut runs beneath it, whatever the kind.
        vocab = make_vocab()
        seqs = [vocab.encode(["a", "small", "mark"])]
        scores = {DefinitionModel(micro_cfg(kind=kind), vocab, seed=2).lm_loss(seqs)
                  .nll["definition"] for kind in ("single", "parallel", "hier-du", "hier-ud")}
        assert len(scores) == 1

    def test_conditioning_differentiates_words(self):
        model = DefinitionModel(micro_cfg(), make_vocab(), seed=2)
        a = entry(word="cat", definition=["a", "small", "mark"])
        b = entry(word="dog", definition=["a", "small", "mark"],
                  context=["the", "dog", "runs"])
        assert model.forward(a).nll["definition"] != model.forward(b).nll["definition"]

    def test_single_token_context(self):
        model = DefinitionModel(micro_cfg(), make_vocab(), seed=3)
        e = entry(context=["check"])
        out = model.forward(e)
        assert np.isfinite(out.nll["definition"][0])

    def test_unknown_word_warns_and_runs(self):
        model = DefinitionModel(micro_cfg(), make_vocab(), seed=3)
        e = entry(word="zebra", context=["a", "zebra", "runs"])
        assert np.isfinite(model.forward(e).nll["definition"][0])
        _, meta = model.generate(e)
        assert meta["unknown_word"]
        assert meta["warnings"] == ["entry e1: word 'zebra' not in vocabulary, "
                                    "using the unknown-token vector"]

    def test_batched_equals_sum_of_singles(self):
        model = DefinitionModel(micro_cfg(), make_vocab(), seed=4)
        entries = [entry(word="cat", eid="a"),
                   entry(word="dog", definition=["a", "good", "dog"], eid="b",
                         context=["the", "dog", "barks"])]
        both = model.forward_batch(entries)
        singles = [model.forward(e) for e in entries]
        total = sum(o.nll["definition"][0] for o in singles)
        count = sum(o.nll["definition"][1] for o in singles)
        assert abs(both.nll["definition"][0] - total) < 1e-9
        assert both.nll["definition"][1] == count

    def test_uniform_projection_gives_log_vocab(self):
        model = DefinitionModel(micro_cfg(), make_vocab(), seed=5)
        model.def_stack._params["def.W_d"].data[...] = 0.0
        model.def_stack._params["def.b_d"].data[...] = 0.0
        e = entry()
        out = model.forward(e)
        expected = (len(e.definition) + 1) * np.log(20)
        assert abs(out.nll["definition"][0] - expected) < 1e-9

    def test_empty_batch_rejected(self):
        model = DefinitionModel(micro_cfg(), make_vocab(), seed=5)
        with pytest.raises(ShapeError):
            model.forward_batch([])


class TestMultiTask:
    def test_parallel_def_branch_identical_to_single(self):
        vocab = make_vocab()
        e = usage_entry()
        single = DefinitionModel(micro_cfg(kind="single"), vocab, seed=7)
        parallel = DefinitionModel(micro_cfg(kind="parallel"), vocab, seed=7)
        assert single.forward(e).nll["definition"] == parallel.forward(e).nll["definition"]

    def test_parallel_usage_params_do_not_affect_def(self):
        model = DefinitionModel(micro_cfg(kind="parallel"), make_vocab(), seed=8)
        e = usage_entry()
        before = model.forward(e)
        for name, t in model.usg_stack.params().items():
            t.data += 0.5
        model.usg_gate.params()["usg.gate.W_g"].data += 0.5
        after = model.forward(e)
        assert after.nll["definition"][0] == before.nll["definition"][0]
        assert after.nll["usage"][0] != before.nll["usage"][0]

    def test_missing_usage_rejected(self):
        model = DefinitionModel(micro_cfg(kind="parallel"), make_vocab(), seed=8)
        with pytest.raises(ShapeError, match="usage"):
            model.forward(entry())

    def test_both_nlls_finite(self):
        for kind in ("parallel", "hier-du", "hier-ud"):
            model = DefinitionModel(micro_cfg(kind=kind), make_vocab(), seed=9)
            out = model.forward(usage_entry())
            assert np.isfinite(out.nll["definition"][0])
            assert np.isfinite(out.nll["usage"][0])

    def test_hier_shortcut_shape(self):
        cfg = micro_cfg(kind="hier-du")
        model = DefinitionModel(cfg, make_vocab(), seed=10)
        g = gated_input_dim(cfg)
        assert model.shortcut.shape == (g + cfg.d_s, g)

    def test_hier_du_shortcut_carries_def_influence(self):
        model = DefinitionModel(micro_cfg(kind="hier-du"), make_vocab(), seed=11)
        e = usage_entry()
        before = model.forward(e).nll["usage"][0]
        model.def_stack.params()["def.gru0.W_z"].data += 0.5
        after = model.forward(e).nll["usage"][0]
        assert after != before

    def test_hier_du_zeroed_shortcut_block_cuts_def_influence(self):
        cfg = micro_cfg(kind="hier-du")
        model = DefinitionModel(cfg, make_vocab(), seed=11)
        g = gated_input_dim(cfg)
        model.shortcut.data[g:, :] = 0.0  # rows that multiply the re-run state
        e = usage_entry()
        before = model.forward(e).nll["usage"][0]
        for name, t in model.def_stack.params().items():
            t.data += 0.3
        after = model.forward(e).nll["usage"][0]
        assert after == before

    def test_hier_variants_differ(self):
        vocab = make_vocab()
        e = usage_entry()
        du = DefinitionModel(micro_cfg(kind="hier-du"), vocab, seed=12).forward(e)
        ud = DefinitionModel(micro_cfg(kind="hier-ud"), vocab, seed=12).forward(e)
        assert du.nll["definition"][0] != ud.nll["definition"][0]

    def test_loss_is_sum_of_task_means(self):
        model = DefinitionModel(micro_cfg(kind="parallel"), make_vocab(), seed=13)
        out = model.forward(usage_entry())
        means = sum(total / count for total, count in out.nll.values())
        assert abs(out.loss.item() - means) < 1e-12

    def test_single_loss_is_definition_mean(self):
        model = DefinitionModel(micro_cfg(), make_vocab(), seed=13)
        out = model.forward(entry())
        assert list(out.nll) == ["definition"]
        total, count = out.nll["definition"]
        assert abs(out.loss.item() - total / count) < 1e-12

    @pytest.mark.parametrize("kind", sorted(PINNED_SCORES))
    def test_scores_pinned(self, kind):
        cfg = micro_cfg(kind=kind, char_on=True, contextual_on=True)
        model = DefinitionModel(cfg, make_vocab(), seed=22)
        tasks, loss, nll = PINNED_SCORES[kind]
        out = model.forward_batch(padded_batch())
        assert model.tasks == tasks
        assert list(out.nll) == list(tasks)
        assert out.loss.item() == loss
        assert out.nll == nll

    @pytest.mark.parametrize("kind", ["parallel", "hier-du", "hier-ud"])
    def test_named_task_is_the_only_one_scored(self, kind):
        model = DefinitionModel(micro_cfg(kind=kind), make_vocab(), seed=23)
        both = model.forward_batch(padded_batch())
        for task in model.tasks:
            out = model.forward_batch(padded_batch(), (task,))
            assert out.nll == {task: both.nll[task]}
            assert abs(out.loss.item() - both.nll[task][0] / both.nll[task][1]) < 1e-12
        # Only the named task's text is required.
        no_usage = [entry(), padded_batch()[1]]
        out = model.forward_batch(no_usage, ("definition",))
        assert out.nll == {"definition": both.nll["definition"]}

    def test_task_the_model_lacks_rejected(self):
        model = DefinitionModel(micro_cfg(), make_vocab(), seed=23)
        for task in ("usage", "example"):
            with pytest.raises(ShapeError, match=f"no '{task}' task"):
                model.forward_batch([usage_entry()], (task,))

    @pytest.mark.parametrize("kind", ["parallel", "hier-du", "hier-ud"])
    @pytest.mark.parametrize("task", ["definition", "usage"])
    def test_sampling_step_reproduces_teacher_forcing(self, kind, task):
        model = DefinitionModel(micro_cfg(kind=kind), make_vocab(), seed=21)
        for entries in ([usage_entry()], padded_batch()):
            out = model.forward_batch(entries)
            recomputed, tokens = stepwise_nll(model, entries, task)
            total, count = out.nll[task]
            assert abs(total - recomputed) < 1e-9
            assert tokens == count


class TestGradients:
    def test_single_model_grad_check(self):
        model = DefinitionModel(micro_cfg(), make_vocab(), seed=14)
        e = entry()
        params = model.params()
        point = list(params.values())

        def f(*tensors):
            return model.forward(e).loss

        assert grad_check(f, point, coord_limit=2, seed=0) < 1e-3

    @pytest.mark.parametrize("case", ["single", "parallel", "hier-du", "hier-ud", "lm_loss"])
    def test_padded_batch_grad_check(self, case):
        # Time-major teacher forcing over entries of unequal lengths: a mix-up
        # of batch and time rows, or a leak through the padding, shows here.
        kind = "single" if case == "lm_loss" else case
        model = DefinitionModel(micro_cfg(kind=kind), make_vocab(), seed=14)
        entries = padded_batch()
        if case == "lm_loss":
            params = model.pretrainable_params()
            seqs = [model.vocab.encode(e.usage) for e in entries]

            def f(*tensors):
                return model.lm_loss(seqs).loss
        else:
            params = model.params()

            def f(*tensors):
                return model.forward_batch(entries).loss

        assert grad_check(f, list(params.values()), coord_limit=2, seed=0) < 1e-3

    def test_frozen_table_untouched_by_training_step(self):
        model = DefinitionModel(micro_cfg(), make_vocab(), seed=15)
        frozen_before = model.embedding.frozen.data.copy()
        params = model.params()
        state = AdamState(lr=0.01)
        for _ in range(3):
            zero_grads(params)
            with Tape() as tape:
                out = model.forward(entry())
                backward(tape, out.loss)
            adam_step(params, state)
        assert np.array_equal(model.embedding.frozen.data, frozen_before)

    def test_loss_decreases_on_repeated_steps(self):
        model = DefinitionModel(micro_cfg(), make_vocab(), seed=16)
        e = entry()
        params = model.params()
        state = AdamState(lr=5e-3)
        first = None
        last = None
        for _ in range(20):
            zero_grads(params)
            with Tape() as tape:
                out = model.forward(e)
                backward(tape, out.loss)
            adam_step(params, state)
            first = first if first is not None else out.loss.item()
            last = out.loss.item()
        assert last < first


class TestStateArrays:
    def test_round_trip(self):
        vocab = make_vocab()
        cfg = micro_cfg(kind="parallel")
        a = DefinitionModel(cfg, vocab, seed=17)
        b = DefinitionModel(cfg, vocab, seed=99)
        e = usage_entry()
        assert a.forward(e).nll != b.forward(e).nll
        b.load_state_arrays(a.state_arrays())
        assert a.forward(e).nll == b.forward(e).nll

    def test_shape_mismatch_rejected(self):
        vocab = make_vocab()
        a = DefinitionModel(micro_cfg(), vocab, seed=1)
        b = DefinitionModel(micro_cfg(d_s=12), vocab, seed=1)
        with pytest.raises(ShapeError):
            b.load_state_arrays(a.state_arrays())

    def test_name_mismatch_rejected(self):
        vocab = make_vocab()
        a = DefinitionModel(micro_cfg(), vocab, seed=1)
        b = DefinitionModel(micro_cfg(kind="parallel"), vocab, seed=1)
        with pytest.raises(ShapeError, match="checkpoint"):
            b.load_state_arrays(a.state_arrays())

    @pytest.mark.parametrize("edit", [lambda x: x[:-1], lambda x: x.astype(str)],
                             ids=["shape", "dtype"])
    def test_late_mismatch_leaves_model_unchanged(self, edit):
        vocab = make_vocab()
        a = DefinitionModel(micro_cfg(), vocab, seed=1)
        b = DefinitionModel(micro_cfg(), vocab, seed=2)
        before = {k: v.copy() for k, v in b.state_arrays().items()}
        arrays = a.state_arrays()
        last = list(arrays)[-1]
        arrays[last] = edit(arrays[last])
        with pytest.raises(ShapeError, match=last):
            b.load_state_arrays(arrays)
        for name, value in b.state_arrays().items():
            assert np.array_equal(value, before[name]), name


class TestGeneration:
    def test_same_seed_same_tokens(self):
        model = DefinitionModel(micro_cfg(), make_vocab(), seed=18)
        e = entry()
        t1, _ = model.generate(e, temperature=0.8, seed=5)
        t2, _ = model.generate(e, temperature=0.8, seed=5)
        assert t1 == t2

    def test_argmax_limit(self):
        model = DefinitionModel(micro_cfg(), make_vocab(), seed=18)
        e = entry()
        greedy, _ = model.generate(e, temperature=1e-9, seed=0)
        again, _ = model.generate(e, temperature=1e-9, seed=123)
        assert greedy == again

    def test_unknown_word_flagged(self):
        model = DefinitionModel(micro_cfg(), make_vocab(), seed=18)
        e = entry(word="zebra", context=["a", "zebra", "runs"])
        _, meta = model.generate(e, temperature=0.5, seed=0)
        assert meta["unknown_word"] is True

    def test_usage_generation_needs_multi(self):
        model = DefinitionModel(micro_cfg(), make_vocab(), seed=18)
        with pytest.raises(ShapeError):
            model.generate(entry(), task="usage")

    def test_multi_generates_both(self):
        for kind in ("parallel", "hier-du", "hier-ud"):
            model = DefinitionModel(micro_cfg(kind=kind), make_vocab(), seed=19)
            e = usage_entry()
            definition, _ = model.generate(e, task="definition", temperature=0.5, seed=1)
            usage, _ = model.generate(e, task="usage", temperature=0.5, seed=1)
            assert isinstance(definition, list) and isinstance(usage, list)

    def test_max_len_cap(self):
        model = DefinitionModel(micro_cfg(), make_vocab(), seed=20)
        tokens, _ = model.generate(entry(), temperature=5.0, seed=2, max_len=3)
        assert len(tokens) <= 3

    @pytest.mark.parametrize("kind", ["single", "parallel", "hier-du", "hier-ud"])
    def test_samples_pinned(self, kind):
        cfg = micro_cfg(kind=kind, char_on=True, contextual_on=True)
        model = DefinitionModel(cfg, make_vocab(), seed=22)
        cases = {k: v for k, v in PINNED_SAMPLES.items() if k[0] == kind}
        assert len(cases) == (2 if kind == "single" else 4)
        for (_, task, temperature), expected in cases.items():
            got = [model.generate(e, task=task, temperature=temperature, seed=3)[0]
                   for e in pinned_entries()]
            assert got == expected, (task, temperature)
