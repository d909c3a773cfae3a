import numpy as np
import pytest

from glossgen.autodiff import ShapeError, Tape, Tensor, adam_step, AdamState, backward, grad_check, mul, softmax, sum_all
from glossgen.config import ModelConfig
from glossgen.data import Vocabulary
from glossgen.decoder import (
    DecoderEmbedding,
    DecoderStack,
    GatedInputBuilder,
    InitStateProjector,
    sample_sequence,
)
from glossgen.models import DefinitionModel


class TestDecoderEmbedding:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.frozen = rng.normal(size=(10, 4))
        self.emb = DecoderEmbedding(self.frozen.copy(), np.random.default_rng(1))

    def test_regular_rows_from_frozen_table(self):
        out = self.emb.embed([5, 9])
        assert np.allclose(out.data, self.frozen[[5, 9]])

    def test_special_rows_from_trainable_table(self):
        out = self.emb.embed([2, 3])
        assert np.allclose(out.data, self.emb.specials.data[[2, 3]])

    def test_mixed_batch(self):
        out = self.emb.embed([1, 6])
        assert np.allclose(out.data[0], self.emb.specials.data[1])
        assert np.allclose(out.data[1], self.frozen[6])

    def test_only_specials_trainable(self):
        assert list(self.emb.params()) == ["emb.specials"]
        with Tape() as tape:
            out = self.emb.embed([2, 7])
            backward(tape, sum_all(mul(out, out)))
        assert np.any(self.emb.specials.grad != 0)
        assert self.emb.frozen.grad is None

    def test_frozen_rows_never_move(self):
        before = self.emb.frozen.data.copy()
        with Tape() as tape:
            out = self.emb.embed([2, 7])
            backward(tape, sum_all(mul(out, out)))
        adam_step(self.emb.params(), AdamState(lr=0.1))
        assert np.array_equal(self.emb.frozen.data, before)


class TestInitState:
    def make(self, variant, seed=0):
        return InitStateProjector(np.random.default_rng(seed), d_w=3, d_ctx=4,
                                  d_s=5, n_layers=2, variant=variant)

    def test_zeros_variant_no_params(self):
        proj = self.make("zeros")
        assert proj.params() == {}
        states = proj.init_state(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))))
        assert len(states) == 2
        assert all(np.all(s.data == 0) and s.shape == (2, 5) for s in states)

    def test_affine_at_origin_gives_bias(self):
        proj = self.make("both")
        proj._params["init.b_s"].data[...] = np.arange(5.0)
        states = proj.init_state(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 4))))
        assert np.allclose(states[0].data[0], np.arange(5.0))
        assert np.all(states[1].data == 0)

    def test_constant_map_when_weights_zero(self):
        proj = self.make("both")
        proj._params["init.W_s"].data[...] = 0.0
        proj._params["init.b_s"].data[...] = 0.7
        rng = np.random.default_rng(2)
        a = proj.init_state(Tensor(rng.normal(size=(1, 3))), Tensor(rng.normal(size=(1, 4))))
        b = proj.init_state(Tensor(rng.normal(size=(1, 3))), Tensor(rng.normal(size=(1, 4))))
        assert np.allclose(a[0].data, 0.7) and np.allclose(b[0].data, 0.7)

    def test_word_variant_ignores_context(self):
        proj = self.make("word", seed=1)
        rng = np.random.default_rng(3)
        v = Tensor(rng.normal(size=(1, 3)))
        s1 = proj.init_state(v, Tensor(rng.normal(size=(1, 4))))
        s2 = proj.init_state(v, Tensor(rng.normal(size=(1, 4))))
        assert np.allclose(s1[0].data, s2[0].data)

    def test_context_variant_ignores_word(self):
        proj = self.make("context", seed=1)
        rng = np.random.default_rng(4)
        c = Tensor(rng.normal(size=(1, 4)))
        s1 = proj.init_state(Tensor(rng.normal(size=(1, 3))), c)
        s2 = proj.init_state(Tensor(rng.normal(size=(1, 3))), c)
        assert np.allclose(s1[0].data, s2[0].data)

    def test_rows_must_match(self):
        proj = self.make("zeros")
        with pytest.raises(ShapeError, match="init_state"):
            proj.init_state(Tensor(np.zeros((2, 3))), Tensor(np.zeros((1, 4))))

    def test_unknown_variant(self):
        with pytest.raises(ShapeError):
            self.make("fancy")

    def test_param_presence_by_variant(self):
        assert set(self.make("both").params()) == {"init.W_s", "init.b_s"}
        assert set(self.make("word").params()) == {"init.W_s", "init.b_s"}
        assert self.make("zeros").params() == {}


class TestGatedInput:
    def make(self, char=16, ctx=8, gate=True, seed=0):
        return GatedInputBuilder(np.random.default_rng(seed), dim=8 + char + ctx,
                                 gate_on=gate, prefix="g")

    def rows(self, rng, dims):
        return [Tensor(rng.normal(size=(1, d))) for d in dims]

    def test_zero_gate_weights_halve_input(self):
        b = self.make()
        b._params["g.W_g"].data[...] = 0.0
        rng = np.random.default_rng(1)
        a, y, c, e = self.rows(rng, [4, 4, 16, 8])
        x = b.build([a, c, e], y)
        u = np.concatenate([a.data, y.data, c.data, e.data], axis=1)
        assert np.allclose(x.data, 0.5 * u)

    def test_zero_input_annihilates(self):
        b = self.make()
        a, y, c, e = [Tensor(np.zeros((1, d))) for d in (4, 4, 16, 8)]
        assert np.all(b.build([a, c, e], y).data == 0)

    def test_mask_excluding_char_and_ctx(self):
        b = self.make(char=0, ctx=0)
        assert b.dim == 8
        rng = np.random.default_rng(2)
        a, y = self.rows(rng, [4, 4])
        assert b.build([a], y).shape == (1, 8)

    def test_inactive_component_supplied_rejected(self):
        # a char feature handed to a builder made without one fails the width check
        b = self.make(char=0, ctx=8)
        rng = np.random.default_rng(3)
        a, y, c, e = self.rows(rng, [4, 4, 16, 8])
        with pytest.raises(ShapeError, match="assembled dim 32, expected 16"):
            b.build([a, c, e], y)

    def test_active_component_missing_rejected(self):
        b = self.make()
        rng = np.random.default_rng(4)
        a, y, c, e = self.rows(rng, [4, 4, 16, 8])
        with pytest.raises(ShapeError, match="assembled dim 16, expected 32"):
            b.build([a, e], y)

    def test_gate_off_identity_and_no_params(self):
        b = self.make(gate=False)
        assert b.params() == {}
        rng = np.random.default_rng(5)
        a, y, c, e = self.rows(rng, [4, 4, 16, 8])
        x = b.build([a, c, e], y)
        u = np.concatenate([t.data for t in (a, y, c, e)], axis=1)
        assert np.array_equal(x.data, u)

    def test_gate_output_in_open_interval(self):
        b = self.make()
        rng = np.random.default_rng(6)
        a, y, c, e = self.rows(rng, [4, 4, 16, 8])
        u = np.concatenate([t.data for t in (a, y, c, e)], axis=1)
        x = b.build([a, c, e], y)
        g = x.data / np.where(u == 0, 1, u)
        assert np.all((g > 0) & (g < 1) | (u == 0))


class TestDecoderStack:
    def make(self, vocab=7, seed=0):
        return DecoderStack(np.random.default_rng(seed), input_dim=6, d_s=5,
                            vocab_size=vocab, n_layers=2, gate_on=False, prefix="dec")

    def zero_states(self, stack, batch=1):
        return [Tensor(np.zeros((batch, stack.d_s))) for _ in range(stack.n_layers)]

    def test_distribution_is_probability_vector(self):
        stack = self.make()
        rng = np.random.default_rng(1)
        states = stack.step(self.zero_states(stack), Tensor(rng.normal(size=(1, 6))))
        dist = softmax(stack.logits(states[-1]), axis=1)
        assert abs(dist.data.sum() - 1.0) <= 1e-9
        assert np.all(dist.data > 0)

    def test_zero_projection_uniform(self):
        stack = self.make(vocab=10)
        stack._params["dec.W_d"].data[...] = 0.0
        stack._params["dec.b_d"].data[...] = 0.0
        states = stack.step(self.zero_states(stack),
                            Tensor(np.random.default_rng(2).normal(size=(1, 6))))
        dist = softmax(stack.logits(states[-1]), axis=1)
        assert np.allclose(dist.data, 0.1)

    def test_two_layers_threaded(self):
        stack = self.make()
        states = stack.step(self.zero_states(stack),
                            Tensor(np.random.default_rng(3).normal(size=(1, 6))))
        assert len(states) == 2
        assert not np.allclose(states[0].data, states[1].data)

    def test_wrong_state_count(self):
        stack = self.make()
        with pytest.raises(ShapeError):
            stack.step([Tensor(np.zeros((1, 5)))], Tensor(np.zeros((1, 6))))

    def test_grad_check_through_stack(self):
        stack = self.make(vocab=5, seed=4)
        params = stack.params()
        x = Tensor(np.random.default_rng(5).normal(size=(1, 6)), requires_grad=True)
        point = [x] + list(params.values())

        def f(x, *rest):
            logits = stack.logits(stack.step(self.zero_states(stack), x)[-1])
            return sum_all(mul(logits, logits))

        assert grad_check(f, point, coord_limit=10, seed=0) < 1e-6


class ToyStepFn:
    """Fixed-logits step function for testing the sequence ops."""

    def __init__(self, logits_by_step):
        self.logits_by_step = logits_by_step
        self.t = 0

    def __call__(self, state, prev_id):
        z = self.logits_by_step[min(self.t, len(self.logits_by_step) - 1)]
        self.t += 1
        return state, Tensor(np.array([z]))


def lm_model(seed=0):
    cfg = ModelConfig(d_w=8, d_h=4, d_s=8, d_attn=8, d_e=8, char_on=False,
                      contextual_on=False)
    return DefinitionModel(cfg, Vocabulary(["cat", "dog", "sun", "tree"]), seed=seed)


class TestSequenceLogProb:
    """Teacher-forced scoring of a raw id sequence through ``lm_loss``: the
    start marker is fed but never predicted, the end marker is predicted
    after the last token, so a sequence of length T scores T+1 positions."""

    def test_uniform_decoder(self):
        model = lm_model()
        model.def_stack._params["def.W_d"].data[...] = 0.0
        model.def_stack._params["def.b_d"].data[...] = 0.0
        total, count = model.lm_loss([[4, 5, 6]]).nll["definition"]
        assert count == 3 + 1
        assert abs(total - (3 + 1) * np.log(8)) < 1e-12

    def test_matches_per_step_recomputation(self):
        model = lm_model(seed=7)
        seq = [4, 7, 5]
        total, _ = model.lm_loss([seq]).nll["definition"]
        route = (None, model.def_stack)
        zeros = lambda n: Tensor(np.zeros((1, n)))  # noqa: E731
        states = ([zeros(8), zeros(8)], [zeros(8), zeros(8)])
        expected = 0.0
        for prev, gold in zip([model.vocab.bos_id] + seq, seq + [model.vocab.eos_id]):
            states, logits = model._decode(route, states, [prev], [zeros(8)])
            z = logits.data[0]
            expected -= z[gold] - z.max() - np.log(np.exp(z - z.max()).sum())
        assert abs(total - expected) < 1e-9

    def test_empty_target_rejected(self):
        with pytest.raises(ShapeError):
            lm_model().lm_loss([[]])

    def test_gradient_reaches_logit_source(self):
        model = lm_model()
        w_d = model.def_stack.params()["def.W_d"]
        with Tape() as tape:
            backward(tape, model.lm_loss([[4]]).loss)
        assert np.any(w_d.grad != 0)


class TestSampling:
    def test_argmax_below_threshold(self):
        fn = ToyStepFn([[0.0, 5.0, 1.0, 0.0], [0.0, 0.0, 0.0, 9.0]])
        out = sample_sequence(fn, None, bos_id=2, eos_id=3, max_len=10,
                              temperature=1e-7, rng=np.random.default_rng(0))
        assert out == [1]  # argmax then eos

    def test_same_seed_same_sequence(self):
        logits = [list(np.random.default_rng(1).normal(size=6)) for _ in range(5)]

        def run(seed):
            return sample_sequence(ToyStepFn(logits), None, 2, 3, max_len=5,
                                   temperature=0.8, rng=np.random.default_rng(seed))

        assert run(11) == run(11)

    def test_max_len_respected(self):
        fn = ToyStepFn([[9.0, 0.0]])  # never emits eos id 1
        out = sample_sequence(fn, None, bos_id=0, eos_id=1, max_len=4,
                              temperature=1e-9, rng=np.random.default_rng(0))
        assert len(out) == 4

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_sequence(ToyStepFn([[0.0]]), None, 0, 1, 5, 0.0,
                            np.random.default_rng(0))

    def test_low_temperature_concentrates(self):
        # tau=0.05 on a clearly peaked distribution behaves like argmax
        fn = ToyStepFn([[0.0, 3.0, 0.0, 0.0], [0.0, 0.0, 0.0, 9.0]])
        out = sample_sequence(fn, None, 2, 3, max_len=10, temperature=0.05,
                              rng=np.random.default_rng(2))
        assert out == [1]
