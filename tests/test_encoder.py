import numpy as np
import pytest

from glossgen import encoder as enc_mod
from glossgen.autodiff import ShapeError, Tape, Tensor, add, grad_check, mul, sum_all
from glossgen.encoder import ContextEncoder, GruCell, SenseAttention


def zeroed(cell):
    for t in cell.params().values():
        t.data[...] = 0.0
    return cell


class TestGruCell:
    def test_zero_params_halve_state(self):
        cell = zeroed(GruCell(np.random.default_rng(0), 3, 4, "c"))
        h = Tensor([[1.0, -2.0, 0.5, 4.0]])
        x = Tensor([[0.0, 0.0, 0.0]])
        out = cell.run(h, x)
        assert np.allclose(out.data, 0.5 * h.data)

    def test_zero_state_fixed_point(self):
        cell = zeroed(GruCell(np.random.default_rng(0), 3, 4, "c"))
        out = cell.run(cell.zero_state(1), Tensor([[0.0, 0.0, 0.0]]))
        assert np.allclose(out.data, 0.0)

    def test_batched_step(self):
        cell = GruCell(np.random.default_rng(1), 3, 4, "c")
        h = Tensor(np.random.default_rng(2).normal(size=(5, 4)))
        x = Tensor(np.random.default_rng(3).normal(size=(5, 3)))
        out = cell.run(h, x)
        assert out.shape == (5, 4)
        # row i of the batch equals a one-row step on row i
        one = cell.run(Tensor(h.data[2:3]), Tensor(x.data[2:3]))
        assert np.allclose(out.data[2], one.data[0])

    def test_dimension_mismatch(self):
        cell = GruCell(np.random.default_rng(0), 3, 4, "c")
        with pytest.raises(ShapeError, match="c:"):
            cell.run(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 3))))

    def test_gradient_check(self):
        rng = np.random.default_rng(4)
        cell = GruCell(rng, 3, 4, "c")
        h = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        x = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
        point = [h, x] + list(cell.params().values())

        def f(h, x, *params):
            out = cell.run(h, x)
            return sum_all(mul(out, out))

        assert grad_check(f, point) < 1e-6

    def test_one_step_run_matches_numpy_gru(self):
        cell = GruCell(np.random.default_rng(5), 3, 4, "c")
        h = Tensor(np.random.default_rng(6).normal(size=(2, 4)))
        x = Tensor(np.random.default_rng(7).normal(size=(2, 3)))
        with Tape() as tape:
            out = cell.run(h, x)
        p = {name[2:]: t.data for name, t in cell.params().items()}

        def gate(name, state):
            return (x.data @ p[f"W_{name}"] + p[f"b_{name}"]) + state @ p[f"U_{name}"]

        z = 1.0 / (1.0 + np.exp(-gate("z", h.data)))
        r = 1.0 / (1.0 + np.exp(-gate("r", h.data)))
        cand = np.tanh(gate("h", r * h.data))
        assert np.array_equal(out.data, h.data + z * (cand - h.data))
        # the textbook form: the update gate scales the candidate
        np.testing.assert_allclose(out.data, (1.0 - z) * h.data + z * cand, rtol=0, atol=1e-15)
        ops = [node.op for node in tape.nodes]
        assert ops and "slice" not in ops and "concat" not in ops

    def test_param_count(self):
        cell = GruCell(np.random.default_rng(0), 5, 7, "c")
        n = sum(t.size for t in cell.params().values())
        assert n == 3 * (5 * 7 + 7 * 7 + 7)


def make_encoder(seed=0, vocab=11, d_w=6, d_h=5, max_len=64):
    rng = np.random.default_rng(seed)
    return ContextEncoder(rng, rng.uniform(-0.1, 0.1, size=(vocab, d_w)), d_h, max_len=max_len)


class TestContextEncoder:
    def test_shapes(self):
        enc = make_encoder()
        H, v_c, lengths = enc.encode([[4, 5, 6, 7]])
        assert H.shape == (4, 10)
        assert v_c.shape == (1, 10)
        assert lengths == [4]

    def test_rows_are_fwd_bwd_concat(self):
        enc = make_encoder()
        H, _, _ = enc.encode([[4, 5, 6]])
        # forward half of row 0 equals a single forward step from zero state
        x0 = Tensor(enc.table.data[4:5])
        f0 = enc.fwd.run(enc.fwd.zero_state(1), x0)
        assert np.allclose(H.data[0, :5], f0.data[0])
        # backward half of the last row equals a single backward step
        x2 = Tensor(enc.table.data[6:7])
        b2 = enc.bwd.run(enc.bwd.zero_state(1), x2)
        assert np.allclose(H.data[2, 5:], b2.data[0])

    def test_pooling_is_dimensionwise_max(self):
        enc = make_encoder(seed=3)
        H, v_c, _ = enc.encode([[4, 5, 6, 7, 8]])
        assert np.array_equal(v_c.data[0], H.data.max(axis=0))

    def test_single_token_pooling_trivial(self):
        enc = make_encoder()
        H, v_c, _ = enc.encode([[9]])
        assert np.array_equal(v_c.data[0], H.data[0])

    def test_truncation(self):
        enc = make_encoder(max_len=3)
        H, _, lengths = enc.encode([[4, 5, 6, 7, 8, 9], [4, 5]])
        assert H.shape[0] == 5 and lengths == [3, 2]

    def test_empty_context_rejected(self):
        with pytest.raises(ShapeError):
            make_encoder().encode([[]])
        with pytest.raises(ShapeError):
            make_encoder().encode([[4, 5], []])

    def test_batch_rows_match_each_context_alone(self):
        # Unequal lengths and one past max_len: each context's block of H and
        # its row of v_c are what it gets alone, so no pad leaks in.
        enc = make_encoder(seed=7, max_len=5)
        contexts = [[4, 5, 6], [9], [4, 5, 6, 7, 8, 9, 10], [7, 8]]
        H, v_c, lengths = enc.encode(contexts)
        assert lengths == [3, 1, 5, 2] and H.shape == (11, 10) and v_c.shape == (4, 10)
        start = 0
        for b, context in enumerate(contexts):
            alone_H, alone_v_c, _ = enc.encode([context])
            block = H.data[start:start + lengths[b]]
            assert np.allclose(block, alone_H.data, rtol=0, atol=1e-12)
            assert np.array_equal(v_c.data[b], block.max(axis=0))
            assert np.allclose(v_c.data[b], alone_v_c.data[0], rtol=0, atol=1e-12)
            start += lengths[b]

    def test_unequal_length_batch_grad_check(self):
        enc = make_encoder(seed=8, d_w=4, d_h=3, max_len=4)
        contexts = [[4, 5], [6, 7, 8, 9, 10], [9]]

        def f(*params):
            H, v_c, _ = enc.encode(contexts)
            return add(sum_all(mul(H, H)), sum_all(mul(v_c, v_c)))

        assert grad_check(f, list(enc.params().values()), coord_limit=12) < 1e-6

    def test_gradients_reach_embedding_table(self):
        enc = make_encoder(seed=5)
        from glossgen.autodiff import Tape, backward
        with Tape() as tape:
            _, v_c, _ = enc.encode([[4, 5]])
            backward(tape, sum_all(mul(v_c, v_c)))
        assert np.any(enc.table.grad != 0)


class TestSenseAttention:
    def test_hand_oracle(self):
        # d_w=2, d=2, single-row query against two orthogonal keys
        attn = SenseAttention(np.random.default_rng(0), d_w=2, d_ctx=2, d_attn=2)
        attn._params["attn.W_Q"].data[...] = np.eye(2)
        attn._params["attn.W_K"].data[...] = np.eye(2)
        attn._params["attn.W_V"].data[...] = np.eye(2)
        attn._params["attn.W_O"].data[...] = np.eye(2)
        v_star = Tensor([[1.0, 0.0]])
        H = Tensor([[1.0, 0.0], [0.0, 1.0]])
        a_star, weights = attn.attend(v_star, H, [2])
        s = 1.0 / np.sqrt(2.0)
        expected_w = np.exp([s, 0.0]) / np.exp([s, 0.0]).sum()
        assert np.allclose(weights.data[0], expected_w, atol=1e-4)
        assert np.allclose(weights.data[0], [0.6698, 0.3302], atol=1e-4)
        assert np.allclose(a_star.data[0], [0.6698, 0.3302], atol=1e-4)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(1)
        attn = SenseAttention(rng, d_w=4, d_ctx=6, d_attn=5)
        for m in (1, 2, 7):
            H = Tensor(rng.normal(size=(m, 6)) * 10)
            _, w = attn.attend(Tensor(rng.normal(size=(1, 4))), H, [m])
            assert np.all(w.data >= 0)
            assert abs(w.data.sum() - 1.0) <= 1e-9

    def test_identical_keys_give_uniform_weights(self):
        rng = np.random.default_rng(2)
        attn = SenseAttention(rng, d_w=4, d_ctx=6, d_attn=5)
        row = rng.normal(size=6)
        H = Tensor(np.tile(row, (4, 1)))
        _, w = attn.attend(Tensor(rng.normal(size=(1, 4))), H, [4])
        assert np.allclose(w.data, 0.25)

    def test_single_row_ignores_query(self):
        rng = np.random.default_rng(3)
        attn = SenseAttention(rng, d_w=4, d_ctx=6, d_attn=5)
        H = Tensor(rng.normal(size=(1, 6)))
        a1, _ = attn.attend(Tensor(rng.normal(size=(1, 4))), H, [1])
        a2, _ = attn.attend(Tensor(rng.normal(size=(1, 4))), H, [1])
        assert np.allclose(a1.data, a2.data)

    def test_score_shift_invariance(self):
        # adding a constant to all scores leaves softmax unchanged; emulate by
        # shifting K so every inner product moves by the same amount
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 5))
        shifted = x + 3.0
        from glossgen.autodiff import softmax as sm
        assert np.allclose(sm(Tensor(x), axis=1).data, sm(Tensor(shifted), axis=1).data)

    def test_output_shape(self):
        rng = np.random.default_rng(5)
        attn = SenseAttention(rng, d_w=7, d_ctx=4, d_attn=3)
        a, w = attn.attend(Tensor(rng.normal(size=(1, 7))), Tensor(rng.normal(size=(6, 4))), [6])
        assert a.shape == (1, 7) and w.shape == (1, 6)
        a, w = attn.attend(Tensor(rng.normal(size=(2, 7))), Tensor(rng.normal(size=(6, 4))), [2, 4])
        assert a.shape == (2, 7) and w.shape == (2, 6)

    def test_each_query_reads_only_its_own_block(self):
        rng = np.random.default_rng(7)
        attn = SenseAttention(rng, d_w=4, d_ctx=6, d_attn=5)
        lengths = [3, 1, 2]
        queries = rng.normal(size=(3, 4))
        H = rng.normal(size=(6, 6))
        a_star, w = attn.attend(Tensor(queries), Tensor(H), lengths)
        ends = np.cumsum(lengths)
        for b, (n, end) in enumerate(zip(lengths, ends)):
            alone_a, alone_w = attn.attend(Tensor(queries[b:b + 1]), Tensor(H[end - n:end]), [n])
            assert np.all(np.delete(w.data[b], np.s_[end - n:end]) == 0.0)
            assert np.allclose(w.data[b, end - n:end], alone_w.data[0], rtol=0, atol=1e-12)
            assert np.allclose(a_star.data[b], alone_a.data[0], rtol=0, atol=1e-12)

    def test_blocks_must_cover_H(self):
        attn = SenseAttention(np.random.default_rng(8), d_w=4, d_ctx=6, d_attn=5)
        with pytest.raises(ShapeError, match="blocks"):
            attn.attend(Tensor(np.zeros((2, 4))), Tensor(np.zeros((5, 6))), [2, 2])
        with pytest.raises(ShapeError, match="v"):
            attn.attend(Tensor(np.zeros((1, 4))), Tensor(np.zeros((4, 6))), [2, 2])

    def test_end_to_end_gradient(self):
        # encoder -> attention composite, checked at loose model tolerance
        rng = np.random.default_rng(6)
        enc = ContextEncoder(rng, rng.uniform(-0.1, 0.1, size=(9, 4)), d_h=3)
        attn = SenseAttention(rng, d_w=4, d_ctx=6, d_attn=4)
        v_star = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        params = {**enc.params(), **attn.params()}
        point = [v_star] + list(params.values())

        def f(v_star, *rest):
            H, _, lengths = enc.encode([[4, 5, 6]])
            a_star, _ = attn.attend(v_star, H, lengths)
            return sum_all(mul(a_star, a_star))

        assert grad_check(f, point, coord_limit=6, seed=1) < 1e-3
