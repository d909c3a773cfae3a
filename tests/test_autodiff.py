import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import glossgen
from glossgen import autodiff as ad
from glossgen.autodiff import (
    AdamState,
    AutodiffError,
    NumericalError,
    ShapeError,
    Tape,
    Tensor,
    adam_step,
    backward,
    clip_global_norm,
    grad_check,
    sum_all,
)


def rand_param(rng, shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


def reference_adam(data, grads, m, v, t, grad_scale, lr=1e-3, b1=0.9, b2=0.999,
                   eps=1e-8):
    """Whole-array Adam after clip scaling, one full pass per operation."""
    for name in data:
        g = grads[name] * grad_scale
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * (g * g)
        data[name] -= lr * (m[name] / (1.0 - b1 ** t)) / (
            np.sqrt(v[name] / (1.0 - b2 ** t)) + eps)


def record_pools(monkeypatch):
    """The worker count of every thread pool ``adam_step`` opens, in order."""
    pools = []

    class Recording(ad.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(ad, "ThreadPoolExecutor", Recording)
    return pools


class TestForward:
    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(4, 4)))
        eye = Tensor(np.eye(4))
        out = ad.matmul(a, eye)
        assert np.array_equal(out.data, a.data)

    def test_matmul_shapes(self):
        rng = np.random.default_rng(1)
        m = Tensor(rng.normal(size=(3, 5)))
        n = Tensor(rng.normal(size=(5, 2)))
        v = Tensor(rng.normal(size=5))
        assert ad.matmul(m, n).shape == (3, 2)
        assert ad.matmul(v, n).shape == (2,)
        assert ad.matmul(m, v).shape == (3,)
        assert ad.matmul(v, Tensor(rng.normal(size=5))).shape == ()
        assert ad.matmul(m, m, transpose_b=True).shape == (3, 3)
        assert ad.matmul(m, m, transpose_a=True).shape == (5, 5)

    def test_softmax_uniform(self):
        out = ad.softmax(Tensor([0.0, 0.0, 0.0]))
        assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(6, 9)) * 30.0)
        out = ad.softmax(x, axis=1)
        assert np.all(np.abs(out.data.sum(axis=1) - 1.0) <= 1e-12)

    def test_softmax_large_logits_stable(self):
        out = ad.softmax(Tensor([1000.0, 1000.0, -1000.0]))
        assert np.allclose(out.data, [0.5, 0.5, 0.0])

    def test_max_over_axis_example(self):
        x = Tensor([[1.0, -2.0], [3.0, 0.0], [2.0, 5.0]])
        out = ad.max_over_axis(x, axis=0)
        assert np.array_equal(out.data, [3.0, 5.0])
        kept = ad.max_over_axis(x, axis=0, keepdims=True)
        assert kept.shape == (1, 2)

    def test_add_bias_broadcast(self):
        x = Tensor(np.ones((2, 3)))
        b = Tensor([1.0, 2.0, 3.0])
        out = ad.add(x, b)
        assert np.array_equal(out.data, [[2, 3, 4], [2, 3, 4]])

    def test_concat_axis1(self):
        a = Tensor(np.zeros((2, 2)))
        b = Tensor(np.ones((2, 3)))
        out = ad.concat([a, b], axis=1)
        assert out.shape == (2, 5)

    def test_embedding_lookup_duplicates(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = ad.embedding_lookup(table, [1, 1, 3])
        assert np.array_equal(out.data[0], out.data[1])
        assert np.array_equal(out.data[2], table.data[3])

    def test_conv1d_length(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(8, 4)))
        k = Tensor(rng.normal(size=(3, 4, 5)))
        assert ad.conv1d(x, k).shape == (6, 5)

    def test_cross_entropy_matches_log_softmax(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(5, 7))
        targets = rng.integers(0, 7, size=5)
        out = ad.cross_entropy_from_logits(Tensor(z), targets)
        logp = z - np.log(np.exp(z - z.max(axis=1, keepdims=True)).sum(axis=1, keepdims=True)) \
            - z.max(axis=1, keepdims=True)
        expected = -logp[np.arange(5), targets]
        assert np.allclose(out.data, expected)

    def test_slice(self):
        x = Tensor(np.arange(10.0).reshape(2, 5))
        out = ad.slice_axis(x, axis=1, start=1, stop=4)
        assert np.array_equal(out.data, [[1, 2, 3], [6, 7, 8]])

    def test_sigmoid_saturates_exactly_without_warning(self):
        x = Tensor([-1000.0, -745.0, 0.0, 745.0, 1000.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = ad.sigmoid(x).data
        assert y.tolist() == [0.0, 0.0, 0.5, 1.0, 1.0]

    def test_sigmoid_matches_scalar_formula(self):
        grid = np.linspace(-700.0, 700.0, 28001)
        y = ad.sigmoid(Tensor(grid)).data
        ref = np.array([1.0 / (1.0 + math.exp(-v)) for v in grid])
        assert np.all(np.abs(y - ref) <= 1e-15 * ref)


class TestBackward:
    def test_square_gradient(self):
        # d/dx sum(x*x) = 2x
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with Tape() as tape:
            loss = sum_all(ad.mul(x, x))
            backward(tape, loss)
        assert np.allclose(x.grad, [2.0, 4.0, 6.0])

    def test_sigmoid_at_zero(self):
        x = Tensor([0.0], requires_grad=True)
        with Tape() as tape:
            loss = sum_all(ad.sigmoid(x))
            backward(tape, loss)
        assert abs(x.grad[0] - 0.25) < 1e-12

    def test_reused_leaf_accumulates(self):
        # y = x*x + x  => dy/dx = 2x + 1
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            loss = sum_all(ad.add(ad.mul(x, x), x))
            backward(tape, loss)
        assert np.allclose(x.grad, [7.0])

    def test_grad_accumulates_across_calls(self):
        x = Tensor([2.0], requires_grad=True)
        for _ in range(2):
            with Tape() as tape:
                backward(tape, sum_all(ad.mul(x, x)))
        assert np.allclose(x.grad, [8.0])

    def test_max_ties_route_to_first(self):
        x = Tensor([[2.0, 2.0, 1.0]], requires_grad=True)
        with Tape() as tape:
            backward(tape, sum_all(ad.max_over_axis(x, axis=1)))
        assert np.array_equal(x.grad, [[1.0, 0.0, 0.0]])

    def test_no_tape_records_nothing(self):
        x = Tensor([1.0], requires_grad=True)
        out = ad.tanh(x)
        assert out.requires_grad is False

    def test_constant_inputs_not_recorded(self):
        x = Tensor([1.0])
        with Tape() as tape:
            ad.tanh(x)
        assert tape.nodes == []

    def test_loss_must_be_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = ad.mul(x, x)
            with pytest.raises(ShapeError):
                backward(tape, y)

    def test_loss_must_be_on_tape(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape():
            loss = sum_all(ad.mul(x, x))
        with Tape() as other:
            with pytest.raises(AutodiffError):
                backward(other, loss)

    def test_loss_need_not_be_last_node(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            loss = sum_all(ad.mul(x, x))
            ad.tanh(x)
            assert tape.nodes[-1].output is not loss
            backward(tape, loss)
        assert np.array_equal(x.grad, [6.0])


def backward_keeping_output_grads(tape, loss):
    """``backward``, then check that no array a backward rule read as its
    output's gradient changed after the rule was handed it: a contribution
    that lands in an array some rule handed on uncopied would show here.
    Each array is held with a copy taken before its rule ran, since the
    sweep drops ``node.output.grad`` once the rule has run."""
    seen = []
    for node in tape.nodes:
        def rule(g, _run=node.backward_fn, _op=node.op):
            seen.append((_op, g, g.copy()))
            _run(g)
        node.backward_fn = rule
    backward(tape, loss)
    for op, g, before in seen:
        assert np.array_equal(g, before), op


class TestGradientContract:
    """``grad`` is None until the first contribution, which becomes the
    gradient without a zero buffer; Adam drops it again."""

    def test_new_tensors_hold_no_gradient(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape():
            y = ad.tanh(x)
        assert x.grad is None and y.grad is None

    @pytest.mark.parametrize("use_twice, expected", [
        (lambda x: ad.add(x, x), lambda x, w: 2.0 * w),
        (lambda x: ad.concat([x, x], axis=1), lambda x, w: w[:, :3] + w[:, 3:]),
        (lambda x: ad.mul(x, x), lambda x, w: 2.0 * x * w),
    ], ids=["add", "concat", "mul"])
    def test_tensor_used_twice(self, use_twice, expected):
        # x is read again earlier on the tape, so its later contributions land
        # after the twice-use rule has stored its first one
        rng = np.random.default_rng(30)
        x = rand_param(rng, (2, 3))
        w = rng.normal(size=use_twice(Tensor(np.ones((2, 3)))).shape)
        v = rng.normal(size=(2, 3))
        with Tape() as tape:
            early = ad.mul(x, Tensor(v))
            twice = use_twice(x)
            loss = ad.add(sum_all(ad.mul(twice, Tensor(w))), sum_all(early))
            backward_keeping_output_grads(tape, loss)
        assert np.allclose(x.grad, expected(x.data, w) + v, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("op", ["add", "concat", "scale", "slice"])
    def test_intermediate_used_twice_keeps_output_grads(self, op):
        # h is read by the op first, then again by mul earlier on the tape
        rng = np.random.default_rng(31)
        x = rand_param(rng, (3, 4))
        use = {"add": lambda h: ad.add(h, h), "concat": lambda h: ad.concat([h], axis=0),
               "scale": lambda h: ad.scale(h, 1.0),
               "slice": lambda h: ad.slice_axis(h, 0, 0, 3)}[op]

        def f(x):
            h = ad.tanh(x)
            return ad.add(sum_all(ad.mul(h, h)), sum_all(use(h)))

        with Tape() as tape:
            backward_keeping_output_grads(tape, f(x))
        assert grad_check(f, [x]) < 1e-6

    def test_transposed_operands_get_contiguous_gradients(self):
        rng = np.random.default_rng(32)
        a = rand_param(rng, (4, 3))
        b = rand_param(rng, (2, 4))
        with Tape() as tape:
            backward(tape, sum_all(ad.matmul(a, b, transpose_a=True, transpose_b=True)))
        assert a.grad.flags.c_contiguous and b.grad.flags.c_contiguous
        assert np.allclose(a.grad, np.outer(b.data.sum(axis=0), np.ones(3)))
        adam_step({"a": a, "b": b}, AdamState())
        assert a.grad is None and b.grad is None

    def test_branch_without_gradient_is_skipped(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        z = Tensor([3.0, 4.0], requires_grad=True)
        with Tape() as tape:
            dead = ad.tanh(ad.mul(z, x))
            loss = sum_all(ad.mul(x, x))
        dead_nodes = [n for n in tape.nodes if n.output is dead or n.inputs[0] is z]
        for node in dead_nodes:
            node.backward_fn = None  # calling it would raise TypeError
        backward(tape, loss)
        assert dead.grad is None and z.grad is None
        assert np.array_equal(x.grad, [2.0, 4.0])

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_adam_reads_missing_gradient_as_zeros(self, monkeypatch, cpus):
        # a missing gradient after a real one: m and v decay, the parameter
        # still moves, and every bit matches an explicit zero gradient
        monkeypatch.setattr(ad.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        rng = np.random.default_rng(33)
        shapes = {"big": (2 * ad.ADAM_CHUNK + 9,), "small": (3, 5)}
        first = {n: rng.normal(size=s) for n, s in shapes.items()}
        init = {n: rng.normal(size=s) for n, s in shapes.items()}
        runs = []
        for missing in (True, False):
            params = {n: Tensor(init[n], requires_grad=True) for n in shapes}
            state = AdamState(lr=0.01)
            for n, p in params.items():
                p.grad = first[n].copy()
            adam_step(params, state, 0.5)
            for n, p in params.items():
                p.grad = None if missing else np.zeros(shapes[n])
            adam_step(params, state, 0.5)
            assert all(p.grad is None for p in params.values())
            runs.append({n: (p.data.tobytes(), state.m[n].tobytes(), state.v[n].tobytes())
                         for n, p in params.items()})
        assert runs[0] == runs[1]
        assert runs[0]["big"][0] != Tensor(init["big"]).data.tobytes()

    def test_zero_grads_drops_every_gradient(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            backward(tape, sum_all(ad.mul(x, x)))
        ad.zero_grads({"x": x})
        assert x.grad is None

    def test_grad_check_ignores_stale_gradients(self):
        rng = np.random.default_rng(34)
        x = rand_param(rng, (3,))
        x.grad = np.full(3, 1e6)
        assert grad_check(lambda x: sum_all(ad.tanh(x)), [x]) < 1e-6


def close(actual, expected, rel=1e-12):
    """Within ``rel`` of the expected array's largest entry."""
    return np.max(np.abs(actual - expected)) <= rel * np.max(np.abs(expected))


# the upstream gradient of each read in ``several_reads``
READ_WEIGHTS = [np.random.default_rng(40).normal(size=s)
                for s in ((5, 3), (3,), (2, 4), (4,))]


def several_reads(W, x, row, xt, v):
    """W read as a matmul right operand three times (one read transposed,
    one by a 1-d row) and once as a left operand; v read as a 1-d right
    operand, which is not deferred. Each read's upstream gradient is its
    entry of ``READ_WEIGHTS``."""
    outs = [ad.matmul(x, W), ad.matmul(row, W), ad.matmul(xt, W, transpose_b=True),
            ad.matmul(W, v)]
    terms = [sum_all(ad.mul(o, Tensor(w))) for o, w in zip(outs, READ_WEIGHTS)]
    loss = terms[0]
    for term in terms[1:]:
        loss = ad.add(loss, term)
    return loss


class TestDeferredWeightProducts:
    """A leaf read as a 2-d matmul right operand gets one product, formed
    after the sweep's last rule, over the rows of every such read."""

    @staticmethod
    def operands(seed=41):
        rng = np.random.default_rng(seed)
        return [rand_param(rng, s) for s in ((4, 3), (5, 4), (4,), (2, 3), (3,))]

    def test_products_match_separate_ones(self):
        W, x, row, xt, v = point = self.operands()
        pending = []
        with Tape() as tape:
            loss = several_reads(*point)
        first = tape.nodes[0]
        assert first.op == "matmul" and first.inputs == (x, W)

        def last_rule(g, _run=first.backward_fn):
            _run(g)
            pending.append(len(tape.deferred[id(W)][1]))
        first.backward_fn = last_rule
        backward(tape, loss)
        # the three right-operand reads wait for the one product after the sweep
        assert pending == [3] and not tape.deferred
        g1, g2, g3, g4 = READ_WEIGHTS
        expected_W = (x.data.T @ g1 + np.outer(row.data, g2) + (xt.data.T @ g3).T
                      + np.outer(g4, v.data))
        assert close(W.grad, expected_W)
        assert close(v.grad, W.data.T @ g4)
        assert close(x.grad, g1 @ W.data.T)
        assert close(row.grad, W.data @ g2)
        assert close(xt.grad, g3 @ W.data)
        assert grad_check(several_reads, point) < 1e-6

    def test_two_sweeps_before_adam_accumulate(self):
        point = self.operands()
        with Tape() as tape:
            backward(tape, several_reads(*point))
        once = [p.grad.copy() for p in point]
        with Tape() as tape:
            backward(tape, several_reads(*point))
        for p, g in zip(point, once):
            assert close(p.grad, 2.0 * g)

    def test_every_leaf_gradient_is_contiguous(self):
        point = self.operands()
        with Tape() as tape:
            backward(tape, several_reads(*point))
        assert all(p.grad.flags.c_contiguous for p in point)
        adam_step({str(i): p for i, p in enumerate(point)}, AdamState())
        assert all(p.grad is None for p in point)

    def test_failed_sweep_leaves_no_pending_product(self):
        rng = np.random.default_rng(42)
        x0, W = rand_param(rng, (3, 4)), rand_param(rng, (4, 2))
        with Tape() as tape:
            loss = sum_all(ad.matmul(ad.tanh(x0), W))
        tanh_node = tape.nodes[0]

        def fail(g):
            raise RuntimeError("rule failed")
        tanh_node.backward_fn = fail
        with pytest.raises(RuntimeError):
            backward(tape, loss)
        assert not tape.deferred and W.grad is None
        tanh_node.backward_fn = lambda g: None
        backward(tape, loss)
        assert close(W.grad, np.tanh(x0.data).T @ np.ones((3, 2)))


# (stored shape of a, stored shape of b, transpose_a, transpose_b), m=2, k=3, n=4
MATMUL_FORMS = {
    "mk@kn": ((2, 3), (3, 4), False, False),
    "km.T@kn": ((3, 2), (3, 4), True, False),
    "mk@nk.T": ((2, 3), (4, 3), False, True),
    "km.T@nk.T": ((3, 2), (4, 3), True, True),
    "k@kn": ((3,), (3, 4), False, False),
    "k@nk.T": ((3,), (4, 3), False, True),
    "mk@k": ((2, 3), (3,), False, False),
    "km.T@k": ((3, 2), (3,), True, False),
    "k@k": ((3,), (3,), False, False),
}


class TestMatmulOperandForms:
    """Every operand form of ``matmul`` gives, bit for bit, the products
    numpy forms from explicit 2-d views: a vector is one row on the left or
    one column on the right, a transpose flag is ``.T``. The right operand
    is read both as a leaf (its product formed after the sweep) and as a
    node's output (its product formed in the rule)."""

    @staticmethod
    def run(A, B, G, ta, tb, b_is_leaf):
        """(value, gradient of a, gradient of b) with upstream gradient G."""
        a, b0 = Tensor(A, requires_grad=True), Tensor(B, requires_grad=True)
        handed = []
        with Tape() as tape:
            b = b0 if b_is_leaf else ad.scale(b0, 1.0)
            out = ad.matmul(a, b, transpose_a=ta, transpose_b=tb)
            # every upstream factor is an exact 1.0, so out's gradient is G
            loss = sum_all(ad.mul(out, Tensor(G)))
        if not b_is_leaf:
            producer = tape.nodes[0]

            def rule(g, _run=producer.backward_fn):
                handed.append(g)
                _run(g)
            producer.backward_fn = rule
        backward(tape, loss)
        return out.data, a.grad, (b0.grad if b_is_leaf else handed[0])

    @pytest.mark.parametrize("b_is_leaf", [True, False], ids=["leaf", "node"])
    @pytest.mark.parametrize("form", MATMUL_FORMS)
    def test_matches_products_of_2d_views(self, form, b_is_leaf):
        a_shape, b_shape, ta, tb = MATMUL_FORMS[form]
        rng = np.random.default_rng(43)
        A, B = rng.normal(size=a_shape), rng.normal(size=b_shape)
        A2 = A.reshape(1, -1) if A.ndim == 1 else (A.T if ta else A)
        B2 = B.reshape(-1, 1) if B.ndim == 1 else (B.T if tb else B)
        out_shape = A2.shape[:A.ndim - 1] + B2.shape[1:B.ndim]
        G = rng.normal(size=out_shape)
        G2 = G.reshape(A2.shape[0], B2.shape[1])
        expected_a = G2 @ B2.T
        expected_a = expected_a.T if ta else expected_a.reshape(a_shape)
        if b_is_leaf and B.ndim == 2:
            expected_b = G2.T @ A2 if tb else A2.T @ G2
        else:
            expected_b = A2.T @ G2
            expected_b = expected_b.T if tb else expected_b.reshape(b_shape)
        value, grad_a, grad_b = self.run(A, B, G, ta, tb, b_is_leaf)
        assert value.shape == out_shape
        assert np.array_equal(value, (A2 @ B2).reshape(out_shape))
        for grad, expected, shape in ((grad_a, expected_a, a_shape),
                                      (grad_b, expected_b, b_shape)):
            assert grad.shape == shape and grad.flags.c_contiguous
            assert np.array_equal(grad, expected)


class TestGradCheck:
    TOL = 1e-6

    def test_matmul(self):
        rng = np.random.default_rng(10)
        a = rand_param(rng, (3, 4))
        b = rand_param(rng, (4, 2))
        err = grad_check(lambda a, b: sum_all(ad.matmul(a, b)), [a, b])
        assert err < self.TOL

    def test_matmul_transposed(self):
        rng = np.random.default_rng(11)
        a = rand_param(rng, (4, 3))
        b = rand_param(rng, (2, 4))
        err = grad_check(
            lambda a, b: sum_all(ad.matmul(a, b, transpose_a=True, transpose_b=True)), [a, b])
        assert err < self.TOL

    def test_add(self):
        rng = np.random.default_rng(12)
        a = rand_param(rng, (3, 4))
        b = rand_param(rng, (4,))
        err = grad_check(lambda a, b: sum_all(ad.add(a, b)), [a, b])
        assert err < self.TOL

    def test_concat(self):
        rng = np.random.default_rng(13)
        a = rand_param(rng, (2, 3))
        b = rand_param(rng, (2, 2))

        def f(a, b):
            joined = ad.concat([a, b], axis=1)
            return sum_all(ad.mul(joined, joined))

        assert grad_check(f, [a, b]) < self.TOL

    def test_mul(self):
        rng = np.random.default_rng(14)
        a = rand_param(rng, (5,))
        b = rand_param(rng, (5,))
        assert grad_check(lambda a, b: sum_all(ad.mul(a, b)), [a, b]) < self.TOL

    def test_sigmoid(self):
        rng = np.random.default_rng(15)
        x = rand_param(rng, (4, 3), lo=-2.0, hi=2.0)
        assert grad_check(lambda x: sum_all(ad.sigmoid(x)), [x]) < self.TOL

    def test_tanh(self):
        rng = np.random.default_rng(16)
        x = rand_param(rng, (4, 3), lo=-2.0, hi=2.0)
        assert grad_check(lambda x: sum_all(ad.tanh(x)), [x]) < self.TOL

    def test_softmax(self):
        rng = np.random.default_rng(17)
        x = rand_param(rng, (3, 5))
        w = np.random.default_rng(99).normal(size=(3, 5))

        def f(x):
            # weight rows so the gradient is not the degenerate all-zeros one
            return sum_all(ad.mul(ad.softmax(x, axis=1), Tensor(w)))

        assert grad_check(f, [x]) < self.TOL

    def test_max_over_axis(self):
        rng = np.random.default_rng(18)
        x = rand_param(rng, (4, 6))
        assert grad_check(lambda x: sum_all(ad.max_over_axis(x, axis=0)), [x]) < self.TOL

    def test_embedding_lookup(self):
        rng = np.random.default_rng(19)
        table = rand_param(rng, (6, 4))
        ids = [0, 3, 3, 5]

        def f(table):
            rows = ad.embedding_lookup(table, ids)
            return sum_all(ad.mul(rows, rows))

        assert grad_check(f, [table]) < self.TOL

    def test_conv1d(self):
        rng = np.random.default_rng(20)
        x = rand_param(rng, (7, 3))
        k = rand_param(rng, (3, 3, 4))

        def f(x, k):
            out = ad.conv1d(x, k)
            return sum_all(ad.mul(out, out))

        assert grad_check(f, [x, k]) < self.TOL

    def test_cross_entropy(self):
        rng = np.random.default_rng(21)
        logits = rand_param(rng, (4, 6))
        targets = [0, 2, 5, 2]
        err = grad_check(
            lambda z: sum_all(ad.cross_entropy_from_logits(z, targets)), [logits])
        assert err < self.TOL

    def test_scale(self):
        rng = np.random.default_rng(22)
        x = rand_param(rng, (3, 3))
        assert grad_check(lambda x: sum_all(ad.scale(x, -2.5)), [x]) < self.TOL

    def test_slice(self):
        rng = np.random.default_rng(23)
        x = rand_param(rng, (4, 6))

        def f(x):
            part = ad.slice_axis(x, axis=1, start=1, stop=5)
            return sum_all(ad.mul(part, part))

        assert grad_check(f, [x]) < self.TOL

    def test_coord_limit_subsamples(self):
        rng = np.random.default_rng(24)
        x = rand_param(rng, (10, 10))
        err = grad_check(lambda x: sum_all(ad.mul(x, x)), [x], coord_limit=5, seed=7)
        assert err < self.TOL

    def test_rejects_nonpositive_h(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            grad_check(lambda x: sum_all(x), [x], h=0.0)

    def test_deterministic(self):
        def run():
            rng = np.random.default_rng(25)
            x = rand_param(rng, (6, 6))
            return grad_check(lambda x: sum_all(ad.tanh(x)), [x], coord_limit=10, seed=3)

        assert run() == run()


class TestShapeAndNumericalErrors:
    def test_matmul_mismatch(self):
        with pytest.raises(ShapeError, match="matmul"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_add_mismatch(self):
        with pytest.raises(ShapeError, match="add"):
            ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))

    def test_mul_no_broadcast(self):
        with pytest.raises(ShapeError, match="elementwise-mul"):
            ad.mul(Tensor(np.ones((2, 3))), Tensor(np.ones(3)))

    def test_concat_mismatch(self):
        with pytest.raises(ShapeError, match="concat"):
            ad.concat([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))], axis=1)

    def test_conv_kernel_too_wide(self):
        with pytest.raises(ShapeError, match="conv1d"):
            ad.conv1d(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 3, 1))))

    def test_lookup_out_of_range(self):
        with pytest.raises(ShapeError, match="embedding-lookup"):
            ad.embedding_lookup(Tensor(np.ones((4, 2))), [4])

    def test_slice_bad_range(self):
        with pytest.raises(ShapeError, match="slice"):
            ad.slice_axis(Tensor(np.ones((2, 3))), axis=1, start=2, stop=2)

    def test_nonfinite_output_raises(self):
        big = Tensor([[1e300]])
        with np.errstate(over="ignore"), pytest.raises(NumericalError):
            ad.mul(big, big)


class TestAdam:
    def test_first_step_is_signed_lr(self):
        # with zero eps the first bias-corrected step is exactly lr*sign(g)
        p = Tensor([1.0, -1.0, 2.0], requires_grad=True)
        p.grad = np.array([0.3, -0.7, 0.0001])
        state = AdamState(lr=0.1, eps=0.0)
        before = p.data.copy()
        adam_step({"p": p}, state)
        assert np.allclose(before - p.data, [0.1, -0.1, 0.1])
        assert p.grad is None

    def test_zero_grad_is_fixed_point(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        state = AdamState(lr=0.5)
        adam_step({"p": p}, state)
        assert np.allclose(p.data, [1.0, 2.0])

    def test_lr_zero_changes_nothing(self):
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([5.0])
        state = AdamState(lr=0.0)
        adam_step({"p": p}, state)
        assert p.data[0] == 1.0

    def test_two_steps_reduce_quadratic(self):
        p = Tensor([4.0], requires_grad=True)
        state = AdamState(lr=0.2)
        for _ in range(50):
            with Tape() as tape:
                backward(tape, sum_all(ad.mul(p, p)))
            adam_step({"p": p}, state)
        assert abs(p.data[0]) < 4.0

    def test_state_shape_guard(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        state = AdamState()
        state.m["p"] = np.zeros(3)
        state.v["p"] = np.zeros(3)
        with pytest.raises(ShapeError):
            adam_step({"p": p}, state)

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("grad_scale", [1.0, 0.37])
    def test_chunked_step_matches_whole_array_reference(self, monkeypatch, cpus,
                                                        grad_scale):
        # 3 full blocks plus a 5-element tail, and a parameter smaller than a
        # block; 3 CPUs deal 5 blocks unevenly, 1 CPU runs them all on one
        # pool worker
        monkeypatch.setattr(ad.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        pools = record_pools(monkeypatch)
        rng = np.random.default_rng(7)
        params = {"big": rand_param(rng, (3 * ad.ADAM_CHUNK + 5,)),
                  "small": rand_param(rng, (3,))}
        data = {n: p.data.copy() for n, p in params.items()}
        m = {n: np.zeros_like(d) for n, d in data.items()}
        v = {n: np.zeros_like(d) for n, d in data.items()}
        state = AdamState()
        for t in range(1, 6):
            grads = {n: rng.normal(size=p.shape) for n, p in params.items()}
            for n, p in params.items():
                p.grad = grads[n]
            adam_step(params, state, grad_scale)
            reference_adam(data, grads, m, v, t, grad_scale)
            for n, p in params.items():
                assert np.array_equal(p.data, data[n]), n
                assert np.array_equal(state.m[n], m[n]), n
                assert np.array_equal(state.v[n], v[n]), n
                assert p.grad is None, n
        assert pools == [cpus] * 5

    def test_no_parameters_advances_step(self):
        # no blocks to deal, yet the step counts
        state = AdamState()
        adam_step({}, state)
        assert state.t == 1

    def test_non_contiguous_parameter_rejected(self):
        # a flat view of it would be a copy, and the update would be lost
        p = Tensor(np.asfortranarray(np.ones((2, 3))), requires_grad=True)
        with pytest.raises(AutodiffError, match="contiguous"):
            adam_step({"p": p}, AdamState())

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_blocks_run_under_callers_errstate(self, monkeypatch, cpus):
        # numpy's error state is per thread, and squaring these gradients
        # overflows: under the caller's "ignore", no block may warn on any
        # worker thread, one (1 CPU) or two (2 CPUs)
        monkeypatch.setattr(ad.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        params = {f"p{i}": Tensor(np.ones(40_000), requires_grad=True) for i in range(4)}
        for p in params.values():
            p.grad = np.full(40_000, 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                adam_step(params, AdamState())
        assert all(np.array_equal(p.data, np.ones(40_000)) for p in params.values())

    def test_clip_global_norm(self):
        a = Tensor([3.0], requires_grad=True)
        b = Tensor([4.0], requires_grad=True)
        a.grad = np.array([3.0])
        b.grad = np.array([4.0])
        pre = clip_global_norm({"a": a, "b": b}, 1.0)
        assert abs(pre - 5.0) < 1e-12
        post = np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2)
        assert abs(post - 1.0) < 1e-12

    def test_global_grad_norm_same_bits_at_one_and_two_blas_threads(self):
        # Criterion 8 and the perfbench references must not depend on the CPU
        # count, so the norm's last bits must not move with the BLAS threads.
        # A BLAS dot of a 300k-element gradient moves in its last bits with
        # the thread count for most of these seeds.
        script = (
            "import numpy as np\n"
            "from glossgen.autodiff import Tensor, global_grad_norm\n"
            "for seed in range(8):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    params = {}\n"
            "    for i, shape in enumerate([(1000, 300), (300,), (7, 3, 5)]):\n"
            "        params[i] = Tensor(np.zeros(shape), requires_grad=True)\n"
            "        params[i].grad = rng.normal(size=shape)\n"
            "    ref = np.sqrt(sum((t.grad * t.grad).sum() for t in params.values()))\n"
            "    print(global_grad_norm(params).hex(), float(ref).hex())\n")
        src = str(Path(glossgen.__file__).resolve().parents[1])
        runs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                 capture_output=True, text=True).stdout
            runs.append([[float.fromhex(v) for v in line.split()]
                         for line in out.splitlines()])
        assert len(runs[0]) == 8
        for (norm_1, ref), (norm_2, _) in zip(*runs):
            assert norm_1.hex() == norm_2.hex()
            assert abs(norm_1 - ref) <= 1e-12 * ref

    def test_clip_below_threshold_untouched(self):
        a = Tensor([1.0], requires_grad=True)
        a.grad = np.array([0.5])
        clip_global_norm({"a": a}, 5.0)
        assert a.grad[0] == 0.5


def test_no_module_loads_scipy():
    # The core is numpy-only: importing every glossgen module must not pull
    # scipy (or its second OpenBLAS) into the process.
    script = (
        "import importlib, pkgutil, sys\n"
        "import glossgen\n"
        "for mod in pkgutil.walk_packages(glossgen.__path__, 'glossgen.'):\n"
        "    importlib.import_module(mod.name)\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n")
    src = str(Path(glossgen.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
