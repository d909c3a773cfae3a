"""Reverse-mode automatic differentiation over numpy arrays.

The primitive set is closed: higher layers (encoder, decoder, models) compose
only the operations defined here, so the backward-rule surface stays bounded.
Each primitive documents its shape rule; anything outside those rules is a
ShapeError. All data is 64-bit (finite-difference checks need it).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np


class AutodiffError(Exception):
    pass


class ShapeError(AutodiffError):
    pass


class NumericalError(AutodiffError):
    pass


class Tensor:
    """Dense n-d array that can participate in gradient taping.

    ``grad`` is None until a backward pass gives the tensor its first
    contribution, which becomes the gradient (a C-contiguous array shaped
    like ``data``); later contributions add into it. ``adam_step`` and
    ``zero_grads`` drop it back to None, so gradients exist only between
    backward and the optimizer step. A taped output's gradient lives only
    until its own rule has run. ``leaf`` marks a tensor made by this
    constructor rather than by a primitive: a leaf weight read as a 2-d
    matmul right operand gets that part of its gradient after the sweep's
    last rule.
    """

    __slots__ = ("data", "requires_grad", "grad", "leaf")

    def __init__(self, data, requires_grad=False):
        self.data = np.array(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.leaf = True

    @classmethod
    def _wrap(cls, array):
        t = cls.__new__(cls)
        t.data = array
        t.requires_grad = False
        t.grad = None
        t.leaf = False
        return t

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item: tensor has {self.data.size} elements, expected 1")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Node:
    """One recorded primitive application."""

    __slots__ = ("op", "inputs", "output", "backward_fn")

    def __init__(self, op, inputs, output, backward_fn):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of primitive applications for one forward pass.

    Recording order is execution order, so every node's inputs appear earlier
    (or are leaves); one reverse sweep therefore visits each node exactly once.
    ``deferred`` holds, during that sweep, the products the sweep forms after
    its last rule: for each leaf weight read as a 2-d matmul right operand,
    by id, the weight and the row blocks xs, ys whose product
    concat(xs).T @ concat(ys) is that part of its gradient.
    """

    def __init__(self):
        self.nodes = []
        self.deferred: dict[int, tuple[Tensor, list, list]] = {}

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False


_TAPE_STACK: list[Tape] = []


def _accumulate(t: Tensor, contribution, shared: bool = False) -> None:
    """Add one backward contribution to ``t.grad``. The first becomes the
    gradient, with no zero buffer: copied when ``shared`` (the output's own
    gradient or a view of it, which another tensor may also take), and made
    C-contiguous (a transposed product) so that Adam can walk it flat."""
    if t.grad is not None:
        t.grad += contribution
    elif shared:
        t.grad = np.array(contribution, order="C")
    else:
        t.grad = np.asarray(contribution, order="C")


def _scatter_target(t: Tensor) -> np.ndarray:
    """``t.grad`` for a rule that adds into parts of it: zeros on first use."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    return t.grad


def _finish(op, inputs, out_array, backward_fn):
    """Wrap a primitive's result, check finiteness, record on the active tape."""
    if not np.all(np.isfinite(out_array)):
        raise NumericalError(f"{op}: non-finite values in output")
    out = Tensor._wrap(out_array)
    if _TAPE_STACK and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _TAPE_STACK[-1].nodes.append(Node(op, inputs, out, backward_fn))
    return out


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor, transpose_a=False, transpose_b=False) -> Tensor:
    """Gemm-style product.

    Shape rule: operands are 1-d or 2-d; the transpose flags apply to 2-d
    operands only. After optional transposition the inner dimensions must
    agree: (m,k)@(k,n)->(m,n), (k,)@(k,n)->(n,), (m,k)@(k,)->(m,),
    (k,)@(k,)->() .
    """
    A, B = a.data, b.data
    if A.ndim not in (1, 2) or B.ndim not in (1, 2):
        raise ShapeError(f"matmul: operands must be 1-d or 2-d, got {A.shape} and {B.shape}")
    if transpose_a:
        if A.ndim != 2:
            raise ShapeError(f"matmul: transpose_a requires a 2-d left operand, got {A.shape}")
        A = A.T
    if transpose_b:
        if B.ndim != 2:
            raise ShapeError(f"matmul: transpose_b requires a 2-d right operand, got {B.shape}")
        B = B.T
    a_vec, b_vec = A.ndim == 1, B.ndim == 1
    A2 = A[None, :] if a_vec else A
    B2 = B[:, None] if b_vec else B
    if A2.shape[1] != B2.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.data.shape} vs {b.data.shape}")
    out = A2 @ B2
    if b_vec:
        out = out[:, 0]
    if a_vec:
        out = out[0]
    # the rule is recorded only on an active tape; the dict, not the tape,
    # is held, so no node refers back to its tape
    deferred = _TAPE_STACK[-1].deferred if _TAPE_STACK else None

    def backward(g):
        g2 = g
        if a_vec:
            g2 = g2[None, ...]
        if b_vec:
            g2 = g2[..., None]
        if a.requires_grad:
            ga = g2 @ B2.T
            if a_vec:
                ga = ga[0]
            elif transpose_a:
                ga = ga.T
            _accumulate(a, ga)
        if b.requires_grad and b.leaf and not b_vec:
            # A.T @ g, or its transpose g.T @ A, is formed after the sweep
            _, xs, ys = deferred.setdefault(id(b), (b, [], []))
            xs.append(g2 if transpose_b else A2)
            ys.append(A2 if transpose_b else g2)
        elif b.requires_grad:
            gb = A2.T @ g2
            if b_vec:
                gb = gb[:, 0]
            elif transpose_b:
                gb = gb.T
            _accumulate(b, gb)

    return _finish("matmul", (a, b), out, backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum.

    Shape rule: identical shapes, or (m,n)+(n,) which broadcasts ``b`` over
    rows (the bias case).
    """
    broadcast = a.data.ndim == 2 and b.data.ndim == 1 and a.data.shape[1] == b.data.shape[0]
    if not broadcast and a.data.shape != b.data.shape:
        raise ShapeError(f"add: incompatible shapes {a.data.shape} and {b.data.shape}")
    out = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g, shared=True)
        if b.requires_grad:
            if broadcast:
                _accumulate(b, g.sum(axis=0))
            else:
                _accumulate(b, g, shared=True)

    return _finish("add", (a, b), out, backward)


def concat(tensors, axis: int) -> Tensor:
    """Concatenate along an existing axis.

    Shape rule: all operands share ndim and every dimension except ``axis``.
    """
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat: needs at least one tensor")
    ndim = tensors[0].data.ndim
    for t in tensors[1:]:
        if t.data.ndim != ndim:
            raise ShapeError(
                f"concat: rank mismatch {tensors[0].data.shape} vs {t.data.shape}")
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as exc:
        raise ShapeError(f"concat: {exc}") from None
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                _accumulate(t, g[tuple(idx)], shared=True)

    return _finish("concat", tuple(tensors), out, backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product. Shape rule: identical shapes."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"elementwise-mul: incompatible shapes {a.data.shape} and {b.data.shape}")
    out = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * b.data)
        if b.requires_grad:
            _accumulate(b, g * a.data)

    return _finish("elementwise-mul", (a, b), out, backward)


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic function, any shape.

    ``exp(-x)`` overflows to inf below x ~ -709, where 1 / (1 + inf) gives
    exactly the limit 0. That overflow is no fault, so it alone is silenced.
    """
    with np.errstate(over="ignore"):
        y = 1.0 / (1.0 + np.exp(-x.data))

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g * y * (1.0 - y))

    return _finish("sigmoid", (x,), y, backward)


def tanh(x: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent, any shape."""
    y = np.tanh(x.data)

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g * (1.0 - y * y))

    return _finish("tanh", (x,), y, backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Shift-stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if x.requires_grad:
            inner = (g * y).sum(axis=axis, keepdims=True)
            _accumulate(x, y * (g - inner))

    return _finish("softmax", (x,), y, backward)


def max_over_axis(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Maximum along ``axis``; gradient routes to the first argmax on ties."""
    if x.data.ndim == 0:
        raise ShapeError(f"max-over-axis: needs at least 1-d input, got {x.data.shape}")
    out = x.data.max(axis=axis, keepdims=keepdims)
    idx = np.expand_dims(x.data.argmax(axis=axis), axis=axis)

    def backward(g):
        if x.requires_grad:
            g_exp = g if keepdims else np.expand_dims(g, axis=axis)
            scatter = np.zeros_like(x.data)
            np.put_along_axis(scatter, idx, g_exp, axis=axis)
            _accumulate(x, scatter)

    return _finish("max-over-axis", (x,), out, backward)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Select rows of a (V, d) table by integer id; output is (len(ids), d).

    Duplicate ids accumulate gradient additively into the same row.
    """
    ids = np.asarray(ids, dtype=np.intp)
    if table.data.ndim != 2:
        raise ShapeError(f"embedding-lookup: table must be 2-d, got {table.data.shape}")
    if ids.ndim != 1:
        raise ShapeError(f"embedding-lookup: ids must be 1-d, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ShapeError(
            f"embedding-lookup: id out of range for table with {table.data.shape[0]} rows")
    out = table.data[ids]

    def backward(g):
        if table.requires_grad:
            np.add.at(_scatter_target(table), ids, g)

    return _finish("embedding-lookup", (table,), out, backward)


def conv1d(x: Tensor, kernel: Tensor) -> Tensor:
    """Valid-padding 1-d convolution.

    Shape rule: x is (L, C_in), kernel is (w, C_in, C_out), L >= w; output is
    (L - w + 1, C_out). Boundary padding is the caller's responsibility.
    """
    X, K = x.data, kernel.data
    if X.ndim != 2 or K.ndim != 3:
        raise ShapeError(f"conv1d: expected (L,Cin) and (w,Cin,Cout), got {X.shape} and {K.shape}")
    L, cin = X.shape
    w, kcin, cout = K.shape
    if cin != kcin:
        raise ShapeError(f"conv1d: channel mismatch, input {X.shape} vs kernel {K.shape}")
    if L < w:
        raise ShapeError(f"conv1d: input length {L} shorter than kernel width {w}")
    lout = L - w + 1
    out = np.zeros((lout, cout), dtype=X.dtype)
    for i in range(w):
        out += X[i:i + lout] @ K[i]

    def backward(g):
        for i in range(w):
            if x.requires_grad:
                _scatter_target(x)[i:i + lout] += g @ K[i].T
            if kernel.requires_grad:
                _scatter_target(kernel)[i] += X[i:i + lout].T @ g

    return _finish("conv1d", (x, kernel), out, backward)


def cross_entropy_from_logits(logits: Tensor, targets) -> Tensor:
    """Per-row negative log likelihood of integer targets under softmax(logits).

    Shape rule: logits (B, V), targets length B; output is (B,).
    """
    Z = logits.data
    targets = np.asarray(targets, dtype=np.intp)
    if Z.ndim != 2:
        raise ShapeError(f"cross-entropy-from-logits: logits must be 2-d, got {Z.shape}")
    if targets.shape != (Z.shape[0],):
        raise ShapeError(
            f"cross-entropy-from-logits: targets shape {targets.shape} does not match "
            f"logits {Z.shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= Z.shape[1]):
        raise ShapeError(
            f"cross-entropy-from-logits: target id out of range for {Z.shape[1]} classes")
    m = Z.max(axis=1, keepdims=True)
    e = np.exp(Z - m)
    denom = e.sum(axis=1)
    rows = np.arange(Z.shape[0])
    out = m[:, 0] + np.log(denom) - Z[rows, targets]

    def backward(g):
        if logits.requires_grad:
            soft = e / denom[:, None]
            soft[rows, targets] -= 1.0
            _accumulate(logits, soft * g[:, None])

    return _finish("cross-entropy-from-logits", (logits,), out, backward)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    c = float(c)
    out = x.data * c

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g * c)

    return _finish("scale", (x,), out, backward)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start:stop) along one axis."""
    if not (0 <= axis < x.data.ndim):
        raise ShapeError(f"slice: axis {axis} invalid for shape {x.data.shape}")
    if not (0 <= start < stop <= x.data.shape[axis]):
        raise ShapeError(
            f"slice: range [{start}:{stop}) invalid for axis {axis} of shape {x.data.shape}")
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = x.data[idx].copy()

    def backward(g):
        if x.requires_grad:
            _scatter_target(x)[idx] += g

    return _finish("slice", (x,), out, backward)


# ---------------------------------------------------------------------------
# Composites (built from primitives only, no new backward rules)
# ---------------------------------------------------------------------------


def one_minus(x: Tensor) -> Tensor:
    """1 - x, elementwise."""
    ones = Tensor._wrap(np.ones_like(x.data))
    return add(scale(x, -1.0), ones)


def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements of a tensor of rank <= 2, as a scalar tensor."""
    if x.data.ndim == 0:
        return scale(x, 1.0)
    if x.data.ndim == 1:
        return matmul(x, Tensor._wrap(np.ones_like(x.data)))
    if x.data.ndim == 2:
        rowsum = matmul(x, Tensor._wrap(np.ones(x.data.shape[1], dtype=x.data.dtype)))
        return matmul(rowsum, Tensor._wrap(np.ones_like(rowsum.data)))
    raise ShapeError(f"sum_all: rank {x.data.ndim} not supported")


# ---------------------------------------------------------------------------
# Backward and gradient checking
# ---------------------------------------------------------------------------


def backward(tape: Tape, loss: Tensor) -> None:
    """Populate gradients of every requires_grad leaf reachable from loss.

    Loss must be a size-1 tensor produced on this tape. Gradients accumulate
    additively, both across multiple uses of a leaf and across calls until
    ``adam_step`` or ``zero_grads`` drops them. A node whose output received
    no gradient (a branch the loss does not read) is skipped. Each output's
    gradient is dropped once its node's rule has run, so every taped
    output's ``grad`` is None on return. The products for leaf weights read
    as 2-d matmul right operands are formed last, one per weight over the
    rows of all its reads: a recurrent matrix gets one product per call, not
    one per time step.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if not any(node.output is loss for node in reversed(tape.nodes)):
        raise AutodiffError("backward: loss was not produced on this tape")
    loss.grad = np.ones(loss.data.shape)
    try:
        for node in reversed(tape.nodes):
            if node.output.grad is not None:
                node.backward_fn(node.output.grad)
                node.output.grad = None
        while tape.deferred:
            weight, xs, ys = tape.deferred.popitem()[1]
            x = xs[0] if len(xs) == 1 else np.concatenate(xs)
            y = ys[0] if len(ys) == 1 else np.concatenate(ys)
            _accumulate(weight, x.T @ y)
    finally:
        tape.deferred.clear()


def grad_check(f, point, h: float = 1e-5, coord_limit: int | None = None, seed: int = 0):
    """Compare analytic gradients of ``f(*point)`` against central differences.

    Returns max over checked coordinates of |analytic - numeric| / max(1, |analytic|).
    ``point`` is a sequence of requires_grad tensors; other values closed over
    by ``f`` are held fixed. With ``coord_limit`` set, at most that many
    coordinates per tensor are checked (seeded uniform sample), which keeps
    full-model checks tractable; omit it for exhaustive per-primitive checks.
    """
    if h <= 0:
        raise ValueError("grad_check: step h must be positive")
    point = list(point)
    for p in point:
        if not p.requires_grad:
            raise ValueError("grad_check: every point tensor must require grad")
        p.grad = None
    with Tape() as tape:
        loss = f(*point)
        backward(tape, loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad for p in point]

    rng = np.random.default_rng(seed)
    worst = 0.0
    for p, a in zip(point, analytic):
        flat = p.data.reshape(-1)
        n = flat.size
        if coord_limit is not None and n > coord_limit:
            coords = rng.choice(n, size=coord_limit, replace=False)
        else:
            coords = range(n)
        a_flat = a.reshape(-1)
        for i in coords:
            saved = flat[i]
            flat[i] = saved + h
            up = f(*point).item()
            flat[i] = saved - h
            down = f(*point).item()
            flat[i] = saved
            numeric = (up - down) / (2.0 * h)
            err = abs(a_flat[i] - numeric) / max(1.0, abs(a_flat[i]))
            if err > worst:
                worst = err
    return worst


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


# float64 elements per optimizer block: 256 KB, so a block of data, grad, m,
# v and the two scratch buffers stays in a core's L2 cache through all of
# Adam's passes instead of streaming each full array from memory ten times
ADAM_CHUNK = 32_768


class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def adam_step(params: dict[str, Tensor], state: AdamState,
              grad_scale: float = 1.0) -> None:
    """One bias-corrected Adam update, in place, from each param's .grad.

    Each gradient is multiplied by ``grad_scale`` (the clip factor; 1.0 is
    exact) as it is read. A None gradient (no contribution reached the
    parameter) is read as zeros, so m and v still decay and the parameter
    still moves, bit for bit as with a zero array. Every gradient is consumed:
    each ``p.grad`` is None when the step returns. The update runs
    in blocks of ``ADAM_CHUNK`` elements dealt round-robin to one thread per
    usable CPU (numpy releases the interpreter lock inside each ufunc). Every
    element sees the same ufuncs in the same order whatever the block or
    thread, so results do not depend on the CPU count; every block runs
    under the caller's floating-point error state (``np.errstate``).
    """
    state.t += 1
    b1, b2, lr, eps = state.beta1, state.beta2, state.lr, state.eps
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    blocks = []
    for name, p in params.items():
        m = state.m.setdefault(name, np.zeros(p.data.shape, p.data.dtype))
        v = state.v.setdefault(name, np.zeros(p.data.shape, p.data.dtype))
        if m.shape != p.data.shape:
            raise ShapeError(
                f"adam_step: state shape {m.shape} does not match parameter "
                f"{name!r} shape {p.data.shape}")
        if not (p.data.flags.c_contiguous and (p.grad is None or p.grad.flags.c_contiguous)):
            raise AutodiffError(f"adam_step: parameter {name!r} is not contiguous")
        # a read-only stride-0 view of one zero stands in for a missing gradient
        g = np.broadcast_to(0.0, p.data.shape) if p.grad is None else p.grad
        flat = [a.reshape(-1) for a in (p.data, g, m, v)]
        blocks += [[a[i:i + ADAM_CHUNK] for a in flat]
                   for i in range(0, p.data.size, ADAM_CHUNK)]

    # numpy's error state is per thread: each worker takes the caller's
    errstate = np.geterr()

    def update(share):
        scratch = np.empty((2, ADAM_CHUNK))
        with np.errstate(**errstate):
            for p, g, m, v in share:
                s1, s2 = scratch[:, :p.size]
                np.multiply(g, grad_scale, out=s1)          # the clipped gradient
                m *= b1
                np.multiply(s1, 1.0 - b1, out=s2)
                m += s2
                np.multiply(s1, s1, out=s2)
                s2 *= 1.0 - b2
                v *= b2
                v += s2
                np.divide(m, bc1, out=s1)
                s1 *= lr
                np.divide(v, bc2, out=s2)
                np.sqrt(s2, out=s2)
                s2 += eps
                s1 /= s2
                p -= s1

    # a pool per call: a module-level pool would reach a forked child with no
    # threads behind it; with no blocks, one worker runs an empty share
    workers = max(1, min(len(os.sched_getaffinity(0)), len(blocks)))
    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(update, [blocks[i::workers] for i in range(workers)]))
    for p in params.values():
        p.grad = None


def global_grad_norm(params: dict[str, Tensor]) -> float:
    """The L2 norm of all gradients together. Each gradient's sum of squares
    is one einsum over its flat view: no squared temporary, and unlike a BLAS
    dot its value does not depend on the BLAS thread count."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            g = p.grad.ravel()
            total += float(np.einsum("i,i->", g, g))
    return float(np.sqrt(total))


def clip_global_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm.

    Returns the pre-clip norm.
    """
    norm = global_grad_norm(params)
    if norm > max_norm > 0:
        factor = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= factor
    return norm


def zero_grads(params: dict[str, Tensor]) -> None:
    """Drop every gradient, so the next backward pass starts each afresh."""
    for p in params.values():
        p.grad = None
