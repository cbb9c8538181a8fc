"""Tensor core: op semantics, tape correctness, and the grad-check harness."""

import contextlib
import gc
import math
import tracemalloc
import types
import weakref
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavemlp import tensor as T
from wavemlp.errors import ContractError, DimensionError
from wavemlp.patm import aggregate_tokens
from wavemlp.tensor import GradCheckReport, Tape, Tensor, grad_check


def _rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# linear and layer_norm


@st.composite
def _last_axis_cases(draw):
    lead = tuple(draw(st.lists(st.integers(1, 3), min_size=0, max_size=3)))
    c_in, c_out = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return lead, c_in, c_out, dtype, draw(st.integers(0, 2**16))


def _taped(op, args, upstream):
    """Run ``op`` and backward of sum(op(...) * upstream); return (out, records of op)."""
    with Tape() as tape:
        out = op(*args)
        records = len(tape)
        loss = T.reduce_sum(T.mul(out, Tensor(upstream)))  # hands op exactly ``upstream``
    tape.backward(loss)
    return out, records


def _assert_owned_grads(leaves, dtype):
    """Each leaf's .grad is a writeable ndarray of its shape and ``dtype``, sharing no memory."""
    for i, t in enumerate(leaves):
        assert isinstance(t.grad, np.ndarray) and t.grad.flags.writeable
        assert t.grad.shape == t.shape and t.grad.dtype == dtype
        assert not any(np.shares_memory(t.grad, u.grad) for u in leaves[i + 1 :])


def _grad_check64(op, arrays, upstream):
    """grad_check at 1e-4, in float64, of sum(op(*arrays) * upstream)."""
    r64 = Tensor(np.asarray(upstream, dtype=np.float64))
    ts = [Tensor(np.asarray(a, dtype=np.float64)) for a in arrays]
    rep = grad_check(lambda ts: T.reduce_sum(T.mul(op(*ts), r64)), ts, tol=1e-4)
    assert rep.passed, rep


@settings(derandomize=True, max_examples=25, deadline=None)
@given(case=_last_axis_cases())
def test_linear_property(case):
    lead, c_in, c_out, dtype, seed = case
    rng = _rng(seed)
    xd = rng.normal(size=lead + (c_in,)).astype(dtype)
    wd = rng.normal(size=(c_out, c_in)).astype(dtype)
    gd = rng.normal(size=lead + (c_out,)).astype(dtype)
    x, w = Tensor(xd, requires_grad=True), Tensor(wd, requires_grad=True)
    out, records = _taped(T.linear, (x, w), gd)
    assert records == 1
    x2, g2 = xd.reshape(-1, c_in), gd.reshape(-1, c_out)
    npt.assert_array_equal(out.data, (x2 @ wd.T).reshape(lead + (c_out,)))  # bit-exact
    npt.assert_array_equal(x.grad, (g2 @ wd).reshape(xd.shape))
    npt.assert_array_equal(w.grad, (x2.T @ g2).T)
    assert w.grad.flags.c_contiguous  # laid out like w, so AdamW reads it without a copy
    assert out.dtype == x.grad.dtype == w.grad.dtype == dtype

    x64, w64 = Tensor(xd.astype(np.float64)), Tensor(wd.astype(np.float64))
    r64 = Tensor(gd.astype(np.float64))
    rep = grad_check(lambda ts: T.reduce_sum(T.mul(T.linear(ts[0], ts[1]), r64)), [x64, w64])
    assert rep.passed, rep


def test_linear_bad_arguments():
    with pytest.raises(DimensionError):
        T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))  # c_in mismatch
    with pytest.raises(DimensionError):
        T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))  # 1-D weight
    with pytest.raises(DimensionError):
        T.linear(Tensor(np.zeros(())), Tensor(np.zeros((1, 1))))  # no channel axis


@st.composite
def _prologue_cases(draw):
    """linear's GELU prologue: lead axes (a 0-size one too), mask or not, which inputs need a
    gradient, and a slab size small enough for several slabs with a ragged last one."""
    lead = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)))
    c_in, c_out = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    masked = draw(st.booleans())
    needs = draw(st.sampled_from([(True, True), (True, False), (False, True)]))
    slab = draw(st.sampled_from([1, 4, 7, 30, 2**62]))
    return lead, c_in, c_out, dtype, masked, needs, slab, draw(st.integers(0, 2**16))


def _prologue_run(fused, xd, wd, gd, needs, keep, p):
    """(output, x.grad, w.grad, records of the op, whether forward's hidden array outlived
    forward) for gelu -> mul -> linear, or for linear with the prologue (``fused``)."""
    x, w = Tensor(xd, requires_grad=needs[0]), Tensor(wd, requires_grad=needs[1])
    hidden = []  # weakrefs to what _gelu_forward returns, forward's first
    forward = T._gelu_forward

    def spy(*args):
        h = forward(*args)
        hidden.append(weakref.ref(h))
        return h

    with mock.patch.object(T, "_gelu_forward", spy), Tape() as tape:
        if fused:
            out = T.linear(x, w, gelu=True, dropout=None if keep is None else (keep, p))
        else:
            h = T.gelu(x)
            if keep is not None:
                h = T.mul(h, Tensor(keep.astype(xd.dtype) / (1.0 - p)))
            out = T.linear(h, w)
        records = len(tape)
        loss = T.reduce_sum(T.mul(out, Tensor(gd)))
        gc.collect()
        kept = hidden[0]() is not None
        tape.backward(loss)
    return out.data, x.grad, w.grad, records, kept


def _bits(a):
    return None if a is None else (a.dtype, a.shape, a.tobytes())


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=_prologue_cases())
@example(case=((3, 70), 200, 3, np.float32, True, (True, True), T._SLAB, 1))  # ragged real slabs
@example(case=((2, 0, 3), 4, 2, np.float64, True, (True, True), 1, 2))  # a 0-size lead axis
def test_linear_gelu_prologue_is_bit_equal_to_the_gelu_mul_linear_chain(case):
    """Output, dx and dw are byte-equal to the three-op chain; the op makes one record, and
    the hidden array its forward builds dies before backward."""
    lead, c_in, c_out, dtype, masked, needs, slab, seed = case
    rng = _rng(seed)
    xd = (2.0 * rng.normal(size=lead + (c_in,))).astype(dtype)
    wd = rng.normal(size=(c_out, c_in)).astype(dtype)
    gd = rng.normal(size=lead + (c_out,)).astype(dtype)
    keep = rng.random(xd.shape) >= 0.25 if masked else None
    with mock.patch.object(T, "_SLAB", slab):
        want = _prologue_run(False, xd, wd, gd, needs, keep, 0.25)
        got = _prologue_run(True, xd, wd, gd, needs, keep, 0.25)
    assert [_bits(a) for a in got[:3]] == [_bits(a) for a in want[:3]]
    assert got[3] == 1 and not got[4]
    assert (got[1] is None) != needs[0] and (got[2] is None) != needs[1]
    dropout = None if keep is None else (keep, 0.25)
    inplace = xd.copy()  # out=x, as the untaped channel MLP computes its hidden layer
    with mock.patch.object(T, "_SLAB", slab):
        assert T._gelu_forward(inplace, dropout, out=inplace) is inplace
        assert _bits(inplace) == _bits(T._gelu_forward(xd, dropout))


def test_linear_gelu_prologue_gradients_with_dropout():
    rng = _rng(21)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    r, keep = Tensor(rng.normal(size=(2, 3, 5))), rng.random((2, 3, 4)) >= 0.3
    rep = grad_check(lambda ts: T.reduce_sum(T.mul(T.linear(*ts, True, (keep, 0.3)), r)), [x, w])
    assert rep.passed, rep


def test_linear_refuses_a_dropout_mask_it_cannot_apply():
    x, w = Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 3)))
    keep = np.ones((2, 3), dtype=bool)
    for bad in (np.ones((2, 3)), np.ones((3, 2), dtype=bool), [[True] * 3] * 2):
        with pytest.raises(DimensionError, match="keep-mask"):
            T.linear(x, w, gelu=True, dropout=(bad, 0.1))
    for p in (1.0, -0.1, float("nan")):
        with pytest.raises(ContractError, match="dropout"):
            T.linear(x, w, gelu=True, dropout=(keep, p))
    with pytest.raises(ContractError, match="GELU prologue"):
        T.linear(x, w, dropout=(keep, 0.1))


@st.composite
def _shared_weight_cases(draw):
    """One weight [c_out, c_in] read by 1-3 linear calls of distinct row counts, so that some
    take dw late (rows * (c_out + c_in) < c_out * c_in) and some at once; per call a prologue
    (none, GELU, GELU and dropout) and whether x needs a gradient; w a leaf or add(w0, w1)."""
    c_out, c_in = draw(st.integers(3, 8)), draw(st.integers(3, 8))
    call = st.tuples(st.integers(1, 8), st.sampled_from(["none", "gelu", "dropout"]), st.booleans())
    calls = draw(st.lists(call, min_size=1, max_size=3, unique_by=lambda c: c[0]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return c_out, c_in, calls, draw(st.booleans()), dtype, draw(st.integers(0, 2**16))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=_shared_weight_cases())
@example(case=(6, 6, [(1, "dropout", False), (8, "none", True), (2, "gelu", True)], True, np.float64, 1))
@example(case=(6, 6, [(8, "gelu", True), (1, "none", False), (3, "dropout", True)], False, np.float32, 2))
def test_late_weight_gradients_fold_in_replay_order(case):
    """Whether each call's dw is taken at once or late, and whether w is a leaf (its late dw
    folded after the walk) or an op's output (its late dw run during the walk), every
    weight's .grad is bit-equal to the calls' g.T @ h summed in replay order, last call first."""
    c_out, c_in, calls, w_leaf, dtype, seed = case
    rng = _rng(seed)
    parts = [Tensor(rng.normal(size=(c_out, c_in)).astype(dtype), requires_grad=True)]
    if not w_leaf:
        parts.append(Tensor(rng.normal(size=(c_out, c_in)).astype(dtype), requires_grad=True))
    xs, products = [], []
    with Tape() as tape:
        w = parts[0] if w_leaf else T.add(*parts)
        loss = None
        for rows, prologue, needs in calls:
            xd = rng.normal(size=(rows, c_in)).astype(dtype)
            gd = rng.normal(size=(rows, c_out)).astype(dtype)
            dropout = (rng.random(xd.shape) >= 0.25, 0.25) if prologue == "dropout" else None
            xs.append(Tensor(xd, requires_grad=needs))
            out = T.linear(xs[-1], w, gelu=prologue != "none", dropout=dropout)
            term = T.reduce_sum(T.mul(out, Tensor(gd)))  # hands the call exactly gd
            loss = term if loss is None else T.add(loss, term)
            h = xd if prologue == "none" else T._gelu_forward(xd, dropout)
            products.append(gd.T @ h)
    tape.backward(loss)
    want = products.pop()
    while products:
        want = want + products.pop()
    for t in parts:
        npt.assert_array_equal(t.grad, want)  # bit-exact
    _assert_owned_grads(parts + [x for x in xs if x.requires_grad], dtype)
    assert all(x.grad is None for x in xs if not x.requires_grad)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(case=_last_axis_cases())
def test_layer_norm_property(case):
    lead, d, _, dtype, seed = case
    rng = _rng(seed)
    xd = rng.normal(size=lead + (d,)).astype(dtype)
    sd = (rng.normal(size=d) + 1.0).astype(dtype)
    hd = rng.normal(size=d).astype(dtype)
    gd = rng.normal(size=lead + (d,)).astype(dtype)
    x, scale, shift = (Tensor(a, requires_grad=True) for a in (xd, sd, hd))
    out, records = _taped(T.layer_norm, (x, scale, shift), gd)
    assert records == 1
    centered = xd - xd.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    unit = centered / np.sqrt(var + T.NORM_EPS)
    npt.assert_array_equal(out.data, unit * sd + hd)  # bit-exact step chain
    assert out.dtype == x.grad.dtype == scale.grad.dtype == shift.grad.dtype == dtype

    ts64 = [Tensor(a.astype(np.float64)) for a in (xd, sd, hd)]
    r64 = Tensor(gd.astype(np.float64))
    rep = grad_check(lambda ts: T.reduce_sum(T.mul(T.layer_norm(*ts), r64)), ts64)
    assert rep.passed, rep


def test_layer_norm_bad_affine_shapes():
    x = Tensor(np.zeros((2, 4)))
    with pytest.raises(DimensionError):
        T.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(4)))
    with pytest.raises(DimensionError):
        T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros((1, 4))))


def test_layer_norm_rejects_an_input_without_channels():
    with pytest.raises(DimensionError, match="needs channels"):
        T.layer_norm(Tensor(np.ones((2, 0))), Tensor(np.ones(0)), Tensor(np.zeros(0)))


# ---------------------------------------------------------------------------
# elementwise


def test_gelu_gradient_on_100_random_points():
    rng = _rng(2)
    x = Tensor(rng.normal(size=100), requires_grad=True)
    r = Tensor(rng.normal(size=100))
    rep = grad_check(lambda t: T.reduce_sum(T.mul(T.gelu(t), r)), x, step=1e-5, tol=1e-6)
    assert rep.passed, rep


@st.composite
def _broadcast_cases(draw):
    """Two operands that broadcast: trailing axes of one shape, some of them set to 1."""
    shape = draw(st.lists(st.integers(1, 3), min_size=0, max_size=3))

    def operand():
        kept = shape[len(shape) - draw(st.integers(0, len(shape))) :]  # none kept: a 0-d operand
        return tuple(1 if draw(st.booleans()) else n for n in kept)

    op = draw(st.sampled_from([T.add, T.mul]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return op, operand(), operand(), dtype, draw(st.integers(0, 2**16))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(case=_broadcast_cases())
@example(case=(T.mul, (), (2, 3), np.float32, 0))
@example(case=(T.add, (3, 1), (1, 2), np.float64, 1))
def test_add_mul_broadcast_property(case):
    op, shape_a, shape_b, dtype, seed = case
    rng = _rng(seed)
    ad = rng.normal(size=shape_a).astype(dtype)
    bd = rng.normal(size=shape_b).astype(dtype)
    want = ad + bd if op is T.add else ad * bd
    gd = rng.normal(size=want.shape).astype(dtype)
    a, b = Tensor(ad, requires_grad=True), Tensor(bd, requires_grad=True)
    out, records = _taped(op, (a, b), gd)
    assert records == 1
    npt.assert_array_equal(out.data, want)
    assert out.dtype == dtype
    _assert_owned_grads([a, b], dtype)
    _grad_check64(op, (ad, bd), gd)


@st.composite
def _unary_cases(draw):
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=0, max_size=3)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return shape, dtype, draw(st.integers(0, 2**16))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(case=_unary_cases())
@example(case=((), np.float32, 0))
@example(case=((), np.float64, 1))
def test_gelu_property(case):
    shape, dtype, seed = case
    rng = _rng(seed)
    xd = (2.0 * rng.normal(size=shape)).astype(dtype)
    gd = rng.normal(size=shape).astype(dtype)
    x = Tensor(xd, requires_grad=True)
    out, records = _taped(T.gelu, (x,), gd)
    assert records == 1
    assert out.shape == shape and out.dtype == dtype
    _assert_owned_grads([x], dtype)
    # bit-equal to the closed forms evaluated term by term
    t = np.tanh(T._GELU_C * (xd + T._GELU_A * xd * xd * xd))
    npt.assert_array_equal(out.data, 0.5 * xd * (1.0 + t))
    dinner = T._GELU_C * (1.0 + 3.0 * T._GELU_A * xd * xd)
    dx = gd * (0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * dinner)
    npt.assert_array_equal(x.grad, dx)
    _grad_check64(T.gelu, (xd,), gd)


def test_incompatible_broadcast_raises():
    with pytest.raises(DimensionError):
        T.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


@pytest.mark.parametrize(
    "op,n_args,seed",
    [(T.add, 2, 12), (T.mul, 2, 13), (T.gelu, 1, 14)],
    ids=["add-2", "mul-2", "gelu-1"],
)
def test_elementwise_family_gradients(op, n_args, seed):
    rng = _rng(seed)
    xs = [Tensor(rng.normal(size=(3, 4)), requires_grad=True) for _ in range(n_args)]
    r = Tensor(rng.normal(size=(3, 4)))
    rep = grad_check(
        lambda ts: T.reduce_sum(T.mul(op(*(ts if n_args > 1 else [ts])), r)),
        xs if n_args > 1 else xs[0],
        tol=1e-4,
    )
    assert rep.passed, (op.__name__, rep)


# ---------------------------------------------------------------------------
# reductions


def test_reduce_sum_axis():
    out = T.reduce_sum(Tensor([[1.0, 2.0], [3.0, 4.0]]), axis=1)
    npt.assert_array_equal(out.data, [3.0, 7.0])


def test_reduce_axis_out_of_range():
    with pytest.raises(DimensionError):
        T.reduce_sum(Tensor(np.zeros((2, 2))), axis=2)


@st.composite
def _reduce_cases(draw):
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    ndim = len(shape)
    subset = draw(st.lists(st.integers(-ndim, ndim - 1), unique_by=lambda a: a % ndim))
    axis = draw(st.sampled_from([None, tuple(subset)] + subset[:1]))  # all, a subset, one int
    op = draw(st.sampled_from([T.reduce_mean, T.reduce_sum]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return op, shape, axis, dtype, draw(st.integers(0, 2**16))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(case=_reduce_cases())
@example(case=(T.reduce_mean, (2, 3, 2), (0, 2), np.float32, 0))
@example(case=(T.reduce_mean, (3,), None, np.float64, 1))
def test_reduce_property(case):
    op, shape, axis, dtype, seed = case
    rng = _rng(seed)
    xd = rng.normal(size=shape).astype(dtype)
    reduce = np.mean if op is T.reduce_mean else np.sum
    want = reduce(xd, axis=axis)
    gd = rng.normal(size=np.shape(want)).astype(dtype)
    x = Tensor(xd, requires_grad=True)
    out, records = _taped(lambda t: op(t, axis=axis), (x,), gd)
    assert records == 1
    npt.assert_array_equal(out.data, want)
    assert out.shape == np.shape(want) and out.dtype == dtype
    _assert_owned_grads([x], dtype)
    _grad_check64(lambda t: op(t, axis=axis), (xd,), gd)


# ---------------------------------------------------------------------------
# window_mix


def _window_mix_oracle(x: np.ndarray, w: np.ndarray, axis: int) -> np.ndarray:
    """Index-by-index gather: out[j] = sum_r w[r] * x[j + r - half], in r order."""
    axis %= x.ndim
    half = w.shape[0] // 2
    out = np.zeros(x.shape, dtype=np.result_type(x, w))
    for idx in np.ndindex(*x.shape):
        total = out.dtype.type(0)
        for r in range(w.shape[0]):
            k = idx[axis] + r - half
            if 0 <= k < x.shape[axis]:
                src = idx[:axis] + (k,) + idx[axis + 1 :]
                total += w[r, idx[-1]] * x[src]
        out[idx] = total
    return out


def _padded_window_sum_oracle(x: np.ndarray, w: np.ndarray, axis: int):
    """A zero-padded copy of x, summed one offset at a time: (output, g -> (dx, dw)).

    Only the offsets that reach some input position are computed; dw sums
    g * x over the whole output, padding included.
    """
    ax = axis % x.ndim
    half, extent = w.shape[0] // 2, x.shape[ax]
    offsets = range(max(0, half - extent + 1), min(w.shape[0], half + extent))
    pad = max(0, min(half, extent - 1))
    lead = (slice(None),) * ax
    inner = lead + (slice(pad, pad + extent),)
    padded = np.zeros(x.shape[:ax] + (extent + 2 * pad,) + x.shape[ax + 1 :], dtype=x.dtype)
    padded[inner] = x
    shifts = {r: lead + (slice(pad + r - half, pad + r - half + extent),) for r in offsets}
    if offsets:
        acc = padded[shifts[offsets[0]]] * w[offsets[0]]
        for r in offsets[1:]:
            acc += padded[shifts[r]] * w[r]
    else:
        acc = np.zeros(x.shape, dtype=np.result_type(x, w))

    def adjoint(g):
        gpad = np.zeros_like(padded)
        gw = np.zeros_like(w)
        for r in reversed(offsets):
            slot = gpad[shifts[r]]
            slot += g * w[r]
            gw[r : r + 1] = T._unbroadcast(np.atleast_2d(g * padded[shifts[r]]), (1, w.shape[1]))
        return gpad[inner], gw

    return acc, adjoint


def test_window_spans_pair_each_output_with_its_input():
    for n in range(6):
        for window in (1, 3, 5, 9, 13):
            spans = T.window_spans(n, window)
            half = window // 2
            assert [r for r, _, _ in spans] == [r for r in range(window) if abs(r - half) < n]
            for r, dst, src in spans:
                d = r - half
                pairs = [(j, j + d) for j in range(n) if 0 <= j + d < n]  # every on-grid pair
                assert list(zip(range(n)[dst], range(n)[src])) == pairs


def test_window_mix_matches_gather_oracle():
    rng = _rng(3)
    x = rng.normal(size=(2, 11, 3))
    for window in (1, 3, 7, 21, 23):  # 23 reaches past both edges from every position
        w = rng.normal(size=(window, 3))
        for axis in (0, 1, -1):
            got = T.window_mix(Tensor(x), Tensor(w), axis).data
            npt.assert_array_equal(got, _window_mix_oracle(x, w, axis))  # bit-exact


def test_window_mix_bad_arguments():
    x = Tensor(np.zeros((2, 5, 3)))
    with pytest.raises(DimensionError):
        T.window_mix(x, Tensor(np.zeros((2, 3))), 1)  # even window
    with pytest.raises(DimensionError):
        T.window_mix(x, Tensor(np.zeros((3, 4))), 1)  # channel mismatch
    with pytest.raises(DimensionError):
        T.window_mix(x, Tensor(np.zeros((3, 3))), 3)  # axis out of range
    with pytest.raises(DimensionError):
        T.window_mix(x, Tensor(np.zeros(3)), 1)  # 1-D weights
    with pytest.raises(DimensionError):
        T.window_mix(x, Tensor(np.zeros((3, 3, 1))), 1)  # 3-D weights


@st.composite
def _window_mix_cases(draw):
    ndim = draw(st.integers(1, 4))
    shape = draw(st.lists(st.integers(1, 4), min_size=ndim, max_size=ndim))
    axis = draw(st.integers(-ndim, ndim - 1))
    shape[axis] = draw(st.integers(0, 4))  # 0 is an empty axis
    window = draw(st.sampled_from([1, 3, 5, 7, 9]))  # 5 and up exceed every extent drawn
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return tuple(shape), axis, window, dtype, draw(st.integers(0, 2**16))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(case=_window_mix_cases())
@example(case=((2, 0, 3), 1, 9, np.float64, 0))
@example(case=((2, 1, 3), 1, 9, np.float32, 1))
@example(case=((2, 4, 1, 2), 3, 3, np.float64, 0))  # dw on the channel axis
@example(case=((2, 4, 1, 1), 0, 5, np.float64, 0))  # dw of one channel
@example(case=((5,), 0, 3, np.float64, 0))  # one axis: the channels
def test_window_mix_property(case):
    shape, axis, window, dtype, seed = case
    rng = _rng(seed)
    xd = rng.normal(size=shape).astype(dtype)
    wd = rng.normal(size=(window, shape[-1])).astype(dtype)
    rd = rng.normal(size=shape).astype(dtype)
    x, w = Tensor(xd, requires_grad=True), Tensor(wd, requires_grad=True)
    with Tape() as tape:
        out = T.window_mix(x, w, axis)
        loss = T.reduce_sum(T.mul(out, Tensor(rd)))
    assert len(tape) == 3  # window_mix, mul, reduce_sum
    tape.backward(loss)
    npt.assert_array_equal(out.data, _window_mix_oracle(xd, wd, axis))
    assert out.shape == shape and out.dtype == x.grad.dtype == w.grad.dtype == dtype
    # bit-equal, in value and dtype, to the zero-padded sum, adjoint included
    want, adjoint = _padded_window_sum_oracle(xd, wd, axis)
    npt.assert_array_equal(out.data, want)
    dx, dw = adjoint(rd)  # the upstream mul hands over rd
    npt.assert_array_equal(x.grad, dx)
    npt.assert_array_equal(w.grad, dw)
    assert dx.dtype == dw.dtype == dtype
    half, extent = window // 2, shape[axis]
    unreached = [r for r in range(window) if abs(r - half) >= extent]  # weights only padding
    npt.assert_array_equal(w.grad[unreached], 0.0)  # exact zeros

    x64 = Tensor(xd.astype(np.float64))
    w64 = Tensor(wd.astype(np.float64))
    r64 = Tensor(rd.astype(np.float64))
    rep = grad_check(
        lambda ts: T.reduce_sum(T.mul(T.window_mix(ts[0], ts[1], axis), r64)), [x64, w64], tol=1e-4
    )
    assert rep.passed, rep


# ---------------------------------------------------------------------------
# wave_mix


@settings(derandomize=True, max_examples=25, deadline=None)
@given(case=_window_mix_cases())
@example(case=((2, 0, 3), 1, 9, np.float64, 0))
@example(case=((2, 1, 3), 1, 9, np.float32, 1))
@example(case=((5,), 0, 3, np.float64, 0))
def test_wave_mix_property(case):
    shape, axis, window, dtype, seed = case
    rng = _rng(seed)
    ampd, thd, rd = (rng.normal(size=shape).astype(dtype) for _ in range(3))
    wtd, wid = (rng.normal(size=(window, shape[-1])).astype(dtype) for _ in range(2))
    amp, theta, wt, wi = (Tensor(a, requires_grad=True) for a in (ampd, thd, wtd, wid))
    out, records = _taped(lambda *ts: T.wave_mix(*ts, axis), (amp, theta, wt, wi), rd)
    assert records == 1
    c, s = np.cos(thd), np.sin(thd)
    want = _window_mix_oracle(ampd * c, wtd, axis) + _window_mix_oracle(ampd * s, wid, axis)
    npt.assert_array_equal(out.data, want)  # bit-exact
    # gr, gi: the adjoints of the two windowed sums, from window_mix's own backward
    real, wt_ref = Tensor(ampd * c, requires_grad=True), Tensor(wtd, requires_grad=True)
    imag, wi_ref = Tensor(ampd * s, requires_grad=True), Tensor(wid, requires_grad=True)
    _taped(lambda *ts: T.window_mix(*ts, axis), (real, wt_ref), rd)
    _taped(lambda *ts: T.window_mix(*ts, axis), (imag, wi_ref), rd)
    gr, gi = real.grad, imag.grad
    npt.assert_array_equal(amp.grad, gi * s + gr * c)
    npt.assert_array_equal(theta.grad, (gi * ampd) * c + (-(gr * ampd) * s))
    npt.assert_array_equal(wt.grad, wt_ref.grad)
    npt.assert_array_equal(wi.grad, wi_ref.grad)
    assert out.shape == shape and out.dtype == dtype
    _assert_owned_grads([amp, theta, wt, wi], dtype)
    _grad_check64(lambda *ts: T.wave_mix(*ts, axis), (ampd, thd, wtd, wid), rd)


# ---------------------------------------------------------------------------
# slabs: the elementwise and windowed ops work on cache-sized pieces


_SLABBED = {  # op, its argument shapes from (shape, window)
    "gelu": (lambda ts, axis: T.gelu(ts[0]), lambda sh, w: [sh]),
    "layer_norm": (
        lambda ts, axis: T.layer_norm(*ts),
        lambda sh, w: [sh, sh[-1:], sh[-1:]],
    ),
    "window_mix": (lambda ts, axis: T.window_mix(*ts, axis), lambda sh, w: [sh, (w, sh[-1])]),
    "wave_mix": (
        lambda ts, axis: T.wave_mix(*ts, axis),
        lambda sh, w: [sh, sh, (w, sh[-1]), (w, sh[-1])],
    ),
}


@st.composite
def _slab_cases(draw):
    ndim = draw(st.integers(1, 4))
    shape = tuple(draw(st.lists(st.integers(0, 6), min_size=ndim, max_size=ndim)))
    axis = draw(st.integers(-ndim, ndim - 1))
    window = draw(st.sampled_from([1, 3, 5]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    slab = draw(st.sampled_from([1, 4, 7, 30, 200]))  # elements per slab, so several per array
    return shape, axis, window, dtype, slab, draw(st.integers(0, 2**16))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=_slab_cases(), keep_axis=st.booleans(), keep_channels=st.booleans())
def test_slabs_cover_each_element_once_and_keep_the_whole_axes(case, keep_axis, keep_channels):
    shape, axis, _, dtype, slab, _ = case
    kept = {axis % len(shape)} if keep_axis else set()
    whole = tuple(kept | {len(shape) - 1} if keep_channels else kept)
    row = math.prod(shape[ax] for ax in whole)  # a slab holds at least one index of the rest
    seen = np.zeros(shape, dtype=int)
    with mock.patch.object(T, "_SLAB", slab):
        slabs = list(T._slabs(shape, whole, dtype, 1))
    for index, scratch in slabs:
        seen[index] += 1
        assert scratch.shape == seen[index].shape and scratch.dtype == dtype
        assert scratch.size <= max(slab, row)
        assert all(scratch.shape[ax] == shape[ax] for ax in whole)
    assert (seen == 1).all()
    assert len(slabs) == 1 or math.prod(shape) > slab


def _run_slabbed(name, arrays, upstream, axis, slab, taped):
    """The op's output bytes and, when taped, its inputs' gradient bytes, with slabs of ``slab``."""
    op = _SLABBED[name][0]
    ts = [Tensor(a, requires_grad=taped) for a in arrays]
    with mock.patch.object(T, "_SLAB", slab):
        if not taped:
            out = op(ts, axis)
            return out.data.dtype, out.data.tobytes(), None
        out, _ = _taped(lambda *ts: op(ts, axis), ts, upstream)
    return out.data.dtype, out.data.tobytes(), [(t.grad.dtype, t.grad.tobytes()) for t in ts]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_SLABBED)), case=_slab_cases())
@example(name="gelu", case=((), 0, 1, np.float64, 1, 0))  # a 0-d array is one slab
@example(name="gelu", case=((3, 5, 4500), 0, 1, np.float32, T._SLAB, 1))  # ragged real slabs
@example(name="wave_mix", case=((2, 30, 9, 130), 1, 7, np.float64, T._SLAB, 2))
@example(name="wave_mix", case=((3, 40, 2, 300), 3, 3, np.float32, T._SLAB, 3))
@example(name="window_mix", case=((2, 9, 40, 100), 2, 5, np.float64, T._SLAB, 4))
@example(name="layer_norm", case=((70, 3, 200), 0, 1, np.float64, T._SLAB, 5))
def test_slabbed_ops_are_byte_equal_untaped_taped_and_in_one_slab(name, case):
    """Untaped, taped and with the whole array as one slab, the outputs and the gradients are
    byte-equal, for empty arrays and for several slabs with a ragged last one."""
    shape, axis, window, dtype, slab, seed = case
    if name == "layer_norm" and shape[-1] == 0:
        shape = shape[:-1] + (1,)  # layer_norm needs a channel
    rng = _rng(seed)
    arrays = [rng.normal(size=s).astype(dtype) for s in _SLABBED[name][1](shape, window)]
    upstream = rng.normal(size=shape).astype(dtype)
    want = _run_slabbed(name, arrays, upstream, axis, 2**62, True)
    assert _run_slabbed(name, arrays, upstream, axis, slab, True) == want
    assert _run_slabbed(name, arrays, upstream, axis, slab, False)[:2] == want[:2]


def test_untaped_gelu_peaks_at_its_output_and_two_slabs():
    """Untaped at the T model's first-stage hidden shape, GELU's peak is at most 1.25x its input:
    the output plus two slab buffers (1.07x when this was set)."""
    x = Tensor(_rng(2).normal(size=(1, 56, 56, 256)), requires_grad=True)
    tracemalloc.start()
    try:
        out = T.gelu(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * x.data.nbytes, peak / x.data.nbytes
    assert out.requires_grad


def test_taped_gelu_holds_its_output_and_no_tanh():
    """Taped on a multi-slab f64 input, GELU holds at most 1.25x the input's bytes after the
    call: its output. The record keeps only x, which the caller holds anyway, and backward
    recomputes the tanh (2x when the record kept a whole tanh array)."""
    x = Tensor(_rng(3).normal(size=(4, 28, 28, 64)), requires_grad=True)
    assert x.size > T._SLAB
    tracemalloc.start()
    try:
        with Tape() as tape:
            out = T.gelu(x)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tape) == 1 and out.requires_grad
    assert held <= 1.25 * x.data.nbytes, held / x.data.nbytes


@pytest.mark.parametrize("axis", [1, 2])
def test_untaped_wave_mix_frees_each_term_once_summed(axis):
    """Untaped, the peak is at most 2x the amplitude's bytes (the output and a few slab
    buffers), and the result is the taped one."""
    rng = _rng(axis)
    amp, theta = (Tensor(rng.normal(size=(1, 56, 56, 64))) for _ in range(2))
    wt, wi = (Tensor(rng.normal(size=(7, 64)), requires_grad=True) for _ in range(2))
    tracemalloc.start()
    try:
        out = T.wave_mix(amp, theta, wt, wi, axis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * amp.data.nbytes, peak / amp.data.nbytes
    with Tape() as tape:
        taped = T.wave_mix(amp, theta, wt, wi, axis)
    assert len(tape) == 1
    npt.assert_array_equal(out.data, taped.data)
    assert out.requires_grad


@pytest.mark.parametrize("axis", [1, 2])
def test_taped_wave_mix_holds_the_terms_not_a_padded_copy(axis):
    """Taped at the pilot's first-stage shape, the tape holds at most 3.5x the amplitude's bytes:
    cos(theta), sin(theta) and the output, but not the products with amp, which backward rebuilds."""
    rng = _rng(axis)
    amp, theta = (Tensor(rng.normal(size=(64, 4, 4, 16)), requires_grad=True) for _ in range(2))
    wt, wi = (Tensor(rng.normal(size=(7, 16)), requires_grad=True) for _ in range(2))
    tracemalloc.start()
    try:
        with Tape() as tape:
            out = T.wave_mix(amp, theta, wt, wi, axis)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tape) == 1 and out.requires_grad
    assert held <= 3.5 * amp.data.nbytes, held / amp.data.nbytes


def test_wave_mix_bad_arguments():
    x = Tensor(np.zeros((2, 5, 3)))
    w = Tensor(np.zeros((3, 3)))
    with pytest.raises(DimensionError):
        T.wave_mix(x, Tensor(np.zeros((2, 5, 2))), w, w, 1)  # amp and theta differ
    with pytest.raises(DimensionError):
        T.wave_mix(x, x, w, Tensor(np.zeros((5, 3))), 1)  # wt and wi differ
    with pytest.raises(DimensionError):
        T.wave_mix(x, x, Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), 1)  # even window
    with pytest.raises(DimensionError):
        T.wave_mix(x, x, Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 4))), 1)  # channels
    with pytest.raises(DimensionError):
        T.wave_mix(x, x, w, w, 3)  # axis out of range


def test_aggregate_tokens_tape_length_is_independent_of_window():
    rng = _rng(11)
    amp = Tensor(rng.normal(size=(1, 4, 5, 2)), requires_grad=True)
    theta = Tensor(rng.normal(size=(1, 4, 5, 2)), requires_grad=True)
    lengths = []
    for window in (1, 3, 7):
        wt = Tensor(rng.normal(size=(window, 2)), requires_grad=True)
        wi = Tensor(rng.normal(size=(window, 2)), requires_grad=True)
        with Tape() as tape:
            aggregate_tokens(amp, theta, wt, wi, "width")
        lengths.append(len(tape))
    assert lengths == [1, 1, 1], lengths  # one wave_mix record


def test_shape_op_gradients():
    rng = _rng(5)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    r3 = Tensor(rng.normal(size=(2, 3, 4)))
    w5 = Tensor(rng.normal(size=(5, 4)))  # window 5 is wider than the axis extent 3
    checks = [
        lambda t: T.reduce_mean(T.mul(T.window_mix(t, w5, 1), r3)),
        lambda t: T.reduce_sum(T.mul(T.reduce_mean(t, axis=(0, 2)), Tensor(2.0))),
    ]
    for f in checks:
        rep = grad_check(f, x, tol=1e-4)
        assert rep.passed, rep


# ---------------------------------------------------------------------------
# patchify


def _patchify_oracle(x: np.ndarray, p: int) -> np.ndarray:
    """Index-by-index gather: tile (i, j) holds pixel (i*p + r, j*p + q, ch) in (r, q, ch) order."""
    b, h, w, c = x.shape
    out = np.zeros((b, -(-h // p), -(-w // p), p * p * c), dtype=x.dtype)
    for n, i, j, k in np.ndindex(*out.shape):
        r, rest = divmod(k, p * c)
        q, ch = divmod(rest, c)
        if i * p + r < h and j * p + q < w:  # else a zero of the padding
            out[n, i, j, k] = x[n, i * p + r, j * p + q, ch]
    return out


@st.composite
def _patchify_cases(draw):
    shape = tuple(draw(st.integers(1, n)) for n in (2, 7, 7, 3))  # B, H, W, C
    patch = draw(st.integers(1, 3))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return shape, patch, dtype, draw(st.integers(0, 2**16))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(case=_patchify_cases())
@example(case=((1, 5, 3, 2), 2, np.float32, 0))  # ragged along both axes
@example(case=((2, 3, 4, 1), 1, np.float64, 1))  # patch 1 tiles nothing
def test_patchify_property(case):
    shape, patch, dtype, seed = case
    rng = _rng(seed)
    xd = rng.normal(size=shape).astype(dtype)
    want = _patchify_oracle(xd, patch)
    gd = rng.normal(size=want.shape).astype(dtype)
    x = Tensor(xd, requires_grad=True)
    out, records = _taped(T.patchify, (x, patch), gd)
    assert records == 1
    npt.assert_array_equal(out.data, want)  # bit-exact, padding exact zeros
    assert out.dtype == dtype
    _assert_owned_grads([x], dtype)
    # the gradient gathers back exactly what the forward scattered
    for n, i, j, ch in np.ndindex(*shape):
        k = ((i % patch) * patch + j % patch) * shape[3] + ch
        assert x.grad[n, i, j, ch] == gd[n, i // patch, j // patch, k]
    _grad_check64(lambda t: T.patchify(t, patch), (xd,), gd)


def test_patchify_bad_arguments():
    with pytest.raises(DimensionError):
        T.patchify(Tensor(np.zeros((4, 4, 3))), 2)  # no batch axis
    with pytest.raises(DimensionError):
        T.patchify(Tensor(np.zeros((1, 0, 4, 3))), 2)  # empty
    with pytest.raises(DimensionError):
        T.patchify(Tensor(np.zeros((1, 4, 4, 3))), 0)  # no patch


# ---------------------------------------------------------------------------
# softmax_cross_entropy


@st.composite
def _logit_cases(draw):
    n, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return n, c, dtype, draw(st.integers(0, 2**16))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(case=_logit_cases())
def test_softmax_cross_entropy_property(case):
    n, c, dtype, seed = case
    rng = _rng(seed)
    zd = (3.0 * rng.normal(size=(n, c))).astype(dtype)
    labels = rng.integers(0, c, size=n)
    gd = rng.normal(size=()).astype(dtype)
    z = Tensor(zd, requires_grad=True)
    out, records = _taped(T.softmax_cross_entropy, (z, labels), gd)
    assert records == 1
    assert out.shape == () and out.dtype == dtype
    _assert_owned_grads([z], dtype)
    _grad_check64(lambda t: T.softmax_cross_entropy(t, labels), (zd,), gd)


@pytest.mark.parametrize(
    "n, labels, error",
    [
        (2, [0.5, 1], ContractError),
        (2, [True, False], ContractError),
        (2, ["0", "1"], ContractError),
        (0, [], DimensionError),
    ],
    ids=["float", "bool", "string", "empty-batch"],
)
def test_softmax_cross_entropy_bad_labels(n, labels, error):
    with pytest.raises(error):
        T.softmax_cross_entropy(Tensor(np.zeros((n, 3))), labels)


# ---------------------------------------------------------------------------
# tape behaviour


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = T.mul(x, x)
    with pytest.raises(ContractError):
        tape.backward(y)


def test_backward_populates_each_leaf_once_and_zeros_unused():
    rng = _rng(6)
    x = Tensor(rng.normal(size=4), requires_grad=True)
    unused = Tensor(rng.normal(size=4), requires_grad=True)
    with Tape() as tape:
        _side = T.mul(unused, unused)  # on the tape, but not feeding the loss
        loss = T.reduce_sum(T.mul(x, x))
    tape.backward(loss)
    npt.assert_allclose(x.grad, 2.0 * x.data, rtol=1e-12)
    npt.assert_array_equal(unused.grad, np.zeros(4))
    # a tape replays once: a second backward raises and leaves the gradients alone
    grad = x.grad
    with pytest.raises(ContractError):
        tape.backward(loss)
    assert x.grad is grad


def test_backward_hands_each_leaf_an_owned_writeable_grad():
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        loss = T.reduce_sum(T.add(a, b))  # one broadcast view would serve both
    tape.backward(loss)
    assert a.grad is not b.grad
    assert a.grad.flags.writeable and b.grad.flags.writeable
    a.grad *= 2
    npt.assert_array_equal(a.grad, [2.0, 2.0, 2.0])
    npt.assert_array_equal(b.grad, [1.0, 1.0, 1.0])


def test_backward_copies_a_grad_that_views_another_leafs():
    rng = _rng(9)
    a = Tensor(rng.normal(size=(1, 2, 3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(1, 2, 3, 2)), requires_grad=True)
    r = Tensor(rng.normal(size=(1, 2, 3, 2)))
    with Tape() as tape:
        loss = T.reduce_sum(T.mul(T.add(a, T.patchify(b, 1)), r))  # b's grad views a's
    tape.backward(loss)
    assert not np.shares_memory(a.grad, b.grad)
    npt.assert_array_equal(a.grad, r.data)
    npt.assert_array_equal(b.grad, r.data)
    b.grad[:] = 0.0
    npt.assert_array_equal(a.grad, r.data)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_broadcast_0d_leaf_gets_an_owned_0d_array(dtype):
    s = Tensor(np.array(2.0, dtype=dtype), requires_grad=True)
    x = Tensor(np.arange(6, dtype=dtype).reshape(2, 3))
    with Tape() as tape:
        loss = T.reduce_mean(T.mul(s, x))  # numpy sums s's gradient to a scalar
    tape.backward(loss)
    assert isinstance(s.grad, np.ndarray) and s.grad.shape == () and s.grad.dtype == dtype
    assert s.grad.flags.writeable
    npt.assert_array_equal(s.grad, 2.5)  # the mean of x


def test_taping_keeps_a_leafs_stale_grad_until_the_leaf_pass_replaces_it():
    """Recording writes no Tensor: a stale .grad survives taping and the walk, and the leaf
    pass then assigns a new array the leaf owns."""
    x = Tensor(np.ones(3), requires_grad=True)
    stale = x.grad = np.full(3, 7.0)  # a gradient from an earlier step
    seen = []

    def probe(a):  # an identity op whose backward reports the leaf's .grad
        def backward(g):
            seen.append(x.grad)
            return (g,)

        return T._result(a.data.copy(), (a,), backward)

    with Tape() as tape:
        loss = T.reduce_sum(probe(x))
    assert x.grad is stale
    tape.backward(loss)
    with pytest.raises(ContractError):
        tape.backward(loss)  # a tape replays once
    assert len(seen) == 1 and seen[0] is stale
    assert x.grad is not stale and not np.shares_memory(x.grad, stale)
    npt.assert_array_equal(x.grad, np.ones(3))
    npt.assert_array_equal(stale, 7.0)


def test_backward_frees_a_later_record_before_it_replays_an_earlier_one():
    x = Tensor(np.ones(3), requires_grad=True)
    held, freed = [], []

    def late(a):  # an identity op whose record alone holds an array
        kept = a.data.copy()
        held.append(weakref.ref(kept))
        return T._result(a.data.copy(), (a,), lambda g: (g * (kept / kept),))

    def early(a):  # an identity op whose backward reports whether late's array is gone
        def backward(g):
            freed.append(held[0]() is None)
            return (g,)

        return T._result(a.data.copy(), (a,), backward)

    with Tape() as tape:
        loss = T.reduce_sum(late(early(x)))
    assert held[0]() is not None
    tape.backward(loss)
    assert freed == [True] and len(tape) == 0
    npt.assert_array_equal(x.grad, np.ones(3))


def test_a_replayed_tape_records_nothing_more():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        loss = T.reduce_sum(T.mul(x, x))
        tape.backward(loss)
        with pytest.raises(ContractError):
            T.mul(x, x)
    npt.assert_array_equal(x.grad, 2.0 * x.data)


def test_tape_keeps_no_phase_array_alive():
    """wave_mix's record keeps cos and sin of theta, not theta: the tape drops theta's array."""
    rng = _rng(10)
    shapes = [(1, 3, 4, 2), (2, 2), (3, 2), (3, 2)]
    x, w, wt, wi = (Tensor(rng.normal(size=s), requires_grad=True) for s in shapes)
    with Tape() as tape:
        theta = T.linear(x, w)
        phase = weakref.ref(theta.data)
        loss = T.reduce_sum(T.wave_mix(x, theta, wt, wi, 1))
        del theta
    gc.collect()
    assert phase() is None
    tape.backward(loss)
    assert all(t.grad.shape == t.shape for t in (x, w, wt, wi))


def test_taped_mul_keeps_no_operand_that_only_the_other_gradient_reads():
    """As in dropout's mask multiply: the mask needs no gradient, so the record drops h."""
    rng = _rng(12)
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    mask = rng.random((2, 3)) > 0.5
    with Tape() as tape:
        h = T.gelu(x)
        hidden = weakref.ref(h.data)
        loss = T.reduce_sum(T.mul(h, Tensor(mask)))
        del h
    gc.collect()
    assert hidden() is None
    tape.backward(loss)
    grad = x.grad
    m = Tensor(mask, requires_grad=True)  # now both gradients are needed
    with Tape() as tape:
        loss = T.reduce_sum(T.mul(T.gelu(x), m))
    tape.backward(loss)
    npt.assert_array_equal(grad, x.grad)
    npt.assert_array_equal(m.grad, T.gelu(x).data)


def test_tape_keeps_no_add_output_that_only_layer_norm_reads():
    rng = _rng(11)
    a, b = (Tensor(rng.normal(size=(2, 3)), requires_grad=True) for _ in range(2))
    scale, shift = (Tensor(rng.normal(size=3), requires_grad=True) for _ in range(2))
    with Tape() as tape:
        h = T.add(a, b)
        residual = weakref.ref(h.data)
        loss = T.reduce_sum(T.layer_norm(h, scale, shift))
        del h
    gc.collect()
    assert residual() is None
    tape.backward(loss)
    npt.assert_array_equal(a.grad, b.grad)


def test_tensor_used_twice_accumulates():
    x = Tensor([3.0], requires_grad=True)
    with Tape() as tape:
        loss = T.reduce_sum(T.mul(x, x))
    tape.backward(loss)
    npt.assert_allclose(x.grad, [6.0])


def test_no_recording_outside_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    tape = Tape()
    with tape:
        T.mul(x, x)
    n = len(tape)
    T.mul(x, x)  # outside: must not record anywhere
    assert len(tape) == n


# op -> (call on Tensors, shapes of its Tensor inputs)
_OPS = {
    "add": (T.add, [(2, 3), (3,)]),
    "mul": (T.mul, [(2, 3), (2, 1)]),
    "gelu": (T.gelu, [(2, 3)]),
    "linear": (T.linear, [(2, 3), (4, 3)]),
    "layer_norm": (T.layer_norm, [(2, 3), (3,), (3,)]),
    "reduce_sum": (T.reduce_sum, [(2, 3)]),
    "reduce_mean": (lambda a: T.reduce_mean(a, axis=1), [(2, 3)]),
    "window_mix": (lambda x, w: T.window_mix(x, w, 1), [(2, 4, 3), (3, 3)]),
    "wave_mix": (lambda *t: T.wave_mix(*t, axis=2), [(1, 4, 5, 3), (1, 4, 5, 3), (3, 3), (3, 3)]),
    "patchify": (lambda x: T.patchify(x, 2), [(1, 3, 4, 2)]),
    "softmax_cross_entropy": (lambda z: T.softmax_cross_entropy(z, [0, 2]), [(2, 3)]),
}


@pytest.mark.parametrize("name", list(_OPS))
def test_op_output_needs_grad_iff_an_input_does_and_is_taped_iff_a_tape_is_active(name, monkeypatch):
    assert set(_OPS) == set(T.__all__) - {"Tensor", "Tape", "GradCheckReport", "window_spans", "grad_check"}
    op, shapes = _OPS[name]
    records = []  # every Tape.record call, taped or not
    record = Tape.record
    monkeypatch.setattr(Tape, "record", lambda tape, *args: records.append(record(tape, *args)))

    def run(needs_grad, taped):
        inputs = [Tensor(_rng(i).normal(size=s), g) for i, (s, g) in enumerate(zip(shapes, needs_grad))]
        records.clear()
        if not taped:
            return op(*inputs), None
        with Tape() as tape:
            return op(*inputs), tape

    out, tape = run([False] * len(shapes), taped=True)
    assert not out.requires_grad and len(tape) == 0 and not records
    for i in range(len(shapes)):
        out, tape = run([j == i for j in range(len(shapes))], taped=True)
        assert out.requires_grad and len(tape) == 1 and len(records) == 1, i
        assert tape._records[0][1] == out.uid
    out, _ = run([True] * len(shapes), taped=False)
    assert out.requires_grad and not records


def _reachable(root):
    """Every object reachable from ``root``, itself first, each once: through a function's
    closure cells and defaults, and the items of tuples, lists and dicts (keys too). Other
    objects, arrays and Tensors among them, are yielded but not entered."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, types.FunctionType):
            for cell in obj.__closure__ or ():
                with contextlib.suppress(ValueError):  # an empty cell holds nothing
                    stack.append(cell.cell_contents)
            stack += [*(obj.__defaults__ or ()), *(obj.__kwdefaults__ or {}).values()]
        elif isinstance(obj, (tuple, list)):
            stack += obj
        elif isinstance(obj, dict):
            stack += [*obj, *obj.values()]


_DTYPES = [np.float32, np.float64]
_KEEP = np.array([[True, False, True], [True, True, False]])
_RECORDED_OPS = {  # every taped op: _OPS, plus linear with each prologue
    **_OPS,
    "linear-gelu": (lambda x, w: T.linear(x, w, gelu=True), _OPS["linear"][1]),
    "linear-gelu-dropout": (lambda x, w: T.linear(x, w, True, (_KEEP, 0.25)), _OPS["linear"][1]),
}


@pytest.mark.parametrize("name", list(_RECORDED_OPS))
@settings(derandomize=True, max_examples=12, deadline=None)
@given(needs=st.lists(st.booleans(), min_size=4, max_size=4), dtype=st.sampled_from(_DTYPES))
def test_no_record_reaches_a_tensor(name, needs, dtype):
    """A record holds arrays, never a Tensor: walking it, its closure included, finds none,
    whichever inputs need a gradient, so what it computes is fixed when it is taped. Nor
    does recording write one: each input's .grad is the object it held before."""
    op, shapes = _RECORDED_OPS[name]
    needs = needs[: len(shapes)]
    arrays = [_rng(i).normal(size=s).astype(dtype) for i, s in enumerate(shapes)]
    inputs = [Tensor(a, g) for a, g in zip(arrays, needs)]
    sentinels = [np.full(t.shape, 7.0, t.dtype) for t in inputs]
    for t, g in zip(inputs, sentinels):
        t.grad = g
    with Tape() as tape:
        op(*inputs)
    assert len(tape) == any(needs)
    assert all(t.grad is g for t, g in zip(inputs, sentinels)), name
    for record in tape._records:
        assert not [o for o in _reachable(record) if isinstance(o, Tensor)], name


def test_reachable_walks_cells_defaults_and_containers():
    t, a = Tensor(np.ones(2)), np.ones(2)

    def outer(d=[{"k": (t,)}]):
        return lambda: (d, a)

    found = list(_reachable(outer()))
    assert any(o is t for o in found) and any(o is a for o in found)
    assert not any(o is t for o in _reachable(lambda: a))


@pytest.mark.parametrize("change", ["flags", "data"])
def test_changing_a_leaf_after_taping_changes_no_gradient(change):
    """linear (with and without its prologue, its dw at once and late), layer_norm and
    window_mix bind what their backward reads as they run: setting the requires_grad of
    every leaf and op input to False, or rebinding its .data, after taping leaves every
    .grad as an untouched tape's."""
    rng = _rng(29)
    arrays = [rng.normal(size=s) for s in ((1, 3, 8), (8, 8), (8,), (8,), (6, 8), (3, 6), (4, 8))]
    keep, upstream = rng.random((1, 3, 8)) >= 0.25, Tensor(rng.normal(size=(1, 3, 6)))

    def grads(touch):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        x, w1, scale, shift, w2, wm, w3 = leaves
        with Tape() as tape:
            h = T.layer_norm(T.linear(x, w1), scale, shift)  # 3 rows: w1's dw is late
            mixed = T.linear(h, w2, True, (keep, 0.25))
            y = T.window_mix(mixed, wm, 1)
            loss = T.add(T.reduce_sum(T.mul(y, upstream)), T.reduce_mean(T.linear(h, w3)))
        if touch:
            for t in leaves + [h, mixed]:
                if change == "flags":
                    t.requires_grad = False
                else:
                    t.data = np.zeros_like(t.data)
        tape.backward(loss)
        return [t.grad for t in leaves]

    for got, want in zip(grads(True), grads(False)):
        npt.assert_array_equal(got, want)
        assert np.any(want != 0)


_MIXABLE = ["add", "mul", "linear", "layer_norm", "window_mix", "wave_mix"]  # the multi-input ops


@st.composite
def _mixed_dtype_cases(draw):
    name = draw(st.sampled_from(_MIXABLE))
    n = len(_OPS[name][1])
    dtypes = draw(
        st.lists(st.sampled_from([np.float32, np.float64]), min_size=n, max_size=n).filter(
            lambda ds: len(set(ds)) == 2
        )
    )
    return name, dtypes, draw(st.integers(0, 2**16))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(case=_mixed_dtype_cases())
def test_an_op_mixing_float32_and_float64_is_refused_and_tapes_nothing(case):
    name, dtypes, seed = case
    op, shapes = _OPS[name]
    rng = _rng(seed)
    arrays = [rng.normal(size=s) for s in shapes]
    ts = [Tensor(a.astype(d), requires_grad=True) for a, d in zip(arrays, dtypes)]
    stale = [np.full(t.shape, 7.0, t.dtype) for t in ts]
    for t, g in zip(ts, stale):
        t.grad = g  # the walk assigns every registered leaf, so a registered input loses it
    with Tape() as tape:
        T.gelu(Tensor(np.ones(2), requires_grad=True))
        with pytest.raises(ContractError, match="one dtype per graph"):
            op(*ts)
        assert len(tape) == 1
        same = [Tensor(a.astype(dtypes[0]), requires_grad=True) for a in arrays]
        out = op(*same)
        assert len(tape) == 2 and out.dtype == dtypes[0]
        loss = T.reduce_sum(out)
    tape.backward(loss)
    assert all(t.grad is g for t, g in zip(ts, stale))
    assert all(t.grad is not None for t in same)


@pytest.mark.parametrize(
    "data",
    [[1 + 2j], ["1.0"], [None], np.array([1.0], dtype=object)],
    ids=["complex", "string", "none", "object"],
)
def test_tensor_rejects_data_that_is_not_real_numbers(data):
    with pytest.raises(ContractError, match="real numbers"):
        Tensor(data)


@pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
def test_item_returns_the_one_element_as_a_float(shape):
    value = Tensor(np.full(shape, 2.5, dtype=np.float32)).item()
    assert value == 2.5 and type(value) is float


@pytest.mark.parametrize("shape", [(0,), (2,), (2, 3)])
def test_item_rejects_a_tensor_that_is_not_one_element(shape):
    with pytest.raises(ContractError, match="scalar"):
        Tensor(np.zeros(shape)).item()


@pytest.mark.parametrize("data", [[True, False], np.arange(2, dtype=np.int32), np.ones(2, np.float16)])
def test_tensor_turns_bool_int_and_other_float_data_into_f64(data):
    t = Tensor(data)
    assert t.dtype == np.float64
    npt.assert_array_equal(t.data, np.asarray(data, dtype=np.float64))


def test_forward_determinism_bit_identical():
    rng = _rng(8)
    x = rng.normal(size=(5, 5))
    w = rng.normal(size=(5, 5))

    def run():
        return T.gelu(T.linear(Tensor(x), Tensor(w))).data

    npt.assert_array_equal(run(), run())


# ---------------------------------------------------------------------------
# grad_check harness


def test_grad_check_analytic_quadratic():
    rng = _rng(9)
    x = Tensor(rng.normal(size=8), requires_grad=True)
    rep = grad_check(lambda t: T.reduce_sum(T.mul(t, t)), x, tol=1e-10)
    assert rep.passed and isinstance(rep, GradCheckReport), rep


def test_grad_check_detects_wrong_backward_rule():
    from wavemlp.tensor import _result

    def bad_scale(t):
        return _result(t.data * 2.0, (t,), lambda g: (g * 3.0,))  # deliberately wrong

    x = Tensor(_rng(10).normal(size=4), requires_grad=True)
    rep = grad_check(lambda t: T.reduce_sum(bad_scale(t)), x, tol=1e-6)
    assert not rep.passed


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_grad_check_fails_on_a_non_finite_backward(bad):
    from wavemlp.tensor import _result

    def broken(t):
        return _result(t.data * 2.0, (t,), lambda g: (np.full_like(g, bad),))

    x = Tensor(_rng(10).normal(size=4), requires_grad=True)
    rep = grad_check(lambda t: T.reduce_sum(broken(t)), x)
    assert not rep.passed and not np.isfinite(rep.max_rel_err), rep
    assert "nan" in str(rep) or "inf" in str(rep)


def test_grad_check_fails_on_a_non_finite_numeric_derivative():
    """f is 0 at the point and nan beside it: the analytic derivative (0) is
    finite, the central difference is nan."""
    from wavemlp.tensor import _result

    def spike(t):
        return _result(np.where(t.data == 0.0, 0.0, np.nan), (t,), lambda g: (np.zeros_like(g),))

    x = Tensor(np.zeros(2), requires_grad=True)
    rep = grad_check(lambda t: T.reduce_sum(spike(t)), x)
    assert not rep.passed and np.isnan(rep.max_rel_err), rep


def test_grad_check_ignores_a_stale_grad_of_an_input_f_does_not_use():
    """``b``'s ``.grad`` from an earlier tape is not its derivative here: f never reads b."""
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    with Tape() as tape:
        y = T.reduce_sum(T.mul(b, b))
    tape.backward(y)
    npt.assert_array_equal(b.grad, [6.0, 8.0])
    rep = grad_check(lambda ts: T.reduce_sum(T.mul(ts[0], ts[0])), [a, b])
    assert rep.passed and rep.per_input[1] == 0.0, rep


@pytest.mark.parametrize(
    "kwargs",
    [
        {"step": np.nan}, {"step": np.inf}, {"step": -1e-5}, {"tol": np.nan}, {"tol": np.inf}, {"tol": -1.0},
        {"step": True}, {"step": 10**400}, {"tol": 10**400},
    ],
    ids=[
        "step-nan", "step-inf", "step-negative", "tol-nan", "tol-inf", "tol-negative",
        "step-bool", "step-huge-int", "tol-huge-int",
    ],
)
def test_grad_check_rejects_a_bad_step_or_tolerance(kwargs):
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError):
        grad_check(lambda t: T.reduce_sum(T.mul(t, t)), x, **kwargs)


@pytest.mark.parametrize("dtypes", [[np.float32], [np.float64, np.float32]], ids=["f32", "f64-f32"])
def test_grad_check_refuses_an_input_that_is_not_float64_before_its_tape(dtypes):
    xs = [Tensor(np.ones(3, d), requires_grad=True) for d in dtypes]
    stale = [np.ones(3, d) for d in dtypes]
    for t, g in zip(xs, stale):
        t.grad = g
    calls = []
    with pytest.raises(ContractError, match="float64"):
        grad_check(lambda ts: calls.append(ts) or T.reduce_sum(T.mul(ts[0], ts[0])), xs)
    assert not calls and all(t.grad is g for t, g in zip(xs, stale))


def test_grad_check_rejects_non_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError):
        grad_check(lambda t: T.mul(t, t), x)
    with pytest.raises(ContractError):
        grad_check(lambda t: T.reduce_sum(t), x, step=0.0)
