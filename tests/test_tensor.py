"""Tensor core: op semantics, tape correctness, and the grad-check harness."""

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
# matmul


def test_matmul_identity():
    v = Tensor([[2.0], [-1.0], [5.0]])
    out = T.matmul(Tensor(np.eye(3)), v)
    npt.assert_array_equal(out.data, v.data)


def test_matmul_hand_case():
    out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    npt.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(DimensionError):
        T.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


def test_matmul_gradient_vs_finite_differences():
    rng = _rng(1)
    a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    r = Tensor(rng.normal(size=(4, 3)))
    rep = grad_check(lambda ts: T.reduce_sum(T.mul(T.matmul(a, b), r)), [a, b], step=1e-5, tol=1e-6)
    assert rep.passed, rep


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
    out, records = _taped(lambda *ts: T.layer_norm(*ts, 1e-5), (x, scale, shift), gd)
    assert records == 1
    centered = xd - xd.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    unit = centered / np.sqrt(var + 1e-5)
    npt.assert_array_equal(out.data, unit * sd + hd)  # bit-exact step chain
    assert out.dtype == x.grad.dtype == scale.grad.dtype == shift.grad.dtype == dtype

    ts64 = [Tensor(a.astype(np.float64)) for a in (xd, sd, hd)]
    r64 = Tensor(gd.astype(np.float64))
    rep = grad_check(lambda ts: T.reduce_sum(T.mul(T.layer_norm(*ts, 1e-5), r64)), ts64)
    assert rep.passed, rep


def test_layer_norm_bad_affine_shapes():
    x = Tensor(np.zeros((2, 4)))
    with pytest.raises(DimensionError):
        T.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(4)), 1e-5)
    with pytest.raises(DimensionError):
        T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros((1, 4))), 1e-5)


# ---------------------------------------------------------------------------
# elementwise


def test_cos_sin_trivia():
    x = Tensor([0.0, np.pi / 2, np.pi])
    npt.assert_allclose(T.cos(x).data, [1.0, 0.0, -1.0], atol=1e-15)
    npt.assert_allclose(T.sin(x).data, [0.0, 1.0, 0.0], atol=1e-15)


def test_gelu_gradient_on_100_random_points():
    rng = _rng(2)
    x = Tensor(rng.normal(size=100), requires_grad=True)
    r = Tensor(rng.normal(size=100))
    rep = grad_check(lambda t: T.reduce_sum(T.mul(T.gelu(t), r)), x, step=1e-5, tol=1e-6)
    assert rep.passed, rep


def test_incompatible_broadcast_raises():
    with pytest.raises(DimensionError):
        T.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


@pytest.mark.parametrize(
    "op,n_args",
    [
        (T.add, 2),
        (T.mul, 2),
        (T.cos, 1),
        (T.sin, 1),
        (T.gelu, 1),
    ],
)
def test_elementwise_family_gradients(op, n_args):
    rng = _rng(hash(op.__name__) % 2**31)
    xs = [Tensor(rng.normal(size=(3, 4)), requires_grad=True) for _ in range(n_args)]
    r = Tensor(rng.normal(size=(3, 4)))
    rep = grad_check(
        lambda ts: T.reduce_sum(T.mul(op(*(ts if n_args > 1 else [ts])), r)),
        xs if n_args > 1 else xs[0],
        tol=1e-4,
    )
    assert rep.passed, (op.__name__, rep)


# ---------------------------------------------------------------------------
# reductions / shape ops


def test_reduce_sum_axis():
    out = T.reduce_sum(Tensor([[1.0, 2.0], [3.0, 4.0]]), axis=1)
    npt.assert_array_equal(out.data, [3.0, 7.0])


def test_reduce_axis_out_of_range():
    with pytest.raises(DimensionError):
        T.reduce_sum(Tensor(np.zeros((2, 2))), axis=2)


def test_pad_zeros_trivial():
    out = T.pad_zeros(Tensor([1.0, 2.0, 3.0]), 0, 1, 1)
    npt.assert_array_equal(out.data, [0.0, 1.0, 2.0, 3.0, 0.0])


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
    ndim = draw(st.integers(2, 4))
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
    assert lengths == [lengths[0]] * 3, lengths


def test_reshape_and_transpose_roundtrip():
    rng = _rng(4)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    y = T.transpose(T.reshape(x, (6, 4)), (1, 0))
    assert y.shape == (4, 6)
    with pytest.raises(DimensionError):
        T.reshape(x, (5, 5))
    with pytest.raises(DimensionError):
        T.transpose(x, (0, 0, 1))


def test_shape_op_gradients():
    rng = _rng(5)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    r1 = Tensor(rng.normal(size=(4, 3, 2)))
    r2 = Tensor(rng.normal(size=(2, 5, 4)))
    r3 = Tensor(rng.normal(size=(2, 3, 4)))
    w5 = Tensor(rng.normal(size=(5, 4)))  # window 5 is wider than the axis extent 3
    checks = [
        lambda t: T.reduce_sum(T.mul(T.transpose(t, (2, 1, 0)), r1)),
        lambda t: T.reduce_sum(T.mul(T.pad_zeros(t, 1, 1, 1), r2)),
        lambda t: T.reduce_mean(T.mul(T.window_mix(t, w5, 1), r3)),
        lambda t: T.reduce_sum(T.mul(T.reduce_mean(t, axis=(0, 2), keepdims=True), 2.0)),
    ]
    for f in checks:
        rep = grad_check(f, x, tol=1e-4)
        assert rep.passed, rep


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
    # a second backward overwrites, not accumulates
    tape.backward(loss)
    npt.assert_allclose(x.grad, 2.0 * x.data, rtol=1e-12)


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
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    r = Tensor(rng.normal(size=(2, 3)))
    with Tape() as tape:
        loss = T.reduce_sum(T.mul(T.add(a, T.transpose(b)), r))  # b's grad is a.grad.T
    tape.backward(loss)
    assert not np.shares_memory(a.grad, b.grad)
    npt.assert_array_equal(a.grad, r.data)
    npt.assert_array_equal(b.grad, r.data.T)
    b.grad[:] = 0.0
    npt.assert_array_equal(a.grad, r.data)


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


def test_forward_determinism_bit_identical():
    rng = _rng(8)
    x = rng.normal(size=(5, 5))
    w = rng.normal(size=(5, 5))

    def run():
        return T.gelu(T.matmul(Tensor(x), Tensor(w))).data

    npt.assert_array_equal(run(), run())


# ---------------------------------------------------------------------------
# grad_check harness


def test_grad_check_analytic_quadratic():
    rng = _rng(9)
    x = Tensor(rng.normal(size=8), requires_grad=True)
    rep = grad_check(lambda t: T.reduce_sum(T.mul(t, t)), x, tol=1e-10)
    assert rep.passed and isinstance(rep, GradCheckReport), rep


def test_grad_check_detects_wrong_backward_rule():
    from wavemlp.tensor import _record

    def bad_scale(t):
        out = Tensor(t.data * 2.0, t.requires_grad)
        _record((t,), out, lambda g: (g * 3.0,))  # deliberately wrong
        return out

    x = Tensor(_rng(10).normal(size=4), requires_grad=True)
    rep = grad_check(lambda t: T.reduce_sum(bad_scale(t)), x, tol=1e-6)
    assert not rep.passed


def test_grad_check_rejects_non_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError):
        grad_check(lambda t: T.mul(t, t), x)
    with pytest.raises(ContractError):
        grad_check(lambda t: T.reduce_sum(t), x, step=0.0)
