"""Phase-aware token mixing: semantics of each sub-op, oracles, invariants."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavemlp.errors import ConfigurationError, DimensionError
from wavemlp.patm import (
    PatmParams,
    PhaseMode,
    aggregate_tokens,
    channel_fc,
    compute_amplitude,
    estimate_phase,
    init_patm,
    patm_forward,
)
from wavemlp.tensor import Tensor, grad_check, mul, reduce_mean


def _rng(seed=0):
    return np.random.default_rng(seed)


def _identity_params(d, window=1, mode=PhaseMode.NONE):
    return PatmParams(
        wc=Tensor(np.eye(d)),
        wtheta=None,
        wt=Tensor(np.concatenate([np.zeros((window // 2, d)), np.ones((1, d)), np.zeros((window // 2, d))])),
        wi=Tensor(np.zeros((window, d))),
        wout=Tensor(np.eye(d)),
        phase_mode=mode,
    )


def _token_fc_oracle(signed, wt, axis, window):
    """Plain windowed token-FC by explicit loops (independent reference)."""
    out = np.zeros_like(signed)
    half = window // 2
    b, h, w, d = signed.shape
    ext = h if axis == "height" else w
    for j in range(ext):
        for r in range(-half, half + 1):
            k = j + r
            if not 0 <= k < ext:
                continue
            if axis == "height":
                out[:, j] += wt[r + half] * signed[:, k]
            else:
                out[:, :, j] += wt[r + half] * signed[:, :, k]
    return out


# ---------------------------------------------------------------------------
# compute_amplitude


def test_amplitude_identity_weight():
    rng = _rng(1)
    x = Tensor(rng.normal(size=(2, 3, 4, 5)))
    out = compute_amplitude(x, Tensor(np.eye(5)))
    npt.assert_array_equal(out.data, x.data)


def test_amplitude_zero_weight():
    x = Tensor(_rng(2).normal(size=(1, 2, 2, 3)))
    npt.assert_array_equal(compute_amplitude(x, Tensor(np.zeros((3, 3)))).data, 0.0)


def test_amplitude_single_token_matches_matmul():
    rng = _rng(3)
    wc = rng.normal(size=(4, 4))
    token = rng.normal(size=4)
    out = compute_amplitude(Tensor(token.reshape(1, 1, 1, 4)), Tensor(wc))
    npt.assert_allclose(out.data.reshape(4), wc @ token, atol=1e-12)


def test_amplitude_channel_mismatch():
    with pytest.raises(DimensionError):
        compute_amplitude(Tensor(np.zeros((1, 2, 2, 3))), Tensor(np.zeros((4, 4))))


# ---------------------------------------------------------------------------
# estimate_phase


def test_phase_none_is_zero():
    x = Tensor(_rng(4).normal(size=(2, 3, 3, 4)))
    npt.assert_array_equal(estimate_phase(x, PhaseMode.NONE, None, "height").data, 0.0)


def test_phase_static_is_input_independent():
    rng = _rng(5)
    grid = Tensor(rng.uniform(-np.pi, np.pi, (3, 4, 2)), requires_grad=True)
    a = estimate_phase(Tensor(rng.normal(size=(2, 3, 4, 2))), PhaseMode.STATIC, grid, "height")
    b = estimate_phase(Tensor(rng.normal(size=(2, 3, 4, 2))), PhaseMode.STATIC, grid, "height")
    npt.assert_array_equal(a.data, b.data)
    npt.assert_array_equal(a.data[0], grid.data)
    npt.assert_array_equal(a.data[1], grid.data)


def test_phase_static_size_mismatch():
    grid = Tensor(np.zeros((3, 4, 2)))
    with pytest.raises(ConfigurationError):
        estimate_phase(Tensor(np.zeros((1, 4, 4, 2))), PhaseMode.STATIC, grid, "height")


def test_phase_channel_fc_identity_weight():
    x = Tensor(_rng(6).normal(size=(2, 3, 3, 4)))
    out = estimate_phase(x, PhaseMode.CHANNEL_FC, Tensor(np.eye(4)), "height")
    npt.assert_allclose(out.data, x.data, atol=1e-12)


def test_phase_identity_mode_copies_input():
    x = Tensor(_rng(7).normal(size=(1, 2, 2, 3)))
    assert estimate_phase(x, PhaseMode.IDENTITY, None, "width") is x


def test_phase_depthwise_matches_explicit_convolution():
    rng = _rng(8)
    x = rng.normal(size=(2, 5, 3, 4))
    k = rng.normal(size=(3, 4))
    out = estimate_phase(Tensor(x), PhaseMode.DEPTHWISE, Tensor(k), "height").data
    want = np.zeros_like(x)
    for j in range(5):
        for r in (-1, 0, 1):
            if 0 <= j + r < 5:
                want[:, j] += k[r + 1] * x[:, j + r]
    npt.assert_allclose(out, want, atol=1e-12)


def test_phase_depthwise_rejects_a_kernel_of_another_length():
    x = Tensor(np.zeros((1, 4, 4, 2)))
    for rows in (1, 5):
        with pytest.raises(DimensionError):
            estimate_phase(x, PhaseMode.DEPTHWISE, Tensor(np.zeros((rows, 2))), "height")


# ---------------------------------------------------------------------------
# aggregate_tokens


def test_zero_phase_reduces_to_plain_token_fc():
    """With theta == 0 the sine branch vanishes for any wi."""
    rng = _rng(9)
    amp = rng.normal(size=(2, 6, 3, 4))
    wt = rng.normal(size=(5, 4))
    wi = rng.normal(size=(5, 4))
    got = aggregate_tokens(
        Tensor(amp), Tensor(np.zeros_like(amp)), Tensor(wt), Tensor(wi), "height"
    ).data
    npt.assert_allclose(got, _token_fc_oracle(amp, wt, "height", 5), atol=1e-12)


def test_window_one_single_token_cos_pi():
    out = aggregate_tokens(
        Tensor(np.full((1, 1, 1, 1), 3.0)),
        Tensor(np.full((1, 1, 1, 1), np.pi)),
        Tensor(np.ones((1, 1))),
        Tensor(np.zeros((1, 1))),
        "height",
    )
    assert out.data.item() == pytest.approx(-3.0, abs=1e-15)


def test_aggregation_matches_complex_token_oracle():
    """Against Re((wt - i*wi) * z) summed over the window, via complex numbers."""
    rng = _rng(10)
    amp = rng.normal(size=(1, 5, 1, 2))
    theta = rng.uniform(-7, 7, (1, 5, 1, 2))
    wt = rng.normal(size=(3, 2))
    wi = rng.normal(size=(3, 2))
    got = aggregate_tokens(Tensor(amp), Tensor(theta), Tensor(wt), Tensor(wi), "height").data
    z = amp * np.exp(1j * theta)
    want = np.zeros_like(amp)
    for j in range(5):
        for r in (-1, 0, 1):
            if 0 <= j + r < 5:
                want[:, j] += wt[r + 1] * z[:, j + r].real + wi[r + 1] * z[:, j + r].imag
    npt.assert_allclose(got, want, atol=1e-10)


def test_even_window_rejected():
    amp = Tensor(np.zeros((1, 4, 1, 2)))
    with pytest.raises(DimensionError):
        aggregate_tokens(amp, amp, Tensor(np.zeros((4, 2))), Tensor(np.zeros((4, 2))), "height")


def test_phase_shift_by_two_pi_is_invariant():
    rng = _rng(11)
    amp = Tensor(rng.normal(size=(1, 6, 2, 3)))
    theta = rng.uniform(-3, 3, (1, 6, 2, 3))
    wt = Tensor(rng.normal(size=(3, 3)))
    wi = Tensor(rng.normal(size=(3, 3)))
    a = aggregate_tokens(amp, Tensor(theta), wt, wi, "width").data
    b = aggregate_tokens(amp, Tensor(theta + 2 * np.pi), wt, wi, "width").data
    npt.assert_allclose(a, b, atol=1e-10)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    shape=st.tuples(*[st.integers(1, 6)] * 4),
    window=st.sampled_from([1, 3, 5, 7, 9]),
    axis=st.sampled_from(["height", "width"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_negated_amplitude_is_a_pi_phase_shift(shape, window, axis, seed):
    """Sign absorption on the real mixer: a wave -a*e^{i*theta} is a*e^{i*(theta+pi)},
    so compute_amplitude may hand aggregate_tokens negative amplitudes."""
    rng = _rng(seed)
    amp = rng.normal(size=shape)
    theta = rng.uniform(-7, 7, shape)
    wt, wi = (Tensor(rng.normal(size=(window, shape[3]))) for _ in range(2))
    negated = aggregate_tokens(Tensor(-amp), Tensor(theta), wt, wi, axis).data
    shifted = aggregate_tokens(Tensor(amp), Tensor(theta + np.pi), wt, wi, axis).data
    npt.assert_allclose(negated, shifted, rtol=0, atol=1e-12)


def test_classical_phases_equal_token_fc_on_signed_amplitudes():
    rng = _rng(12)
    for _ in range(20):
        h, w, d = rng.integers(1, 6), rng.integers(1, 6), rng.integers(1, 4)
        window = int(rng.choice([1, 3, 5]))
        axis = "height" if rng.integers(2) else "width"
        amp = rng.normal(size=(1, h, w, d))
        theta = np.pi * rng.integers(0, 2, (1, h, w, d)).astype(float)
        wt = rng.normal(size=(window, d))
        wi = rng.normal(size=(window, d))
        got = aggregate_tokens(Tensor(amp), Tensor(theta), Tensor(wt), Tensor(wi), axis).data
        npt.assert_allclose(got, _token_fc_oracle(amp * np.cos(theta), wt, axis, window), atol=1e-12)


def test_translation_equivariance_in_interior():
    rng = _rng(13)
    window, shift, h = 3, 2, 9
    amp = rng.normal(size=(1, h, 1, 2))
    theta = rng.uniform(-3, 3, (1, h, 1, 2))
    wt, wi = rng.normal(size=(window, 2)), rng.normal(size=(window, 2))
    base = aggregate_tokens(Tensor(amp), Tensor(theta), Tensor(wt), Tensor(wi), "height").data
    shifted = aggregate_tokens(
        Tensor(np.roll(amp, shift, axis=1)),
        Tensor(np.roll(theta, shift, axis=1)),
        Tensor(wt),
        Tensor(wi),
        "height",
    ).data
    half = window // 2
    # positions whose windows stay inside the grid before and after the shift
    for j in range(half, h - half - shift):
        npt.assert_allclose(shifted[:, j + shift], base[:, j], atol=1e-12)


# ---------------------------------------------------------------------------
# patm_forward


def test_patm_identity_composition():
    rng = _rng(14)
    x = Tensor(rng.normal(size=(2, 4, 5, 3)))
    out = patm_forward(x, _identity_params(3), "height")
    npt.assert_allclose(out.data, x.data, atol=1e-15)


def test_patm_shape_contract_over_grid_sizes():
    p = init_patm(2, 3, PhaseMode.CHANNEL_FC, _rng(15))
    for h in range(1, 10):
        for w in range(1, 10):
            x = Tensor(np.random.default_rng(h * 10 + w).normal(size=(1, h, w, 2)))
            assert patm_forward(x, p, "width").shape == (1, h, w, 2)


def test_patm_gradients_wrt_params_and_input():
    rng = _rng(16)
    p = init_patm(2, 3, PhaseMode.CHANNEL_FC, _rng(17))
    x = Tensor(rng.normal(size=(1, 4, 3, 2)), requires_grad=True)
    tensors = [x, p.wc, p.wtheta, p.wt, p.wi, p.wout]
    rep = grad_check(
        lambda ts: reduce_mean(mul(patm_forward(x, p, "height"), patm_forward(x, p, "height"))),
        tensors,
        step=1e-5,
        tol=1e-4,
    )
    assert rep.passed, rep


def test_patm_linear_when_no_phase_and_zero_wi():
    rng = _rng(18)
    d = 3
    p = init_patm(d, 3, PhaseMode.NONE, _rng(19))
    p.wi.data[:] = 0.0
    x1 = Tensor(rng.normal(size=(1, 4, 4, d)))
    x2 = Tensor(rng.normal(size=(1, 4, 4, d)))
    a, b = 1.7, -0.6
    lhs = patm_forward(Tensor(a * x1.data + b * x2.data), p, "height").data
    rhs = a * patm_forward(x1, p, "height").data + b * patm_forward(x2, p, "height").data
    npt.assert_allclose(lhs, rhs, atol=1e-10)


def test_patm_param_count_independent_of_spatial_size():
    p = init_patm(4, 5, PhaseMode.DEPTHWISE, _rng(20))
    tensors = [p.wc, p.wtheta, p.wt, p.wi, p.wout]
    n = sum(t.size for t in tensors)
    for h, w in [(1, 1), (3, 8), (9, 2)]:
        patm_forward(Tensor(np.zeros((1, h, w, 4))), p, "width")
        assert sum(t.size for t in tensors) == n
    assert n == 4 * 4 + 3 * 4 + 5 * 4 + 5 * 4 + 4 * 4


def test_channel_fc_rejects_bad_weight():
    with pytest.raises(DimensionError):
        channel_fc(Tensor(np.zeros((1, 2, 2, 3))), Tensor(np.zeros(3)))


def test_patm_params_validation():
    def params(wt_rows, wi_rows):
        return PatmParams(
            wc=Tensor(np.eye(2)),
            wtheta=None,
            wt=Tensor(np.zeros((wt_rows, 2))),
            wi=Tensor(np.zeros((wi_rows, 2))),
            wout=Tensor(np.eye(2)),
            phase_mode=PhaseMode.NONE,
        )

    with pytest.raises(ConfigurationError):
        params(2, 2)  # even window
    with pytest.raises(ConfigurationError):
        params(3, 1)  # wt and wi differ


_BAD_AXIS = "axis must be height or width, got 'depth'"


@pytest.mark.parametrize("mode", list(PhaseMode))
def test_estimate_phase_rejects_a_bad_axis_name_in_every_mode(mode):
    x = Tensor(np.zeros((1, 4, 4, 2)))
    shapes = {PhaseMode.STATIC: (4, 4, 2), PhaseMode.CHANNEL_FC: (2, 2), PhaseMode.DEPTHWISE: (3, 2)}
    wtheta = Tensor(np.zeros(shapes[mode])) if mode in shapes else None
    with pytest.raises(ConfigurationError, match=_BAD_AXIS):
        estimate_phase(x, mode, wtheta, "depth")


def test_aggregate_tokens_and_patm_params_reject_a_bad_axis_name():
    x, w = Tensor(np.zeros((1, 4, 4, 2))), Tensor(np.zeros((3, 2)))
    with pytest.raises(ConfigurationError, match=_BAD_AXIS):
        aggregate_tokens(x, x, w, w, "depth")
    with pytest.raises(ConfigurationError, match=_BAD_AXIS):
        patm_forward(x, _identity_params(2), "depth")
    with pytest.raises(ConfigurationError, match=r"got \['height'\]"):  # unhashable, not a TypeError
        aggregate_tokens(x, x, w, w, ["height"])
