"""Composite layers: residual blocks, channel MLP, normalization, stems."""

import contextlib
import tracemalloc
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavemlp.blocks import (
    BlockParams,
    block_forward,
    channel_mlp_forward,
    init_block,
    init_stem,
    normalize,
    patch_embed,
    token_mixing_forward,
)
from wavemlp.errors import ConfigurationError, ContractError, DimensionError
from wavemlp.model import iter_params
from wavemlp.patm import PhaseMode, channel_fc, init_patm
from wavemlp.tensor import Tape, Tensor, add, gelu, grad_check, mul, reduce_mean, reduce_sum


def _rng(seed=0):
    return np.random.default_rng(seed)


def _block_tensors(b: BlockParams):
    return [t for _, t in iter_params(b)]


def _zero_weights(b: BlockParams):
    for t in _block_tensors(b):
        t.data[:] = 0.0


# ---------------------------------------------------------------------------
# token mixing block


def test_zero_weights_give_identity_block():
    b = init_block(3, 2, 3, PhaseMode.CHANNEL_FC, _rng(1))
    _zero_weights(b)
    x = Tensor(_rng(2).normal(size=(2, 4, 5, 3)))
    npt.assert_array_equal(token_mixing_forward(x, b).data, x.data)


def test_block_preserves_shape():
    b = init_block(4, 2, 5, PhaseMode.DEPTHWISE, _rng(3))
    for h, w in [(1, 1), (2, 7), (6, 3)]:
        x = Tensor(_rng(h * 10 + w).normal(size=(2, h, w, 4)))
        assert token_mixing_forward(x, b).shape == (2, h, w, 4)
        assert block_forward(x, b).shape == (2, h, w, 4)


def _block_with(patm_h, patm_w):
    b = init_block(3, 2, 3, PhaseMode.CHANNEL_FC, _rng(30))
    return BlockParams(patm_h, patm_w, b.branch_fc, b.mlp_fc1, b.mlp_fc2, b.norm1, b.norm2)


@pytest.mark.parametrize(
    "h_args,w_args",
    [((3, 3), (3, 5)), ((3, 3), (4, 3))],  # (channels, window) of each mixer
    ids=["different-windows", "different-channels"],
)
def test_block_params_rejects_mismatched_mixers(h_args, w_args):
    patm_h = init_patm(*h_args, PhaseMode.CHANNEL_FC, _rng(31))
    patm_w = init_patm(*w_args, PhaseMode.CHANNEL_FC, _rng(32))
    with pytest.raises(ConfigurationError):
        _block_with(patm_h, patm_w)


def test_block_params_accepts_matching_mixers():
    patm_h = init_patm(3, 5, PhaseMode.CHANNEL_FC, _rng(31))
    patm_w = init_patm(3, 5, PhaseMode.CHANNEL_FC, _rng(32))
    assert _block_with(patm_h, patm_w).patm_w.wt.shape == (5, 3)


@pytest.mark.parametrize("mode", list(PhaseMode))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    h=st.integers(1, 6),
    w=st.integers(1, 6),
    d=st.integers(1, 4),
    window=st.sampled_from([1, 3, 5, 9]),
    seed=st.integers(0, 2**16),
)
def test_swapping_the_mixers_mixes_the_transposed_grid(mode, h, w, d, window, seed):
    """A mixer's axis is its slot in the block: with patm_h and patm_w swapped (a static
    phase grid transposed), token mixing of the H<->W-transposed input is the transposed
    output, within 1e-12 of its largest magnitude."""
    b = init_block(d, 2, window, mode, _rng(seed), static_size=(h, w))

    def moved(p):
        if mode is not PhaseMode.STATIC:
            return p
        return replace(p, wtheta=Tensor(np.ascontiguousarray(p.wtheta.data.transpose(1, 0, 2))))

    swapped = replace(b, patm_h=moved(b.patm_w), patm_w=moved(b.patm_h))
    x = _rng(seed + 1).normal(size=(2, h, w, d))
    want = token_mixing_forward(Tensor(x), b).data.swapaxes(1, 2)
    got = token_mixing_forward(Tensor(np.ascontiguousarray(x.swapaxes(1, 2))), swapped).data
    npt.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_token_mixing_gradients():
    b = init_block(3, 2, 3, PhaseMode.CHANNEL_FC, _rng(4))
    x = Tensor(_rng(5).normal(size=(1, 3, 4, 3)), requires_grad=True)
    rep = grad_check(
        lambda ts: reduce_mean(mul(token_mixing_forward(x, b), token_mixing_forward(x, b))),
        [x] + _block_tensors(b),
        tol=1e-4,
    )
    assert rep.passed, rep


# ---------------------------------------------------------------------------
# channel MLP


def test_zero_second_fc_gives_identity_mlp():
    b = init_block(3, 2, 3, PhaseMode.NONE, _rng(6))
    b.mlp_fc2.data[:] = 0.0
    x = Tensor(_rng(7).normal(size=(2, 3, 3, 3)))
    npt.assert_array_equal(channel_mlp_forward(x, b).data, x.data)


def test_mlp_hidden_width_is_expansion_times_dim():
    b = init_block(8, 4, 3, PhaseMode.NONE, _rng(8))
    assert b.mlp_fc1.shape == (32, 8)
    assert b.mlp_fc2.shape == (8, 32)


def test_channel_mlp_gradients():
    b = init_block(4, 2, 3, PhaseMode.NONE, _rng(9))
    x = Tensor(_rng(10).normal(size=(1, 2, 3, 4)), requires_grad=True)
    tensors = [x, b.mlp_fc1, b.mlp_fc2, b.norm2.scale, b.norm2.shift]
    rep = grad_check(
        lambda ts: reduce_mean(mul(channel_mlp_forward(x, b), channel_mlp_forward(x, b))),
        tensors,
        tol=1e-4,
    )
    assert rep.passed, rep


def _chain_mlp(x, b, dropout, rng):
    """The channel MLP as three taped ops, gelu -> mul by keep / (1 - p) -> fc2."""
    n = normalize(x, b.norm2.scale, b.norm2.shift)
    hidden = gelu(channel_fc(n, b.mlp_fc1))
    keep = (rng.random(hidden.shape) >= dropout).astype(hidden.dtype)
    return add(x, channel_fc(mul(hidden, Tensor(keep / (1.0 - dropout))), b.mlp_fc2))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_channel_mlp_with_dropout_is_bit_equal_to_the_three_op_chain(dtype):
    """Logits and every gradient, byte for byte, with dropout 0.1 over several slabs."""
    runs = []
    for mlp in (_chain_mlp, channel_mlp_forward):
        b = init_block(8, 4, 3, PhaseMode.NONE, _rng(13))
        leaves = [Tensor(_rng(14).normal(size=(2, 16, 16, 8)).astype(dtype), requires_grad=True)]
        leaves += [b.mlp_fc1, b.mlp_fc2, b.norm2.scale, b.norm2.shift]
        for t in leaves[1:]:
            t.data = t.data.astype(dtype)
        with Tape() as tape:
            out = mlp(leaves[0], b, 0.1, _rng(15))
            loss = reduce_sum(mul(out, out))
        tape.backward(loss)
        runs.append([a.tobytes() for a in [out.data] + [t.grad for t in leaves]])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
@pytest.mark.parametrize("p", [1.0, 1.5])
def test_channel_mlp_refuses_dropout_of_one_or_more_on_both_paths(p, taped):
    """In place (untaped) or through linear's prologue (taped), one check refuses the mask."""
    b = init_block(4, 2, 3, PhaseMode.NONE, _rng(19))
    x = Tensor(_rng(20).normal(size=(1, 2, 3, 4)))
    with Tape() if taped else contextlib.nullcontext() as tape:
        with pytest.raises(ContractError, match=r"dropout needs p in \[0, 1\)"):
            channel_mlp_forward(x, b, p, _rng(21))
    assert not taped or len(tape) == 2  # the norm and the first FC; the second made no record


def _held_by_a_taped_mlp(b, x, dropout):
    rng = _rng(16)
    tracemalloc.start()
    try:
        with Tape() as tape:
            out = channel_mlp_forward(x, b, dropout, rng)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    return held, len(tape)


def test_channel_mlp_dropout_keeps_one_byte_per_hidden_element():
    """With dropout on, the tape keeps the boolean keep-mask on top of what it keeps without
    dropout: one byte per hidden element, not a float mask (8 bytes at f64)."""
    b = init_block(8, 4, 3, PhaseMode.NONE, _rng(17))
    x = Tensor(_rng(18).normal(size=(2, 16, 16, 8)), requires_grad=True)
    hidden = x.size * 4
    (dropped, records), (plain, plain_records) = (_held_by_a_taped_mlp(b, x, p) for p in (0.1, 0.0))
    assert 0 < dropped - plain <= hidden + 1024, (dropped - plain) / hidden
    assert records == plain_records == 4  # norm, fc1, fc2 with the prologue, residual


def test_two_block_stack_gradients():
    b1 = init_block(3, 2, 3, PhaseMode.CHANNEL_FC, _rng(11))
    b2 = init_block(3, 2, 3, PhaseMode.CHANNEL_FC, _rng(12))
    x = Tensor(_rng(13).normal(size=(1, 3, 3, 3)), requires_grad=True)

    def loss(ts):
        y = block_forward(block_forward(x, b1), b2)
        return reduce_mean(mul(y, y))

    rep = grad_check(loss, [x] + _block_tensors(b1) + _block_tensors(b2), tol=1e-4)
    assert rep.passed, rep


# ---------------------------------------------------------------------------
# normalize


def test_normalize_constant_token_gives_shift():
    scale = Tensor(_rng(14).normal(size=4))
    shift = Tensor(_rng(15).normal(size=4))
    x = Tensor(np.full((2, 1, 1, 4), 3.7))
    out = normalize(x, scale, shift)
    npt.assert_allclose(out.data, np.broadcast_to(shift.data, (2, 1, 1, 4)), atol=1e-12)


def test_normalize_standardizes_channels():
    rng = _rng(16)
    # channel variance ~100 so the 1e-5 epsilon perturbs unit variance < 1e-6
    x = Tensor(10.0 * rng.normal(size=(3, 4, 5, 16)))
    ones = Tensor(np.ones(16))
    zeros = Tensor(np.zeros(16))
    out = normalize(x, ones, zeros).data
    npt.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
    npt.assert_allclose(out.var(axis=-1), 1.0, atol=1e-6)


def test_normalize_gradients():
    x = Tensor(_rng(17).normal(size=(2, 2, 2, 5)), requires_grad=True)
    scale = Tensor(_rng(18).normal(size=5) + 1.0, requires_grad=True)
    shift = Tensor(_rng(19).normal(size=5), requires_grad=True)
    rep = grad_check(
        lambda ts: reduce_mean(mul(normalize(x, scale, shift), normalize(x, scale, shift))),
        [x, scale, shift],
        tol=1e-4,
    )
    assert rep.passed, rep


def test_normalize_rejects_bad_affine_shapes():
    with pytest.raises(DimensionError):
        normalize(Tensor(np.zeros((1, 1, 1, 4))), Tensor(np.zeros(3)), Tensor(np.zeros(4)))


# ---------------------------------------------------------------------------
# patch embedding


def test_patch_embed_224_to_56():
    s = init_stem(4, 3, 64, _rng(20))
    out = patch_embed(Tensor(np.zeros((1, 224, 224, 3))), s)
    assert out.shape == (1, 56, 56, 64)


def test_patch_embed_stage2_shape():
    s = init_stem(2, 64, 128, _rng(21))
    out = patch_embed(Tensor(np.zeros((1, 56, 56, 64))), s)
    assert out.shape == (1, 28, 28, 128)


def test_patch_embed_constant_image_gives_constant_tokens():
    s = init_stem(4, 3, 8, _rng(22))
    out = patch_embed(Tensor(np.full((1, 16, 16, 3), 0.5)), s).data
    npt.assert_allclose(out, np.broadcast_to(out[:, :1, :1, :], out.shape), atol=1e-12)


def test_patch_embed_pads_ragged_extents():
    s = init_stem(4, 3, 8, _rng(23))
    out = patch_embed(Tensor(np.ones((1, 9, 6, 3))), s)
    assert out.shape == (1, 3, 2, 8)


def test_patch_embed_rejects_empty_input():
    s = init_stem(4, 3, 8, _rng(24))
    with pytest.raises(DimensionError):
        patch_embed(Tensor(np.zeros((1, 0, 8, 3))), s)
    with pytest.raises(DimensionError):
        patch_embed(Tensor(np.zeros((8, 8, 3))), s)


def test_patch_embed_gradients():
    s = init_stem(2, 2, 3, _rng(25))
    x = Tensor(_rng(26).normal(size=(1, 4, 4, 2)), requires_grad=True)
    rep = grad_check(
        lambda ts: reduce_mean(mul(patch_embed(x, s), patch_embed(x, s))),
        [x, s.weight],
        tol=1e-4,
    )
    assert rep.passed, rep
