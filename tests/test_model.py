"""Model assembly, presets, forward contract, and param/FLOP accounting."""

import json
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavemlp.blocks import init_block, init_stem
from wavemlp.errors import ConfigurationError, ContractError, DimensionError
from wavemlp.model import (
    REFERENCE_BUDGETS,
    ArchConfig,
    StageSpec,
    arch_config_to_dict,
    build,
    count_flops,
    count_params,
    forward,
    iter_params,
    load_arch_config,
    MIN_INPUT_SIZE,
    preset,
    stage_resolutions,
)
from wavemlp.patm import DEPTHWISE_KERNEL, PhaseMode, init_patm
from wavemlp.tensor import Tape, Tensor, softmax_cross_entropy
from wavemlp.train import TrainConfig, adamw_init, adamw_step


def _rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# closed-form accounting for the tiny config, derived by hand per layer.
# dims 8/16/24/32, depths 1/1/1/1, expansion 2, window 7, channel-FC phase,
# patches 4/2/2/2, 3 input channels, 4 classes.
#
# params:
#   stems: 4*4*3*8 + 2*2*8*16 + 2*2*16*24 + 2*2*24*32              = 5504
#   per block (channel-FC phase, e=2, w=7):
#     2 mixers * (wc d^2 + wtheta d^2 + wout d^2 + (wt+wi) 2*7*d)
#     + branch d^2 + mlp 2*(2 d^2) + two norms 4d                  = 11d^2+32d
#     d=8: 960   d=16: 3328   d=24: 7104   d=32: 12288   (sum 23680)
#   final norm 2*32 = 64; head 32*4 + 4 = 132
TINY_PARAMS = 5504 + (960 + 3328 + 7104 + 12288) + 64 + 132  # = 29380
#
# MACs at 8x8 (tokens per stage 4/1/1/1; stage-3 input 1x1 padded to 2x2):
#   stems: 4*48*8 + 1*32*16 + 1*64*24 + 1*96*32                    = 6656
#   per block: (7 + 2e) n d^2 + 4 w n d = 11 n d^2 + 28 n d
#     s1: 11*4*64+28*4*8 = 3712   s2: 2816+448 = 3264
#     s3: 6336+672 = 7008         s4: 11264+896 = 12160   (sum 26144)
#   head: 32*4 = 128
TINY_FLOPS_8 = 6656 + (3712 + 3264 + 7008 + 12160) + 128  # = 32928


def test_preset_t_dims():
    cfg = preset("T")
    assert [s.dim for s in cfg.stages] == [64, 128, 320, 512]
    assert [s.depth for s in cfg.stages] == [2, 2, 4, 2]


def test_preset_m_stage1_expansion():
    assert preset("M").stages[0].expansion == 8
    assert [s.expansion for s in preset("M").stages] == [8, 8, 4, 4]


def test_preset_tstar_uses_depthwise_phase():
    assert preset("T*").phase_mode is PhaseMode.DEPTHWISE
    assert [s.dim for s in preset("B").stages] == [96, 192, 384, 768]


def test_build_same_seed_is_bit_identical():
    m1 = build(preset("tiny"), seed=7)
    m2 = build(preset("tiny"), seed=7)
    for (n1, t1), (n2, t2) in zip(iter_params(m1), iter_params(m2)):
        assert n1 == n2
        npt.assert_array_equal(t1.data, t2.data)


@pytest.mark.parametrize("window", [3, "all"])
@pytest.mark.parametrize("mode", list(PhaseMode))
def test_iter_params_is_exactly_what_a_taped_step_differentiates(mode, window):
    """The optimizer's list is the set of leaves the tape hands a .grad: no
    learnable is left out of the walk and no walked tensor is dead."""
    m = build(preset("tiny", phase_mode=mode, window=window, input_size=(16, 16), dropout=0.1))
    inputs, outputs = [], set()

    class LeafTape(Tape):
        def record(self, ins, output, backward):
            inputs.extend(ins)
            outputs.add(id(output))
            super().record(ins, output, backward)

    with LeafTape() as tape:
        logits = forward(m, _rng(1).normal(size=(2, 16, 16, 3)), rng=_rng(2))
        loss = softmax_cross_entropy(logits, np.array([0, 3]))
    tape.backward(loss)
    leaves = {id(t): t for t in inputs if t.requires_grad and id(t) not in outputs}
    assert all(t.grad is not None for t in leaves.values())
    pairs = iter_params(m)
    names = [n for n, _ in pairs]
    assert len(set(names)) == len(names)
    assert len({id(t) for _, t in pairs}) == len(pairs)
    assert {id(t) for _, t in pairs} == set(leaves)
    assert names[0] == "stems.0.weight" and names[-3:] == ["final_norm.shift", "head", "head_bias"]


def test_invalid_configs_rejected():
    good = dict(stages=[StageSpec(8, 1, 2), StageSpec(16, 1, 2), StageSpec(24, 1, 2), StageSpec(32, 1, 2)])
    ArchConfig(**good)
    with pytest.raises(ConfigurationError):
        ArchConfig(stages=good["stages"][:3])
    with pytest.raises(ConfigurationError):
        ArchConfig(stages=[StageSpec(8, 1, 2), StageSpec(8, 1, 2), StageSpec(24, 1, 2), StageSpec(32, 1, 2)])
    with pytest.raises(ConfigurationError):
        ArchConfig(**good, window=4)
    with pytest.raises(ConfigurationError):
        ArchConfig(**good, window="all")  # needs input_size
    with pytest.raises(ConfigurationError):
        ArchConfig(**good, phase_mode=PhaseMode.STATIC)  # needs input_size
    with pytest.raises(ConfigurationError):
        preset("nope")


# ---------------------------------------------------------------------------
# forward contract


def test_forward_shape_tiny():
    m = build(preset("tiny"), seed=0)
    logits = forward(m, _rng(1).normal(size=(2, 32, 32, 3)))
    assert logits.shape == (2, 4)
    assert np.isfinite(logits.data).all()


def test_forward_identical_inputs_identical_logits():
    m = build(preset("tiny"), seed=0)
    img = _rng(2).normal(size=(1, 16, 16, 3))
    two = np.concatenate([img, img])
    logits = forward(m, two).data
    npt.assert_array_equal(logits[0], logits[1])


def _untaped_and_taped_logits(m, images, seed):
    """Logits of an untaped and of a taped forward, each drawing dropout from a fresh
    generator of ``seed``."""
    plain = forward(m, images, rng=_rng(seed))
    with Tape():
        taped = forward(m, images, rng=_rng(seed))
    assert taped.requires_grad
    return plain.data, taped.data


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("window", [1, 3, 7, "all"])
@pytest.mark.parametrize("mode", list(PhaseMode))
def test_untaped_and_taped_tiny_forwards_give_the_same_bits(mode, window, dtype):
    """The channel MLP applies GELU and dropout in the pre-activation's buffer when no tape
    records its second FC, and through linear's prologue when one does: the same logits."""
    cfg = preset("tiny", phase_mode=mode, window=window, input_size=(16, 16), dropout=0.1)
    m = build(cfg, seed=0, dtype=dtype)
    images = _rng(3).normal(size=(4, 16, 16, 3))
    plain, taped = _untaped_and_taped_logits(m, images, seed=4)
    assert plain.dtype == taped.dtype == dtype
    assert np.array_equal(plain, taped)
    assert not np.array_equal(plain, forward(m, images).data)  # the mask was drawn and applied


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dropout", [0.0, 0.1])
def test_untaped_and_taped_T_forwards_at_64_give_the_same_bits(dropout, dtype):
    m = build(preset("T", dropout=dropout), seed=0, dtype=dtype)
    plain, taped = _untaped_and_taped_logits(m, _rng(1).normal(size=(1, 64, 64, 3)), seed=2)
    assert plain.dtype == taped.dtype == dtype
    assert np.array_equal(plain, taped)


def test_forward_batch_permutation_permutes_rows():
    m = build(preset("tiny"), seed=0)
    batch = _rng(3).normal(size=(4, 16, 16, 3))
    perm = [2, 0, 3, 1]
    base = forward(m, batch).data
    permuted = forward(m, batch[perm]).data
    npt.assert_allclose(permuted, base[perm], atol=1e-12)


def test_forward_rejects_tiny_inputs_and_bad_channels():
    m = build(preset("tiny"), seed=0)
    with pytest.raises(DimensionError):
        forward(m, np.zeros((1, 3, 8, 3)))
    with pytest.raises(DimensionError):
        forward(m, np.zeros((1, 16, 16, 4)))


def test_forward_non_square_resolution():
    m = build(preset("tiny"), seed=0)
    logits = forward(m, _rng(4).normal(size=(2, 64, 96, 3)))
    assert logits.shape == (2, 4)


def test_forward_reports_nonfinite_layer():
    from wavemlp.errors import NumericError

    m = build(preset("tiny"), seed=0)
    m.stages[1][0].mlp_fc1.data[0, 0] = np.inf
    with pytest.raises(NumericError, match=r"after stages\.1\.0$"):
        forward(m, np.ones((1, 16, 16, 3)))


def test_a_taped_forward_drops_every_grad_before_its_stem_runs():
    """Under a tape, forward sets every parameter's .grad to None at its start, so even a
    forward that stops at stage 1 leaves no stale gradient on the later stages or the head;
    an untaped forward, or one refused for its input, leaves them alone."""
    from wavemlp.errors import NumericError

    m = build(preset("tiny"), seed=0)
    params = [t for _, t in iter_params(m)]
    for t in params:
        t.grad = np.ones_like(t.data)
    forward(m, np.ones((1, 16, 16, 3)))
    with Tape(), pytest.raises(DimensionError):
        forward(m, np.ones((1, 16, 16, 4)))
    assert all(t.grad is not None for t in params)
    m.stages[1][0].mlp_fc1.data[0, 0] = np.inf
    with Tape(), pytest.raises(NumericError, match=r"after stages\.1\.0$"):
        forward(m, np.ones((1, 16, 16, 3)))
    assert all(t.grad is None for t in params)


@pytest.mark.parametrize("mode", list(PhaseMode))
def test_f32_stays_f32_through_a_taped_step(mode):
    """Forward, loss, backward and an AdamW step of an f32 model never upcast to f64."""
    cfg = preset("tiny", phase_mode=mode, window=3, input_size=(16, 16), dropout=0.1)
    m = build(cfg, seed=0, dtype=np.float32)
    images = Tensor(_rng(5).normal(size=(2, 16, 16, 3)).astype(np.float32), requires_grad=True)
    dtypes = []

    class DtypeTape(Tape):
        def record(self, inputs, output, backward):
            dtypes.append(output.dtype)
            super().record(inputs, output, backward)

    with DtypeTape() as tape:
        loss = softmax_cross_entropy(forward(m, images, rng=_rng(6)), np.array([0, 3]))
    tape.backward(loss)
    assert dtypes and set(dtypes) == {np.dtype(np.float32)}
    leaves = [images] + [t for _, t in iter_params(m)]
    assert {t.grad.dtype for t in leaves} == {np.dtype(np.float32)}
    raw = [t.data for t in leaves[1:]]
    state = adamw_init(raw)
    adamw_step(raw, [t.grad for t in leaves[1:]], state, 1, TrainConfig())
    assert {a.dtype for a in raw + state.m + state.v} == {np.dtype(np.float32)}


@pytest.mark.parametrize("model_dtype", [np.float32, np.float64])
def test_forward_refuses_an_image_tensor_of_another_dtype(model_dtype):
    """Only ``build`` sets the precision: an image Tensor must already be the model's dtype,
    while an array is cast to it."""
    m = build(preset("tiny"), seed=0, dtype=model_dtype)
    other = np.float64 if model_dtype == np.float32 else np.float32
    images = _rng(5).normal(size=(1, 16, 16, 3))
    with pytest.raises(ContractError, match="image Tensor"):
        forward(m, Tensor(images.astype(other)))
    assert forward(m, Tensor(images.astype(model_dtype))).dtype == model_dtype
    assert forward(m, images.astype(other)).dtype == model_dtype


# ---------------------------------------------------------------------------
# accounting


def _built_size(m) -> int:
    return sum(t.size for _, t in iter_params(m))


def _macs_by_term(m, h: int, w: int) -> int:
    """MACs summed term by term over a built model's weights, independently
    of the closed form in ``count_flops`` and of the stage plan it reads."""
    cfg = m.config
    total, c_in = 0, cfg.input_channels
    for i, spec in enumerate(cfg.stages):
        p = cfg.patch_sizes[i]
        h, w = -(-h // p), -(-w // p)  # exact: a float ceil loses ints past 2**53
        n, d = h * w, spec.dim
        total += n * (p * p * c_in) * d  # stem projection
        window = m.stages[i][0].patm_h.wt.shape[0]  # every stage has a block
        per_patm = 2 * n * d * d + 2 * window * n * d  # wc, wout, mixing
        if cfg.phase_mode is PhaseMode.CHANNEL_FC:
            per_patm += n * d * d
        elif cfg.phase_mode is PhaseMode.DEPTHWISE:
            per_patm += DEPTHWISE_KERNEL * n * d
        per_block = 2 * per_patm + n * d * d + 2 * n * d * (spec.expansion * d)
        total += spec.depth * per_block
        c_in = d
    return total + c_in * cfg.num_classes  # head


def test_count_params_tiny_matches_hand_derivation():
    assert count_params(preset("tiny")) == TINY_PARAMS == 29380


def test_count_flops_tiny_matches_hand_derivation():
    m = build(preset("tiny"), seed=0)
    assert count_flops(m, 8, 8) == count_flops(m.config, 8, 8) == TINY_FLOPS_8 == 32928


@pytest.mark.parametrize("h,w", [(0, 224), (224, -5), (True, 8), (8.0, 8)])
def test_count_flops_rejects_bad_resolution(h, w):
    with pytest.raises(ConfigurationError):
        count_flops(preset("tiny"), h, w)


@pytest.mark.parametrize("name,ref", sorted(REFERENCE_BUDGETS.items()))
def test_preset_budgets_within_ten_percent(name, ref):
    cfg = preset(name)
    ref_params, ref_flops = ref
    assert abs(count_params(cfg) - ref_params) <= 0.10 * ref_params
    assert abs(count_flops(cfg, 224, 224) - ref_flops) <= 0.10 * ref_flops


_PHASE_WINDOW_CASES = [(mode, window) for mode in PhaseMode for window in (3, "all")]


@pytest.mark.parametrize(
    "cfg",
    [preset(name) for name in ("T*", "T", "S", "M", "B", "tiny")]
    + [preset("tiny", phase_mode=m, window=w, input_size=(16, 16)) for m, w in _PHASE_WINDOW_CASES],
    ids=["T*", "T", "S", "M", "B", "tiny"] + [f"{m.value}-{w}" for m, w in _PHASE_WINDOW_CASES],
)
def test_counts_from_config_match_built_model(cfg):
    m = build(cfg, seed=0, dtype=np.float32)  # sizes only; f32 halves the memory
    assert count_params(cfg) == _built_size(m)
    for h, w in [(224, 224), (16, 16), (17, 40)]:
        assert count_flops(cfg, h, w) == count_flops(m, h, w) == _macs_by_term(m, h, w)


@st.composite
def _small_configs(draw):
    dims = sorted(draw(st.sets(st.integers(1, 16), min_size=4, max_size=4)))
    stages = [StageSpec(d, draw(st.integers(1, 2)), draw(st.integers(1, 2))) for d in dims]
    mode = draw(st.sampled_from(list(PhaseMode)))
    window = draw(st.sampled_from([1, 3, 5, 7, "all"]))
    sizes = st.tuples(st.integers(4, 40), st.integers(4, 40))
    needs_size = window == "all" or mode is PhaseMode.STATIC
    size = draw(sizes if needs_size else st.none() | sizes)
    classes = draw(st.integers(2, 5))
    patches = draw(st.tuples(*[st.integers(1, 4)] * 4))
    channels = draw(st.integers(1, 3))
    return ArchConfig(
        stages, window=window, phase_mode=mode, patch_sizes=patches, num_classes=classes,
        input_channels=channels, input_size=size,
    )


@settings(derandomize=True, max_examples=25, deadline=None)
@given(cfg=_small_configs(), h=st.integers(1, 48), w=st.integers(1, 48))
def test_pure_counts_equal_those_of_the_built_model(cfg, h, w):
    m = build(cfg, seed=0)
    assert count_params(cfg) == _built_size(m)
    if min(h, w) < MIN_INPUT_SIZE:  # forward refuses such an input, so it is not counted
        with pytest.raises(ConfigurationError):
            count_flops(cfg, h, w)
        return
    assert count_flops(cfg, h, w) == count_flops(m, h, w) == _macs_by_term(m, h, w)


@pytest.mark.parametrize("h, w", [(1, 8), (8, 3)])
def test_forward_and_count_flops_share_one_minimum_input_size(h, w):
    m = build(preset("tiny"), seed=0)
    with pytest.raises(DimensionError):
        forward(m, np.zeros((1, h, w, 3)))
    with pytest.raises(ConfigurationError):
        count_flops(m, h, w)
    size = MIN_INPUT_SIZE
    assert forward(m, np.zeros((1, size, size, 3))).shape == (1, m.config.num_classes)
    assert count_flops(m, size, size) > 0


@settings(derandomize=True, max_examples=25, deadline=None)
@given(cfg=_small_configs(), seed=st.integers(0, 2**32 - 1))
def test_build_f32_is_the_f64_build_cast(cfg, seed):
    """``build`` alone sets the precision: an f32 build is the f64 draw, cast."""
    named32, named64 = iter_params(build(cfg, seed, np.float32)), iter_params(build(cfg, seed))
    assert [n for n, _ in named32] == [n for n, _ in named64]
    for (_, t32), (_, t64) in zip(named32, named64):
        assert t32.dtype == np.float32 and t64.dtype == np.float64 and t32.requires_grad
        npt.assert_array_equal(t32.data, t64.data.astype(np.float32))


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float16, np.complex128])
def test_build_rejects_a_dtype_other_than_f32_or_f64(dtype):
    with pytest.raises(ConfigurationError, match="float32 or float64"):
        build(preset("tiny"), 0, dtype)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_build_rejects_a_seed_numpy_cannot_take(seed):
    with pytest.raises(ConfigurationError, match="seed"):
        build(preset("tiny"), seed)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_build_refuses_a_config_too_large_for_memory_before_any_draw(dtype):
    """Stage dims of 10**7 make 5.6e15 parameters; numpy would fail allocating the first."""
    cfg = preset("tiny", stages=[StageSpec(10**7 + k, 1, 2) for k in range(4)])
    need = count_params(cfg) * np.dtype(dtype).itemsize
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError, match=f"needs {need} bytes"):
            build(cfg, 0, dtype)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


@pytest.mark.parametrize("name, res, batch, records", [("tiny", 16, 64, 80), ("T", 64, 1, 182)])
def test_a_taped_step_makes_a_fixed_number_of_records(name, res, batch, records):
    """The pilot's step (tiny, B=64, 16x16) and a T step at 64: one record per fused op."""
    m = build(preset(name), seed=0)
    images = _rng(1).normal(size=(batch, res, res, 3))
    with Tape() as tape:
        softmax_cross_entropy(forward(m, images), np.zeros(batch, dtype=np.int64))
    assert len(tape) == records


def _a_taped_T_forward_at_64():
    """(bytes held after a taped T forward at 64 (tracemalloc, f64, B=1), the tape, the loss)."""
    m = build(preset("T"), seed=0)
    images = _rng(1).normal(size=(1, 64, 64, 3))
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss = softmax_cross_entropy(forward(m, images), np.zeros(1, dtype=np.int64))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held, tape, loss


def test_a_taped_T_forward_at_64_holds_at_most_15_mib():
    """What the tape keeps for backward (tracemalloc, f64, B=1): no phases, residual sums or
    wave products, which no backward reads or which it rebuilds; 14.1 MiB when this was set."""
    held, tape, loss = _a_taped_T_forward_at_64()
    assert len(tape) == 182 and loss.requires_grad
    assert held <= 15 * 2**20, held / 2**20


def test_a_taped_T_forward_at_64_keeps_the_mlp_hidden_activation_once():
    """The second MLP FC rebuilds GELU's output in backward, so the tape keeps each block's
    [tokens, 4C] hidden layer once, as the pre-activation: at most 10.5 MiB; 9.65 MiB when
    this was set, 11.9 MiB when the FC kept GELU's output too."""
    held, tape, loss = _a_taped_T_forward_at_64()
    assert len(tape) == 182 and loss.requires_grad
    assert held <= 10.5 * 2**20, held / 2**20


def test_a_taped_T_step_at_64_holds_only_its_gradients_after_backward():
    """Backward frees each record as it replays it (tracemalloc, f64, B=1): what a step still
    holds beyond the new .grad arrays is the logits and the loss; 14.2 MiB before that."""
    m = build(preset("T"), seed=0)
    images = _rng(1).normal(size=(1, 64, 64, 3))
    params = [t for _, t in iter_params(m)]
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss = softmax_cross_entropy(forward(m, images), np.zeros(1, dtype=np.int64))
        tape.backward(loss)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    grads = sum(t.grad.nbytes for t in params)
    assert len(tape) == 0 and grads == sum(t.data.nbytes for t in params)
    assert held - grads <= 2**20, (held - grads) / 2**20


@pytest.fixture(scope="module")
def two_taped_T_steps_at_64():
    """Two taped T steps at 64 under tracemalloc (f64, B=1), the first step's .grad held:
    (bytes of the new gradients, peak of the first backward, bytes held when the second
    forward starts, peak of the second forward)."""
    m = build(preset("T"), seed=0)
    images = _rng(1).normal(size=(1, 64, 64, 3))
    params = [t for _, t in iter_params(m)]
    marks = []  # per step: bytes held at its start, forward's peak, backward's peak
    tracemalloc.start()
    try:
        for _step in range(2):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            with Tape() as tape:
                loss = softmax_cross_entropy(forward(m, images), np.zeros(1, dtype=np.int64))
            forward_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            tape.backward(loss)
            marks.append((held, forward_peak, tracemalloc.get_traced_memory()[1]))
    finally:
        tracemalloc.stop()
    (_, _, backward_peak), (start, forward_peak, _) = marks
    return sum(t.grad.nbytes for t in params), backward_peak, start, forward_peak


def test_a_second_taped_T_forward_at_64_holds_no_stale_gradients(two_taped_T_steps_at_64):
    """A taped forward drops every parameter's .grad before its stem runs, so the last
    step's gradients never sit beside the growing tape: the second forward rises at most
    0.5 MiB above what it started with; 4.3 MiB when each leaf's .grad went as it was taped."""
    _, _, start, peak = two_taped_T_steps_at_64
    assert peak - start <= 0.5 * 2**20, (peak - start) / 2**20


def test_a_taped_T_backward_at_64_peaks_at_most_1_mib_above_its_gradients(two_taped_T_steps_at_64):
    """Few-token FCs take dw after the walk has freed the records, so the finished weight
    gradients of the late stages never sit beside the early stages' records: 0.5 MiB above
    the gradients when this was set, 5.1 MiB when every dw was taken at once."""
    grads, peak, _, _ = two_taped_T_steps_at_64
    assert peak - grads <= 2**20, (peak - grads) / 2**20


@pytest.fixture(scope="module")
def untaped_T_forward_at_224_peak():
    """The peak bytes of an untaped T forward at 224 (tracemalloc, f64, B=1)."""
    m = build(preset("T"), seed=0)
    images = _rng(1).normal(size=(1, 224, 224, 3))
    tracemalloc.start()
    try:
        logits = forward(m, images)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert logits.shape == (1, 1000)
    return peak


def test_an_untaped_T_forward_at_224_peaks_at_most_20_mib(untaped_T_forward_at_224_peak):
    """The elementwise and windowed ops work in slabs, so an untaped forward (tracemalloc, f64,
    B=1) allocates little beyond each op's output; 17.3 MiB when this was set."""
    peak = untaped_T_forward_at_224_peak
    assert peak <= 20 * 2**20, peak / 2**20


def test_an_untaped_T_forward_at_224_peaks_at_most_11_5_mib(untaped_T_forward_at_224_peak):
    """Untaped, the channel MLP computes GELU in the pre-activation's buffer and drops its
    normalized input and the pre-activation before the residual add, so stage 0's [3136, 256]
    hidden layer exists once: 10.74 MiB when this was set, 18.39 MiB when GELU's output was a
    second array beside the pre-activation."""
    peak = untaped_T_forward_at_224_peak
    assert peak <= 11.5 * 2**20, peak / 2**20


@pytest.mark.parametrize("mode", list(PhaseMode))
def test_init_helpers_draw_f64(mode):
    rng = _rng(7)
    nodes = [
        init_stem(2, 3, 4, rng),
        init_block(4, 2, 3, mode, rng, static_size=(2, 3)),
        init_patm(4, 5, mode, rng, static_size=(2, 3)),
    ]
    assert {t.dtype for node in nodes for _, t in iter_params(node)} == {np.dtype(np.float64)}


def test_param_count_independent_of_seed_and_resolution():
    cfg = preset("tiny")
    n0 = _built_size(build(cfg, seed=0))
    assert _built_size(build(cfg, seed=99)) == n0 == count_params(cfg)
    m = build(cfg, seed=0)
    forward(m, np.zeros((1, 16, 16, 3)))
    forward(m, np.zeros((1, 64, 96, 3)))
    assert _built_size(m) == n0


def test_flops_scale_linearly_with_tokens():
    """Doubling both extents quadruples every token-dependent term."""
    m = build(preset("tiny"), seed=0)
    head = m.config.stages[-1].dim * m.config.num_classes
    small = count_flops(m, 32, 32) - head
    large = count_flops(m, 64, 64) - head
    assert abs(large - 4 * small) <= 0.01 * 4 * small


def test_stage_resolutions_ceil():
    cfg = preset("tiny")
    assert stage_resolutions(cfg, 224, 224) == [(56, 56), (28, 28), (14, 14), (7, 7)]
    assert stage_resolutions(cfg, 8, 8) == [(2, 2), (1, 1), (1, 1), (1, 1)]
    big = 2**53 + 1  # the first int a float cannot hold: ceil(big / 4) in floats is one short
    assert stage_resolutions(cfg, big, 4)[0] == (2**51 + 1, 1)
    assert count_flops(cfg, big, 4) == _macs_by_term(build(cfg), big, 4)


# ---------------------------------------------------------------------------
# JSON config interface


def test_json_roundtrip(tmp_path):
    cfg = preset("tiny")
    doc = arch_config_to_dict(cfg)
    path = tmp_path / "arch.json"
    path.write_text(json.dumps(doc))
    loaded = load_arch_config(str(path))
    assert arch_config_to_dict(loaded) == doc
    # dict and JSON-text sources too
    assert arch_config_to_dict(load_arch_config(doc)) == doc
    assert arch_config_to_dict(load_arch_config(json.dumps(doc))) == doc
    # a numpy number is kept as the Python int or float it was checked as, so the document stays JSON
    doc = arch_config_to_dict(preset("tiny", window=np.int64(7)))
    assert load_arch_config(json.dumps(doc)) == cfg
    doc = arch_config_to_dict(preset("tiny", dropout=np.float32(0.1)))
    assert type(doc["dropout"]) is float
    assert load_arch_config(json.dumps(doc)) == preset("tiny", dropout=float(np.float32(0.1)))


@pytest.mark.parametrize(
    "change",
    [
        {"stages": 5},
        {"window": True},
        {"window": 3.0},
        {"num_classes": "4"},
        {"patch_sizes": 4},
        {"phase_mode": "spiral"},
        {"dropout": True},
    ],
    ids=repr,
)
def test_json_bad_types_rejected(change):
    doc = {**arch_config_to_dict(preset("tiny")), **change}
    with pytest.raises(ConfigurationError):
        load_arch_config(doc)


def test_json_stage_with_unknown_key_rejected():
    doc = arch_config_to_dict(preset("tiny"))
    doc["stages"][0]["width"] = 3
    with pytest.raises(ConfigurationError):
        load_arch_config(doc)


def test_json_unknown_key_rejected():
    doc = arch_config_to_dict(preset("tiny"))
    doc["wndow"] = 7
    with pytest.raises(ConfigurationError):
        load_arch_config(doc)


def test_json_nested_past_the_parser_depth_rejected(tmp_path):
    text = '{"stages": ' + "[" * 50_000 + "]" * 50_000 + "}"
    path = tmp_path / "deep.json"
    path.write_text(text)
    for source in (text, str(path)):
        with pytest.raises(ConfigurationError):
            load_arch_config(source)


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 40)
    | st.just(10**400)  # 401 digits: valid JSON, too large for a float
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["all"] + [m.value for m in PhaseMode]),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.sampled_from(["dim", "depth"]) | st.text(max_size=4), children),
    max_leaves=12,
)


@st.composite
def _config_documents(draw):
    """The tiny preset's document with fields replaced, deleted or added, in it or its stages."""
    doc = arch_config_to_dict(preset("tiny"))
    for _ in range(draw(st.integers(0, 3))):
        stages = doc.get("stages") if isinstance(doc.get("stages"), list) else []
        target = draw(st.sampled_from([doc] + [s for s in stages if isinstance(s, dict)]))
        key = draw(st.sampled_from(sorted(target) + ["extra"]))
        if key in target and draw(st.booleans()):
            del target[key]
        else:
            target[key] = draw(st.integers(0, 9) | _JSON_VALUES)  # small ints are often valid
    return doc


@settings(derandomize=True, max_examples=200, deadline=None)
@given(doc=_config_documents() | _JSON_VALUES, as_text=st.booleans())
def test_load_arch_config_property(doc, as_text):
    """A document loads to an ArchConfig or raises ConfigurationError, nothing else."""
    try:
        cfg = load_arch_config(json.dumps(doc) if as_text else doc)
    except ConfigurationError:
        return
    assert isinstance(cfg, ArchConfig)


def test_json_window_all_and_static():
    doc = {
        "stages": [
            {"dim": 8, "depth": 1, "expansion": 2},
            {"dim": 16, "depth": 1, "expansion": 2},
            {"dim": 24, "depth": 1, "expansion": 2},
            {"dim": 32, "depth": 1, "expansion": 2},
        ],
        "window": "all",
        "phase_mode": "static",
        "num_classes": 4,
        "input_size": [16, 16],
    }
    cfg = load_arch_config(doc)
    m = build(cfg, seed=0)
    assert m.windows == [7, 3, 1, 1]  # 2*extent-1 per stage at 16x16
    for window, blocks in zip(m.windows, m.stages):  # read from the config, held by the weights
        assert all(b.patm_h.wt.shape[0] == b.patm_w.wi.shape[0] == window for b in blocks)
    logits = forward(m, np.zeros((1, 16, 16, 3)))
    assert logits.shape == (1, 4)
    # static phase must reject other resolutions
    with pytest.raises(ConfigurationError):
        forward(m, np.zeros((1, 32, 32, 3)))
