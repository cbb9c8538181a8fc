"""Model assembly, presets, forward contract, and param/FLOP accounting."""

import json
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavemlp.blocks import init_block, init_stem
from wavemlp.errors import ConfigurationError, DimensionError
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


# ---------------------------------------------------------------------------
# accounting


def _built_size(m) -> int:
    return sum(t.size for _, t in iter_params(m))


def _macs_by_term(m, h: int, w: int) -> int:
    """MACs summed term by term over a built model's windows, independently
    of the closed form in ``count_flops``."""
    cfg = m.config
    total, c_in = 0, cfg.input_channels
    for i, spec in enumerate(cfg.stages):
        p = cfg.patch_sizes[i]
        h, w = math.ceil(h / p), math.ceil(w / p)
        n, d = h * w, spec.dim
        total += n * (p * p * c_in) * d  # stem projection
        per_patm = 2 * n * d * d + 2 * m.windows[i] * n * d  # wc, wout, mixing
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
    return ArchConfig(stages, window=window, phase_mode=mode, num_classes=classes, input_size=size)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(cfg=_small_configs(), h=st.integers(1, 48), w=st.integers(1, 48))
def test_pure_counts_equal_those_of_the_built_model(cfg, h, w):
    m = build(cfg, seed=0)
    assert count_params(cfg) == _built_size(m)
    assert count_flops(cfg, h, w) == count_flops(m, h, w) == _macs_by_term(m, h, w)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(cfg=_small_configs(), seed=st.integers(0, 2**32 - 1))
def test_build_f32_is_the_f64_build_cast(cfg, seed):
    """``build`` alone sets the precision: an f32 build is the f64 draw, cast."""
    named32, named64 = iter_params(build(cfg, seed, np.float32)), iter_params(build(cfg, seed))
    assert [n for n, _ in named32] == [n for n, _ in named64]
    for (_, t32), (_, t64) in zip(named32, named64):
        assert t32.dtype == np.float32 and t64.dtype == np.float64 and t32.requires_grad
        npt.assert_array_equal(t32.data, t64.data.astype(np.float32))


@pytest.mark.parametrize("mode", list(PhaseMode))
def test_init_helpers_draw_f64(mode):
    rng = _rng(7)
    nodes = [
        init_stem(2, 3, 4, rng),
        init_block(4, 2, 3, mode, rng, static_size=(2, 3)),
        init_patm(4, 5, "width", mode, rng, static_size=(2, 3)),
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
