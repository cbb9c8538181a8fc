"""Optimizer, schedule, training loop, synthetic tasks, and ablation tables."""

import importlib
import math
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavemlp.errors import ConfigurationError, ContractError, DimensionError, NumericError
from wavemlp.model import ArchConfig, StageSpec, build, count_flops, forward, iter_params, preset
from wavemlp.phasemap import check_window
from wavemlp.selftest import load_pilot, pilot_task_config
from wavemlp.synth import CELL, NOISE_SIGMA, PATTERN_GAIN, SynthTask, make_dataset
from wavemlp.train import (
    ABLATION_AXES,
    AdamWState,
    TrainConfig,
    ablate,
    accuracy,
    adamw_init,
    adamw_step,
    cosine_lr,
    train,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# AdamW


def test_adamw_zero_grads_no_decay_leaves_params():
    p = [_rng(1).normal(size=(3, 3))]
    before = [q.copy() for q in p]
    cfg = TrainConfig(weight_decay=0.0)
    adamw_step(p, [np.zeros((3, 3))], adamw_init(p), 1, cfg, lr=1e-3)
    npt.assert_array_equal(p[0], before[0])


def test_adamw_single_step_matches_hand_arithmetic():
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    g = 0.5
    p = [np.array([1.0])]
    cfg = TrainConfig(lr=lr, betas=(b1, b2), eps=eps, weight_decay=0.0)
    adamw_step(p, [np.array([g])], adamw_init(p), 1, cfg)
    mhat = (1 - b1) * g / (1 - b1**1)
    vhat = (1 - b2) * g * g / (1 - b2**1)
    expected = 1.0 - lr * mhat / (np.sqrt(vhat) + eps)
    assert abs(float(p[0][0]) - expected) < 1e-15


def test_adamw_decoupled_decay_with_zero_grads():
    p = [np.array([2.0, -3.0])]
    cfg = TrainConfig(lr=1e-3, weight_decay=0.05)
    adamw_step(p, [np.zeros(2)], adamw_init(p), 1, cfg)
    npt.assert_allclose(p[0], np.array([2.0, -3.0]) * (1.0 - 5e-5), rtol=1e-15)


def test_adamw_rejects_non_finite_grads_and_bad_t():
    p = [np.ones(2)]
    cfg = TrainConfig()
    with pytest.raises(NumericError):
        adamw_step(p, [np.array([1.0, np.nan])], adamw_init(p), 1, cfg)
    with pytest.raises(ContractError):
        adamw_step(p, [np.zeros(2)], adamw_init(p), 0, cfg)


def test_adamw_state_shapes():
    p = [np.zeros((2, 3)), np.zeros(5)]
    state = adamw_init(p)
    assert isinstance(state, AdamWState)
    assert state.m[0].shape == (2, 3) and state.v[1].shape == (5,)
    assert all(np.shares_memory(a, state.moments[0]) for a in state.m)
    assert all(np.shares_memory(a, state.moments[1]) for a in state.v)


def _adamw_oracle(params, grads, ms, vs, t, cfg, lr):
    """The per-tensor AdamW loop that the chunked ``adamw_step`` replaces."""
    b1, b2 = cfg.betas
    decay = 1.0 - lr * cfg.weight_decay
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for p, g, m, v in zip(params, grads, ms, vs):
        p *= decay
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + cfg.eps)


# sizes 1, 2**16 - 1, 2**16 and 2**16 + 1 put parameter edges on both sides of a chunk edge
_ADAMW_SHAPES = [(), (1,), (3, 5), (2, 3, 4), (65535,), (255, 257), (256, 256), (65537,), (1, 65537)]


def _gradient(rng, shape, dtype, layout):
    g = rng.normal(size=shape).astype(dtype)
    if layout == "F":
        return np.array(g, order="F")
    if layout == "strided":
        held = np.empty(shape + (2,), dtype)
        held[..., 0] = g
        return held[..., 0]
    return g


@st.composite
def _adamw_cases(draw):
    few_large = st.lists(st.sampled_from(_ADAMW_SHAPES), min_size=1, max_size=5)
    many_tiny = st.lists(st.sampled_from([(), (1,), (2,), (3, 1)]), min_size=20, max_size=80)
    shapes = draw(st.one_of(few_large, many_tiny))
    layouts = draw(st.lists(st.sampled_from(["C", "F", "strided"]), min_size=len(shapes), max_size=len(shapes)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    lrs = draw(st.lists(st.floats(0.0, 0.1), min_size=1, max_size=3))
    wd = draw(st.sampled_from([0.0, 0.05]))
    bad = draw(st.none() | st.tuples(st.integers(0, len(shapes) - 1), st.sampled_from([np.nan, np.inf])))
    return shapes, layouts, dtype, lrs, wd, bad, draw(st.integers(0, 2**16))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(case=_adamw_cases())
@example(case=([(1,), (65535,), (256, 256), (65537,), (3, 5)], ["C", "F", "F", "strided", "F"],
               np.float32, [0.01, 0.005, 0.001], 0.05, None, 0))
@example(case=([(2, 3, 4), (65535,), (1,)], ["F", "C", "C"], np.float64, [0.01], 0.05, (2, np.nan), 1))
def test_adamw_step_matches_the_per_tensor_loop(case):
    """Params, m and v stay bit-equal to the per-tensor loop over several steps."""
    shapes, layouts, dtype, lrs, wd, bad, seed = case
    rng = _rng(seed)
    params = [rng.normal(size=s).astype(dtype) for s in shapes]
    ref = [p.copy() for p in params]
    ref_m, ref_v = [np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params]
    cfg = TrainConfig(weight_decay=wd)
    state = adamw_init(params)
    for t, lr in enumerate(lrs, start=1):
        grads = [_gradient(rng, s, dtype, lay) for s, lay in zip(shapes, layouts)]
        if bad is not None and t == len(lrs):
            i, value = bad
            grads[i][np.unravel_index(rng.integers(grads[i].size), shapes[i])] = value
            with pytest.raises(NumericError, match=f"parameter {i} at step {t}"):
                adamw_step(params, grads, state, t, cfg, lr=lr)
            return
        adamw_step(params, grads, state, t, cfg, lr=lr)
        _adamw_oracle(ref, grads, ref_m, ref_v, t, cfg, lr)
        for got, want in zip(params + state.m + state.v, ref + ref_m + ref_v):
            assert got.dtype == want.dtype == dtype and got.shape == want.shape
            npt.assert_array_equal(got, want)


def test_adamw_rejects_mixed_dtypes_and_mismatched_gradients():
    with pytest.raises(ContractError, match="mix dtypes"):
        adamw_init([np.zeros(2, np.float32), np.zeros(2)])
    p = [np.zeros(2, np.float32)]
    for g in (np.zeros(2), np.zeros(3, np.float32)):  # wrong dtype, wrong shape
        with pytest.raises(ContractError, match="parameter 0"):
            adamw_step(p, [g], adamw_init(p), 1, TrainConfig())
    with pytest.raises(ContractError, match="parameter 0"):
        f = [np.zeros((2, 3), order="F")]
        adamw_step(f, [np.zeros((2, 3))], adamw_init(f), 1, TrainConfig())


# ---------------------------------------------------------------------------
# cosine schedule


def test_cosine_endpoints_and_midpoint():
    assert cosine_lr(0, 100, 0.5) == pytest.approx(0.5)
    assert cosine_lr(100, 100, 0.5) == pytest.approx(0.0, abs=1e-17)
    assert cosine_lr(50, 100, 0.5) == pytest.approx(0.25)


def test_cosine_rejects_bad_args():
    with pytest.raises(ConfigurationError):
        cosine_lr(0, 0, 1e-3)
    with pytest.raises(ContractError):
        cosine_lr(5, 4, 1e-3)


# ---------------------------------------------------------------------------
# synthetic tasks


def test_dataset_deterministic_per_seed():
    task = SynthTask(train_size=32, val_size=8, seed=3)
    a = make_dataset(task)
    b = make_dataset(task)
    for x, y in zip(a, b):
        npt.assert_array_equal(x, y)
    c = make_dataset(SynthTask(train_size=32, val_size=8, seed=4))
    assert not np.array_equal(a[0], c[0])


def test_interference_labels_cover_classes():
    x, y, *_ = make_dataset(SynthTask(train_size=128, val_size=1, seed=0))
    assert x.shape == (128, 16, 16, 3)
    assert set(np.unique(y)) == {0, 1, 2, 3}


def test_blobs_task_generates():
    x, y, *_ = make_dataset(SynthTask(name="blobs", train_size=64, val_size=1, seed=0))
    assert x.shape == (64, 16, 16, 3)
    assert set(np.unique(y)) <= {0, 1, 2, 3}


def _oracle_stripes(c):
    rows = np.where(np.arange(CELL) % 2 == 0, PATTERN_GAIN, -PATTERN_GAIN)
    a = np.repeat(rows[:, None], CELL, axis=1)[:, :, None] * np.ones(c)
    b = np.repeat(rows[None, :], CELL, axis=0)[:, :, None] * np.ones(c)
    return a, b


def _oracle_interference(rng, n, task):
    """The interference split as it was written before both tasks shared one sample loop."""
    h, w, c = task.grid
    gh, gw = h // CELL, w // CELL
    pat_a, pat_b = _oracle_stripes(c)
    x = rng.normal(0.0, NOISE_SIGMA, size=(n, h, w, c))
    y = np.zeros(n, dtype=np.int64)
    for i in range(n):
        while True:
            ra, ca, rb, cb = rng.integers(0, (gh, gw, gh, gw))
            if ra != rb and ca != cb:
                break
        x[i, ra * CELL : (ra + 1) * CELL, ca * CELL : (ca + 1) * CELL] += pat_a
        x[i, rb * CELL : (rb + 1) * CELL, cb * CELL : (cb + 1) * CELL] += pat_b
        if task.num_classes == 2:
            y[i] = int(rb > ra)
        else:
            y[i] = 2 * int(rb > ra) + int(cb > ca)
    return x, y


def _oracle_blobs(rng, n, task):
    """The blobs split as it was written before both tasks shared one sample loop."""
    h, w, c = task.grid
    gh, gw = h // CELL, w // CELL
    x = rng.normal(0.0, NOISE_SIGMA, size=(n, h, w, c))
    y = np.zeros(n, dtype=np.int64)
    for i in range(n):
        r, cc = rng.integers(0, (gh, gw))
        x[i, r * CELL : (r + 1) * CELL, cc * CELL : (cc + 1) * CELL] += PATTERN_GAIN
        if task.num_classes == 2:
            y[i] = int(r >= gh // 2)
        else:
            y[i] = 2 * int(r >= gh // 2) + int(cc >= gw // 2)
    return x, y


_EXTENTS = st.sampled_from([8, 12, 16, 20, 24])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    name=st.sampled_from(["interference", "blobs"]),
    num_classes=st.sampled_from([2, 4]),
    grid=st.tuples(_EXTENTS, _EXTENTS, st.integers(1, 3)),
    seed=st.integers(0, 2**32),
    sizes=st.tuples(st.integers(1, 64), st.integers(1, 64)),
)
def test_make_dataset_is_byte_equal_to_a_sample_loop_per_task(name, num_classes, grid, seed, sizes):
    task = SynthTask(name, grid, num_classes, seed, *sizes)
    oracle, rng = {"interference": _oracle_interference, "blobs": _oracle_blobs}[name], _rng(seed)
    want = (*oracle(rng, sizes[0], task), *oracle(rng, sizes[1], task))
    for got, expected in zip(make_dataset(task), want, strict=True):
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
        assert got.tobytes() == expected.tobytes()


def test_task_validation():
    with pytest.raises(ConfigurationError):
        SynthTask(name="nope")
    with pytest.raises(ConfigurationError):
        SynthTask(grid=(10, 16, 3))
    with pytest.raises(ConfigurationError):
        SynthTask(num_classes=3)


@pytest.mark.parametrize(
    "field",
    [
        dict(grid=(16, 16)),
        dict(grid=(16.0, 16, 3)),
        dict(grid=(16, 16, 0)),
        dict(seed=-1),
        dict(train_size=1.5),
        dict(train_size=True),
        dict(val_size=0),
    ],
)
def test_task_fields_are_checked_ints(field):
    with pytest.raises(ConfigurationError):
        SynthTask(**field)
    assert pilot_task_config()[0].grid == (16, 16, 3)  # the committed recipe still loads


# ---------------------------------------------------------------------------
# training loop


def test_lr_zero_full_batch_loss_constant_and_params_untouched():
    task = SynthTask(train_size=64, val_size=8, seed=0)
    cfg = preset("tiny")
    tc = TrainConfig(epochs=3, batch_size=64, lr=0.0, seed=0)
    reference = [t.data.copy() for _, t in iter_params(build(cfg, seed=0))]
    model, hist = train(cfg, task, tc)
    assert max(hist.loss) - min(hist.loss) < 1e-12
    for ref, (_n, t) in zip(reference, iter_params(model)):
        npt.assert_array_equal(ref, t.data)


def test_training_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigurationError):
        TrainConfig(lr=-1e-3)
    with pytest.raises(ConfigurationError):
        TrainConfig(schedule="step")
    with pytest.raises(ConfigurationError):
        TrainConfig(precision="f16")
    for seed in (-1, 1.5, True, "0"):  # numpy seeds from ints >= 0 only
        with pytest.raises(ConfigurationError, match="seed"):
            TrainConfig(seed=seed)
    TrainConfig(lr=0.0)  # explicitly allowed


@pytest.mark.parametrize(
    "changes",
    [
        {"betas": (1.0, 0.999)},  # bias correction 1 - b1**t is 0
        {"betas": (0.9, float("nan"))},
        {"betas": (0.9, -0.1)},
        {"betas": (0.9,)},
        {"betas": ("0.9", 0.999)},
        {"eps": float("nan")},
        {"eps": float("inf")},
        {"eps": -1e-8},
        {"eps": 0.0},
    ],
    ids=["b1-one", "b2-nan", "b2-negative", "one-beta", "str-beta", "eps-nan", "eps-inf", "eps-negative", "eps-zero"],
)
def test_training_config_rejects_bad_betas_and_eps(changes):
    with pytest.raises(ConfigurationError, match=next(iter(changes))):
        TrainConfig(**changes)


@pytest.mark.parametrize(
    "cls, changes, match",
    [
        (TrainConfig, {"lr": "a"}, "lr"),
        (TrainConfig, {"lr": None}, "lr"),
        (TrainConfig, {"lr": True}, "lr"),
        (TrainConfig, {"weight_decay": "1"}, "weight_decay"),
        (TrainConfig, {"eps": True}, "eps"),
        (TrainConfig, {"betas": (False, 0.5)}, "betas"),
        (TrainConfig, {"precision": ["f64"]}, "precision"),
        (TrainConfig, {"schedule": ["cosine"]}, "schedule"),
        (SynthTask, {"name": ["x"]}, "task"),
    ],
    ids=["lr-str", "lr-none", "lr-bool", "wd-str", "eps-bool", "beta-bool", "precision-list",
         "schedule-list", "task-name-list"],
)
def test_configs_refuse_wrong_typed_settings(cls, changes, match):
    """A setting of the wrong type, a bool for a real number among them, is a
    ConfigurationError, as an out-of-range one is; never a bare TypeError."""
    with pytest.raises(ConfigurationError, match=match):
        cls(**changes)


def test_configs_take_numpy_real_numbers():
    """Each number setting keeps the Python int or float it was checked as."""
    tc = TrainConfig(lr=np.float32(3e-3), eps=1, betas=(0, np.float64(0.5)), epochs=np.int64(2))
    assert tc.lr == float(np.float32(3e-3)) and tc.eps == 1.0 and tc.betas == (0.0, 0.5)
    assert all(type(v) is float for v in (tc.lr, tc.weight_decay, tc.eps, *tc.betas))
    assert type(tc.epochs) is int and type(cosine_lr(1, 4, tc.lr)) is float
    dropout = ArchConfig(preset("tiny").stages, dropout=np.float32(0.25)).dropout
    assert dropout == 0.25 and type(dropout) is float
    task = SynthTask(num_classes=np.int64(2), seed=np.int64(1), train_size=np.int64(8), val_size=np.int64(4))
    assert all(type(v) is int for v in (task.num_classes, task.seed, task.train_size, task.val_size))
    stages = [StageSpec(2**20 * k, 1, 4) for k in (1, 2, 3, 4)]  # MACs past int64 at 2**20
    numpy_stages = [StageSpec(*map(np.int64, (s.dim, s.depth, s.expansion))) for s in stages]
    numpy_cfg = ArchConfig(numpy_stages, patch_sizes=tuple(map(np.int64, (4, 2, 2, 2))))
    assert count_flops(numpy_cfg, 2**20, np.int64(2**20)) == count_flops(ArchConfig(stages), 2**20, 2**20)


_NUMBERS = st.sampled_from(
    [0, 1, 2, 3, 4, 7, 16, 64, 1e-8, 0.05, 0.5, 0.999]  # valid for some setting
    + [-1, -0.5, 10**400, -(10**400), 10**5000, 2**53 + 1, True, False, math.nan, math.inf, -math.inf]
    + [np.int64(4), np.float32(0.25), np.float64(math.nan), np.bool_(True), "3", "", None]
)
_SETTING_VALUES = _NUMBERS | st.lists(_NUMBERS, max_size=5) | st.lists(_NUMBERS, max_size=5).map(tuple)

# call name -> (the call, the number settings it takes as keywords)
_SETTING_CALLS = {
    "TrainConfig": (TrainConfig, ["epochs", "batch_size", "lr", "weight_decay", "betas", "eps", "seed"]),
    "SynthTask": (SynthTask, ["grid", "num_classes", "seed", "train_size", "val_size"]),
    "preset": (
        lambda **kw: preset("tiny", **kw),
        ["window", "patch_sizes", "num_classes", "input_channels", "input_size", "dropout"],
    ),
    "count_flops": (lambda h=64, w=64: count_flops(preset("tiny"), h, w), ["h", "w"]),
    "check_window": (check_window, ["window"]),
}


@st.composite
def _setting_calls(draw):
    name = draw(st.sampled_from(sorted(_SETTING_CALLS)))
    keys = draw(st.lists(st.sampled_from(_SETTING_CALLS[name][1]), min_size=1, max_size=3, unique=True))
    return name, {k: draw(_SETTING_VALUES) for k in keys}


@settings(derandomize=True, max_examples=300, deadline=None)
@example(call=("TrainConfig", {"lr": 10**400}))
@example(call=("preset", {"patch_sizes": [0, 10**5000, 2, 2]}))
@given(call=_setting_calls())
def test_number_settings_build_or_raise_a_configuration_error(call):
    """Every number setting, drawn valid, on a boundary or hostile (a bool, nan, an infinity,
    an int too large for a float, a numpy scalar, a string, None, a list), builds its object
    or raises ConfigurationError, nothing else."""
    name, kwargs = call
    try:
        _SETTING_CALLS[name][0](**kwargs)
    except ConfigurationError:
        pass


def test_training_config_loads_the_pilot_betas_list():
    doc = load_pilot()["train"]
    assert doc["betas"] == [0.9, 0.999]
    assert TrainConfig(**doc).betas == (0.9, 0.999)
    assert pilot_task_config()[1].betas == (0.9, 0.999)


def test_configs_store_list_inputs_as_tuples():
    assert SynthTask(grid=[16, 16, 3]).grid == (16, 16, 3)
    assert type(SynthTask(grid=[16, 16, 3]).grid) is tuple
    assert type(TrainConfig(betas=[0.9, 0.999]).betas) is tuple
    task, tc = pilot_task_config()
    assert task == SynthTask("interference", (16, 16, 3), 4, 0, 512, 128)
    assert tc == TrainConfig(50, 64, 0.003, 0.05, (0.9, 0.999), 1e-8, "cosine", 0, "f64")


@pytest.mark.parametrize("field", ["lr", "weight_decay"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_training_config_rejects_non_finite(field, value):
    with pytest.raises(ConfigurationError, match=field):
        TrainConfig(**{field: value})


def test_diverging_training_raises_without_numpy_warnings():
    """The typed NumericError is the whole report: no RuntimeWarning precedes it."""
    task = SynthTask(name="interference", seed=0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericError):
            train(preset("tiny"), task, TrainConfig(epochs=1, lr=1e300))
    assert [str(w.message) for w in caught] == []


def test_train_names_the_parameter_whose_gradient_is_not_finite(monkeypatch):
    """Called from train, AdamW's NumericError names the parameter by its iter_params path and
    the step as losses.csv counts it (a direct call's "parameter {i} at step {t}" is checked by
    test_adamw_step_matches_the_per_tensor_loop)."""
    train_module = importlib.import_module("wavemlp.train")
    models, steps = [], []

    def build_and_keep(*args, **kwargs):
        models.append(build(*args, **kwargs))
        return models[-1]

    class PoisonedTape(train_module.Tape):
        def backward(self, loss):
            super().backward(loss)
            steps.append(len(steps))
            if len(steps) == 2:  # the second step's gradient of one MLP weight
                dict(iter_params(models[0]))["stages.2.0.mlp_fc2"].grad[0, 0] = np.inf

    monkeypatch.setattr(train_module, "build", build_and_keep)
    monkeypatch.setattr(train_module, "Tape", PoisonedTape)
    task = SynthTask(name="interference", seed=0)
    with pytest.raises(NumericError, match=r"^non-finite gradient in stages\.2\.0\.mlp_fc2 at step 1$"):
        train(preset("tiny"), task, TrainConfig(epochs=1))
    assert steps == [0, 1]


def _accuracy_case(n=3):
    images = _rng(4).normal(size=(n, 16, 16, 3))
    return build(preset("tiny"), seed=0), images, np.zeros(n, dtype=np.int64)


def test_accuracy_counts_hits_in_batches(monkeypatch):
    m, images, labels = _accuracy_case()
    labels[1] = 1
    hits = (forward(m, images).data.argmax(axis=1) == labels).sum()
    whole = accuracy(m, images, labels)
    monkeypatch.setattr(importlib.import_module("wavemlp.train"), "_EVAL_BATCH", 2)
    assert accuracy(m, images, labels) == whole == hits / 3


def test_accuracy_rejects_an_empty_image_set():
    m, images, labels = _accuracy_case()
    with pytest.raises(DimensionError, match="one label per image"):
        accuracy(m, images[:0], labels[:0])


@pytest.mark.parametrize("labels", [np.zeros(1, np.int64), np.zeros(4, np.int64), np.zeros((3, 1))])
def test_accuracy_rejects_labels_that_are_not_one_per_image(labels):
    m, images, _ = _accuracy_case()
    with pytest.raises(DimensionError, match="one label per image"):
        accuracy(m, images, labels)


def test_training_is_bit_reproducible():
    task = SynthTask(train_size=64, val_size=16, seed=0)
    tc = TrainConfig(epochs=2, batch_size=32, lr=3e-3, seed=0)
    _m1, h1 = train(preset("tiny"), task, tc)
    _m2, h2 = train(preset("tiny"), task, tc)
    assert h1.loss == h2.loss
    assert h1.lr == h2.lr
    assert h1.train_acc == h2.train_acc and h1.val_acc == h2.val_acc


def test_first_step_loss_sanity_bound():
    task = SynthTask(train_size=64, val_size=8, seed=1)
    for seed in (0, 1):
        tc = TrainConfig(epochs=1, batch_size=64, lr=3e-3, seed=seed)
        _m, hist = train(preset("tiny"), task, tc)
        assert math.isfinite(hist.loss[0])
        initial = math.log(4)  # uniform logits over 4 classes land near ln 4
        assert hist.loss[0] <= initial + 1.0


def test_history_csv_round_trip(tmp_path):
    task = SynthTask(train_size=32, val_size=8, seed=0)
    tc = TrainConfig(epochs=1, batch_size=32, lr=3e-3, seed=0)
    _m, hist = train(preset("tiny"), task, tc)
    losses, accs = hist.save(str(tmp_path))
    rows = Path(losses).read_text().splitlines()
    assert rows[0] == "step,loss,lr"
    step, loss, lr = rows[1].split(",")
    assert float(loss) == hist.loss[0] and float(lr) == hist.lr[0]
    arows = Path(accs).read_text().splitlines()
    assert arows[0] == "epoch,train_acc,val_acc"
    assert float(arows[1].split(",")[2]) == hist.val_acc[0]


def test_dropout_exposed_but_off_by_default():
    task = SynthTask(train_size=32, val_size=8, seed=0)
    tc = TrainConfig(epochs=1, batch_size=32, lr=3e-3, seed=0)
    cfg = preset("tiny", dropout=0.3)
    model, hist = train(cfg, task, tc)
    assert math.isfinite(hist.loss[-1])
    # evaluation never applies dropout: repeated forwards are bit-identical
    from wavemlp.model import forward

    img = make_dataset(task)[0][:2]
    npt.assert_array_equal(forward(model, img).data, forward(model, img).data)
    with pytest.raises(ConfigurationError):
        preset("tiny", dropout=1.0)


def test_f32_precision_trains():
    task = SynthTask(train_size=32, val_size=8, seed=0)
    tc = TrainConfig(epochs=1, batch_size=32, lr=3e-3, seed=0, precision="f32")
    model, hist = train(preset("tiny"), task, tc)
    assert model.head.dtype == np.float32
    assert math.isfinite(hist.loss[-1])


# ---------------------------------------------------------------------------
# ablation harness


def _quick_tc():
    return TrainConfig(epochs=1, batch_size=64, lr=3e-3, seed=0)


def test_ablation_axis_row_structures():
    assert [s for s, _ in ABLATION_AXES["phase_mode"]] == ["None", "Static", "ChannelFC"]
    assert [s for s, _ in ABLATION_AXES["estimator"]] == ["Identity", "DepthWise", "ChannelFC"]
    assert [s for s, _ in ABLATION_AXES["window"]] == ["3", "5", "7", "All"]


def test_ablate_phase_mode_rows_and_reproducibility(tmp_path):
    task = SynthTask(train_size=64, val_size=16, seed=0)
    table = ablate("phase_mode", task, _quick_tc(), seeds=(0, 1, 2))
    assert [r.setting for r in table.rows] == ["None", "Static", "ChannelFC"]
    for row in table.rows:
        assert len(row.val_accs) == 3
        assert all(0.0 <= a <= 1.0 for a in row.val_accs)
        assert row.params > 0 and row.flops > 0
    again = ablate("phase_mode", task, _quick_tc(), seeds=(0, 1, 2))
    assert table.csv_text() == again.csv_text()  # bit-for-bit CSV equality
    path = table.save(str(tmp_path))
    assert Path(path).read_text() == table.csv_text()
    header = table.csv_text().splitlines()[0]
    assert header == "setting,params,flops,mean_val_acc,sd_val_acc,per_seed_val_acc"


def test_ablate_window_axis_includes_all(tmp_path):
    task = SynthTask(train_size=64, val_size=16, seed=0)
    table = ablate("window", task, _quick_tc(), seeds=(0, 1, 2))
    assert [r.setting for r in table.rows] == ["3", "5", "7", "All"]
    # the All row ties its windows (hence parameters) to the 16x16 input
    assert table.rows[-1].params != table.rows[-2].params


def test_ablate_rejects_unknown_axis_and_few_seeds():
    task = SynthTask(train_size=16, val_size=4, seed=0)
    with pytest.raises(ConfigurationError):
        ablate("activation", task, _quick_tc())
    with pytest.raises(ConfigurationError):
        ablate("window", task, _quick_tc(), seeds=(0,))
