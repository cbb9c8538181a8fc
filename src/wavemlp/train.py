"""Toy-scale supervised training: AdamW, cosine decay, and ablation sweeps.

Runs are deterministic functions of (config, task, seed): parameter init,
batch order, and the optimizer trajectory are all driven by seeded
generators, so repeating a run reproduces the loss history bit for bit.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, ContractError, NumericError
from .model import ArchConfig, ModelParams, _ints, build, count_flops, count_params, forward, iter_params
from .patm import PhaseMode
from .synth import SynthTask, make_dataset
from .tensor import Tape, softmax_cross_entropy

__all__ = [
    "TrainConfig",
    "History",
    "AblationRow",
    "AblationTable",
    "adamw_init",
    "adamw_step",
    "cosine_lr",
    "accuracy",
    "train",
    "ablate",
    "ablation_workers",
    "ABLATION_AXES",
]

_DTYPES = {"f32": np.float32, "f64": np.float64}


@dataclass
class TrainConfig:
    epochs: int = 250
    batch_size: int = 64
    lr: float = 3e-3
    weight_decay: float = 0.05
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    schedule: str = "cosine"
    seed: int = 0
    precision: str = "f64"

    def __post_init__(self):
        _ints("epochs", self.epochs, 1)
        _ints("batch_size", self.batch_size, 1)
        _ints("seed", self.seed, 0)  # numpy seeds its generators from ints >= 0
        # lr == 0 is allowed: it is the standard no-op training diagnostic.
        for name, value in (("lr", self.lr), ("weight_decay", self.weight_decay)):
            if not (math.isfinite(value) and value >= 0):
                raise ConfigurationError(f"{name} must be finite and >= 0")
        pair = isinstance(self.betas, (list, tuple)) and len(self.betas) == 2
        if not (pair and all(isinstance(x, numbers.Real) and 0 <= x < 1 for x in self.betas)):
            raise ConfigurationError(f"betas must be a pair of numbers in [0, 1), got {self.betas!r}")
        if not (isinstance(self.eps, numbers.Real) and 0 < self.eps < math.inf):
            raise ConfigurationError(f"eps must be finite and > 0, got {self.eps!r}")
        if self.schedule != "cosine":
            raise ConfigurationError(f"unknown schedule {self.schedule!r}")
        if self.precision not in _DTYPES:
            raise ConfigurationError(f"precision must be one of {sorted(_DTYPES)}")


def cosine_lr(t: int, total: int, lr0: float) -> float:
    """lr0 * (1 + cos(pi * t / total)) / 2; lr0 at t=0, 0 at t=total."""
    if total <= 0:
        raise ConfigurationError("cosine_lr: total steps must be positive")
    if not 0 <= t <= total:
        raise ContractError(f"cosine_lr: t={t} outside [0, {total}]")
    return lr0 * (1.0 + math.cos(math.pi * t / total)) / 2.0


_CHUNK = 1 << 16  # elements per pass of adamw_step: few enough to stay in cache


@dataclass
class AdamWState:
    """Moments ``m`` and ``v``: per-parameter views of the two rows of ``moments``."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    moments: np.ndarray = field(repr=False)
    # per chunk, its pieces (i, a, b, s): elements a:b of parameter i at offset s
    chunks: list[list[tuple[int, int, int, int]]] = field(repr=False)
    scratch: np.ndarray = field(repr=False)  # a chunk's p, g and one temporary


def adamw_init(params: list[np.ndarray]) -> AdamWState:
    """Zero moments in two flat buffers of the one dtype that ``params`` share."""
    dtypes = {p.dtype for p in params} or {np.dtype(np.float64)}
    if len(dtypes) > 1:
        raise ContractError(f"adamw_init: parameters mix dtypes {sorted(d.name for d in dtypes)}")
    starts = np.cumsum([0] + [p.size for p in params]).tolist()
    moments = np.zeros((2, starts[-1]), dtypes.pop())
    m, v = ([row[o : o + p.size].reshape(p.shape) for o, p in zip(starts, params)] for row in moments)
    chunks = [[] for _ in range(0, starts[-1], _CHUNK)]
    for i, (o, p) in enumerate(zip(starts, params)):
        for c in range(o // _CHUNK, -(-(o + p.size) // _CHUNK)):  # the chunks p overlaps
            a, b = max(o, c * _CHUNK), min(o + p.size, (c + 1) * _CHUNK)
            chunks[c].append((i, a - o, b - o, a - c * _CHUNK))
    return AdamWState(m, v, moments, chunks, np.empty((3, min(starts[-1], _CHUNK)), moments.dtype))


def adamw_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamWState,
    t: int,
    cfg: TrainConfig,
    lr: float | None = None,
) -> None:
    """One decoupled-weight-decay Adam update, in place.

    Decay multiplies each parameter by (1 - lr*wd) before the bias-corrected
    Adam step, so zero gradients still shrink weights when wd > 0. Chunks of
    the flat moments are updated in turn, each element with a per-tensor
    loop's operations in order, in the parameters' dtype (the scalars act as
    Python floats). Parameters are C-contiguous; gradients match their shapes and dtype.
    """
    if t < 1:
        raise ContractError("adamw_step: t counts from 1")
    if not len(params) == len(grads) == len(state.m):
        raise ContractError("params, grads and the AdamW state differ in length")
    for i, (p, g, m) in enumerate(zip(params, grads, state.m)):
        same = p.shape == g.shape == m.shape and p.dtype == g.dtype == m.dtype
        if not (same and p.flags.c_contiguous):
            raise ContractError(f"adamw_step: parameter {i} does not match its gradient or state")
    lr, b1, b2, eps = map(float, (cfg.lr if lr is None else lr, *cfg.betas, cfg.eps))
    decay = 1.0 - lr * cfg.weight_decay
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    pf, gf = [p.reshape(-1) for p in params], [g.reshape(-1) for g in grads]  # pf: views
    for c, pieces in enumerate(state.chunks):
        m, v = state.moments[:, c * _CHUNK : (c + 1) * _CHUNK]
        p, g, tmp = state.scratch[:, : m.size]
        for i, a, b, s in pieces:
            p[s : s + b - a], g[s : s + b - a] = pf[i][a:b], gf[i][a:b]
        if not np.isfinite(g).all():
            i = next(i for i, a, b, _ in pieces if not np.isfinite(gf[i][a:b]).all())
            raise NumericError(f"non-finite gradient in parameter {i} at step {t}")
        p *= decay
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=tmp)
        v *= b2
        v += np.multiply(np.multiply(g, 1.0 - b2, out=tmp), g, out=tmp)
        # p -= lr * (m / c1) / (sqrt(v / c2) + eps), in g's row: g is spent
        np.multiply(np.divide(m, c1, out=g), lr, out=g)
        np.add(np.sqrt(np.divide(v, c2, out=tmp), out=tmp), eps, out=tmp)
        p -= np.divide(g, tmp, out=g)
        for i, a, b, s in pieces:
            pf[i][a:b] = p[s : s + b - a]


@dataclass
class History:
    """Per-step losses and learning rates, per-epoch accuracies."""

    loss: list[float] = field(default_factory=list)
    lr: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)

    def save(self, out_dir: str) -> tuple[str, str]:
        """Write losses.csv (per step) and accuracy.csv (per epoch)."""
        os.makedirs(out_dir, exist_ok=True)
        losses = os.path.join(out_dir, "losses.csv")
        with open(losses, "w") as fh:
            fh.write("step,loss,lr\n")
            for i, (ls, lr) in enumerate(zip(self.loss, self.lr)):
                fh.write(f"{i},{ls!r},{lr!r}\n")
        accs = os.path.join(out_dir, "accuracy.csv")
        with open(accs, "w") as fh:
            fh.write("epoch,train_acc,val_acc\n")
            for i, (ta, va) in enumerate(zip(self.train_acc, self.val_acc)):
                fh.write(f"{i},{ta!r},{va!r}\n")
        return losses, accs


def accuracy(m: ModelParams, x: np.ndarray, y: np.ndarray, batch: int = 256) -> float:
    """Top-1 accuracy, evaluated without a tape."""
    hits = 0
    for lo in range(0, len(x), batch):
        logits = forward(m, x[lo : lo + batch])
        hits += int((logits.data.argmax(axis=1) == y[lo : lo + batch]).sum())
    return hits / len(x)


@np.errstate(over="ignore", invalid="ignore")
def train(
    arch: ArchConfig, task: SynthTask, tc: TrainConfig
) -> tuple[ModelParams, History]:
    """Cross-entropy training of ``arch`` on a synthetic task.

    Loss is recorded per step, accuracy per epoch. Aborts with NumericError
    (naming the step, layer or parameter) if a loss, activation or gradient
    leaves the finite range; numpy's overflow and invalid-value warnings are
    silenced, since that error is the report.
    """
    x_train, y_train, x_val, y_val = make_dataset(task)
    model = build(arch, seed=tc.seed, dtype=_DTYPES[tc.precision])
    params = [t for _, t in iter_params(model)]
    raw = [t.data for t in params]
    state = adamw_init(raw)
    batch_rng = np.random.default_rng(tc.seed)
    dropout_rng = np.random.default_rng(tc.seed + 1) if arch.dropout > 0 else None

    steps_per_epoch = math.ceil(len(x_train) / tc.batch_size)
    total_steps = tc.epochs * steps_per_epoch
    history = History()
    step = 0
    for _epoch in range(tc.epochs):
        order = batch_rng.permutation(len(x_train))
        for lo in range(0, len(x_train), tc.batch_size):
            idx = order[lo : lo + tc.batch_size]
            lr_t = cosine_lr(step, total_steps, tc.lr)
            with Tape() as tape:
                logits = forward(model, x_train[idx], rng=dropout_rng)
                loss = softmax_cross_entropy(logits, y_train[idx])
            loss_val = float(loss.data)
            if not math.isfinite(loss_val):
                raise NumericError(f"training diverged: non-finite loss at step {step}")
            tape.backward(loss)
            adamw_step(raw, [t.grad for t in params], state, step + 1, tc, lr=lr_t)
            history.loss.append(loss_val)
            history.lr.append(lr_t)
            step += 1
        history.train_acc.append(accuracy(model, x_train, y_train))
        history.val_acc.append(accuracy(model, x_val, y_val))
    return model, history


# ---------------------------------------------------------------------------
# ablations

ABLATION_AXES: dict[str, list[tuple[str, object]]] = {
    "phase_mode": [
        ("None", PhaseMode.NONE),
        ("Static", PhaseMode.STATIC),
        ("ChannelFC", PhaseMode.CHANNEL_FC),
    ],
    "estimator": [
        ("Identity", PhaseMode.IDENTITY),
        ("DepthWise", PhaseMode.DEPTHWISE),
        ("ChannelFC", PhaseMode.CHANNEL_FC),
    ],
    "window": [("3", 3), ("5", 5), ("7", 7), ("All", "all")],
}


@dataclass
class AblationRow:
    setting: str
    params: int
    flops: int
    val_accs: tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.val_accs))

    @property
    def sd(self) -> float:
        return float(np.std(self.val_accs, ddof=1)) if len(self.val_accs) > 1 else 0.0


@dataclass
class AblationTable:
    axis: str
    rows: list[AblationRow]

    def csv_text(self) -> str:
        lines = ["setting,params,flops,mean_val_acc,sd_val_acc,per_seed_val_acc"]
        for r in self.rows:
            per_seed = ";".join(repr(a) for a in r.val_accs)
            lines.append(f"{r.setting},{r.params},{r.flops},{r.mean!r},{r.sd!r},{per_seed}")
        return "\n".join(lines) + "\n"

    def save(self, out_dir: str) -> str:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"ablation_{self.axis}.csv")
        with open(path, "w") as fh:
            fh.write(self.csv_text())
        return path


def _cell_config(base: ArchConfig, axis: str, value) -> ArchConfig:
    if axis in ("phase_mode", "estimator"):
        return replace(base, phase_mode=value)
    return replace(base, window=value)


def ablation_workers(raw: str | None, cells: int) -> int:
    """Worker processes from a WAVEMLP_THREADS value (None means 1), clamped to
    the cell count and os.cpu_count(); ConfigurationError unless an int >= 1."""
    if raw is None:
        return 1
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigurationError(f"WAVEMLP_THREADS must be an integer >= 1, got {raw!r}")
    return min(n, cells, os.cpu_count() or 1)


def _run_cell(args) -> tuple[str, int, float]:
    setting, seed, cfg, task, tc = args
    _model, history = train(cfg, task, replace(tc, seed=seed))
    return setting, seed, history.val_acc[-1]


def ablate(
    axis: str,
    task: SynthTask,
    tc: TrainConfig,
    base: ArchConfig | None = None,
    seeds: tuple[int, ...] = (0, 1, 2),
) -> AblationTable:
    """Train one model per setting of one axis, over a shared seed set.

    Rows mirror the three ablation axes: phase modes (None / Static /
    ChannelFC), estimator forms (Identity / DepthWise / ChannelFC), and
    window sizes (3 / 5 / 7 / All). Values are recorded for inspection, not
    asserted against anything. Cells run in parallel processes when the
    WAVEMLP_THREADS environment variable is set above 1 (see
    ``ablation_workers``). Rows count parameters and MACs from each cell's
    config; no model is built for them.
    """
    if axis not in ABLATION_AXES:
        raise ConfigurationError(f"unknown ablation axis {axis!r}; choose from {sorted(ABLATION_AXES)}")
    if len(seeds) < 3:
        raise ConfigurationError("ablations use at least 3 seeds")
    if base is None:
        from .model import preset

        base = preset("tiny", num_classes=task.num_classes, input_size=task.grid[:2])
    settings = [(setting, _cell_config(base, axis, value)) for setting, value in ABLATION_AXES[axis]]
    jobs = [(setting, seed, cfg, task, tc) for setting, cfg in settings for seed in seeds]
    workers = ablation_workers(os.environ.get("WAVEMLP_THREADS"), len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell, jobs))
    else:
        results = [_run_cell(job) for job in jobs]
    by_setting: dict[str, dict[int, float]] = {}
    for setting, seed, acc in results:
        by_setting.setdefault(setting, {})[seed] = acc
    rows = [
        AblationRow(
            setting,
            count_params(cfg),
            count_flops(cfg, *task.grid[:2]),
            tuple(by_setting[setting][s] for s in seeds),
        )
        for setting, cfg in settings
    ]
    return AblationTable(axis, rows)
