"""Hierarchical 4-stage networks built from declarative stage configs.

Resolution drops by the stage patch sizes (4, 2, 2, 2 by default) while the
channel count grows. ``count_params`` counts scalar learnables exactly;
``count_flops`` counts multiply-accumulates (1 MAC = 1 FLOP) over matmuls,
windowed token mixing, and stems -- elementwise work (norms, activations,
cos/sin modulation, residuals, pooling) is excluded by convention. Both are
closed forms of the ``ArchConfig``: counting builds no model.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields, is_dataclass

import numpy as np

from .blocks import (
    BlockParams,
    NormParams,
    StemParams,
    _norm_params,
    block_forward,
    init_block,
    init_stem,
    normalize,
    patch_embed,
)
from .errors import ConfigurationError, ContractError, DimensionError, NumericError, _number
from .patm import DEPTHWISE_KERNEL, PhaseMode, _uniform, channel_fc
from .tensor import _TAPE_STACK, Tensor, add, reduce_mean

__all__ = [
    "StageSpec",
    "ArchConfig",
    "ModelParams",
    "PRESETS",
    "REFERENCE_BUDGETS",
    "within_budget",
    "preset",
    "load_arch_config",
    "arch_config_to_dict",
    "build",
    "iter_params",
    "stage_walk",
    "forward",
    "count_params",
    "count_flops",
    "stage_resolutions",
]

MIN_INPUT_SIZE = 4  # the smallest input height and width forward takes and count_flops counts


@dataclass
class StageSpec:
    dim: int
    depth: int
    expansion: int


@dataclass
class ArchConfig:
    """Declarative description of one network.

    ``window`` is an odd int shared by all stages, or the string "all" to
    span every token along each axis (window 2*extent-1 per stage; requires
    ``input_size`` and ties the parameter shapes to it). ``input_size`` is
    also required for the STATIC phase mode, whose per-position phase grids
    must match the stage resolutions.
    """

    stages: list[StageSpec]
    window: int | str = 7
    phase_mode: PhaseMode = PhaseMode.CHANNEL_FC
    patch_sizes: tuple[int, int, int, int] = (4, 2, 2, 2)
    num_classes: int = 1000
    input_channels: int = 3
    input_size: tuple[int, int] | None = None
    dropout: float = 0.0

    def __post_init__(self):
        try:
            self.phase_mode = PhaseMode(self.phase_mode)
        except (ValueError, TypeError):
            raise ConfigurationError(f"unknown phase mode {self.phase_mode!r}") from None
        if not isinstance(self.stages, (list, tuple)) or len(self.stages) != 4:
            raise ConfigurationError(f"expected a list of 4 stages, got {self.stages!r}")
        self.stages = [_stage_spec(s) for s in self.stages]
        dims = [s.dim for s in self.stages]
        if any(d2 <= d1 for d1, d2 in zip(dims, dims[1:])):
            raise ConfigurationError(f"stage dims must strictly increase, got {dims}")
        self.patch_sizes = _number("patch_sizes", self.patch_sizes, 1, n=4)
        self.num_classes = _number("num_classes", self.num_classes, 2)
        self.input_channels = _number("input_channels", self.input_channels, 1)
        if self.input_size is not None:
            self.input_size = _number("input_size", self.input_size, 1, n=2)
        if self.window != "all" and _number("window", self.window, 1) % 2 == 0:
            raise ConfigurationError(f"window must be odd or 'all', got {self.window}")
        _number("dropout", self.dropout, 0, 1, real=True)
        needs_size = self.window == "all" or self.phase_mode is PhaseMode.STATIC
        if needs_size and self.input_size is None:
            raise ConfigurationError(
                "window='all' and static phase require input_size to fix parameter shapes"
            )


def _stage_spec(s) -> StageSpec:
    if isinstance(s, dict):
        if set(s) != {"dim", "depth", "expansion"}:
            raise ConfigurationError(f"a stage has the keys dim, depth, expansion; got {list(s)}")
        s = StageSpec(**s)
    if not isinstance(s, StageSpec):
        raise ConfigurationError(f"a stage is a dict or StageSpec, got {s!r}")
    return StageSpec(*_number("stage dim, depth, expansion", [s.dim, s.depth, s.expansion], 1, n=3))


def _stages(dims, depths, expansions):
    return [StageSpec(d, n, e) for d, n, e in zip(dims, depths, expansions)]


PRESETS: dict[str, dict] = {
    "T*": dict(
        stages=_stages((64, 128, 320, 512), (2, 2, 4, 2), (4, 4, 4, 4)),
        phase_mode=PhaseMode.DEPTHWISE,
    ),
    "T": dict(
        stages=_stages((64, 128, 320, 512), (2, 2, 4, 2), (4, 4, 4, 4)),
        phase_mode=PhaseMode.CHANNEL_FC,
    ),
    "S": dict(
        stages=_stages((64, 128, 320, 512), (2, 3, 10, 3), (4, 4, 4, 4)),
        phase_mode=PhaseMode.CHANNEL_FC,
    ),
    "M": dict(
        stages=_stages((64, 128, 320, 512), (3, 4, 18, 3), (8, 8, 4, 4)),
        phase_mode=PhaseMode.CHANNEL_FC,
    ),
    "B": dict(
        stages=_stages((96, 192, 384, 768), (2, 2, 18, 2), (4, 4, 4, 4)),
        phase_mode=PhaseMode.CHANNEL_FC,
    ),
    "tiny": dict(
        stages=_stages((8, 16, 24, 32), (1, 1, 1, 1), (2, 2, 2, 2)),
        phase_mode=PhaseMode.CHANNEL_FC,
        num_classes=4,
    ),
}

# Reference budgets each preset is sized against, at 224x224:
# (parameter count, MACs). Matching is checked at +/-10% by ``within_budget``.
REFERENCE_BUDGETS: dict[str, tuple[float, float]] = {
    "T*": (15e6, 2.1e9),
    "T": (17e6, 2.4e9),
    "S": (30e6, 4.5e9),
    "M": (44e6, 7.9e9),
    "B": (63e6, 10.2e9),
}
BUDGET_REL_TOL = 0.10


def within_budget(count: int, ref: float, rel_tol: float = BUDGET_REL_TOL) -> bool:
    """Whether a parameter or MAC count lies within rel_tol of its reference."""
    return abs(count - ref) <= rel_tol * ref


def preset(name: str, **overrides) -> ArchConfig:
    """A fresh ArchConfig for one of the named presets."""
    if name not in PRESETS:
        raise ConfigurationError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return ArchConfig(**{**PRESETS[name], **overrides})  # ArchConfig copies each stage


def load_arch_config(source) -> ArchConfig:
    """Build an ArchConfig from a JSON file path, JSON text, or a dict.

    Schema: {"stages": [{"dim": int, "depth": int, "expansion": int} x4],
    "window": int | "all", "phase_mode": "none" | "static" | "channel_fc" |
    "depthwise" | "identity", "patch_sizes": [int x4], "num_classes": int,
    optional "input_channels", "input_size": [h, w], "dropout"}. Any
    unreadable or malformed source raises ConfigurationError.
    """
    if isinstance(source, dict):
        doc = source
    else:
        text = str(source)
        try:
            if text.lstrip().startswith("{"):
                doc = json.loads(text)
            else:
                with open(text) as fh:
                    doc = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:  # nesting past the parser's depth
            raise ConfigurationError(f"cannot load config: {exc}") from None
    if not isinstance(doc, dict) or "stages" not in doc:
        raise ConfigurationError("a config is a JSON object with a 'stages' list")
    unknown = set(doc) - {f.name for f in fields(ArchConfig)}
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    return ArchConfig(**doc)


def arch_config_to_dict(cfg: ArchConfig) -> dict:
    """The JSON-ready document ``load_arch_config`` reads back to ``cfg``."""
    return {**asdict(cfg), "phase_mode": cfg.phase_mode.value}


def stage_resolutions(cfg: ArchConfig, h: int, w: int) -> list[tuple[int, int]]:
    """Token-grid size per stage for an h x w input (exact integer ceil division)."""
    out = []
    for p in cfg.patch_sizes:
        h, w = -(-h // p), -(-w // p)
        out.append((h, w))
    return out


def _stage_windows(cfg: ArchConfig) -> list[int]:
    if cfg.window != "all":
        return [int(cfg.window)] * 4
    res = stage_resolutions(cfg, *cfg.input_size)
    return [2 * max(hh, ww) - 1 for hh, ww in res]


def _static_sizes(cfg: ArchConfig) -> list:
    """Per-stage phase-grid size for the STATIC mode, else None per stage."""
    if cfg.phase_mode is PhaseMode.STATIC:
        return stage_resolutions(cfg, *cfg.input_size)
    return [None] * 4


@dataclass
class ModelParams:
    """All learnables of one network, in build order."""

    config: ArchConfig
    stems: list[StemParams]
    stages: list[list[BlockParams]] = field(repr=False)
    final_norm: NormParams = field(repr=False)
    head: Tensor = field(repr=False)  # [num_classes, d4]
    head_bias: Tensor = field(repr=False)  # [num_classes]

    @property
    def windows(self) -> list[int]:
        """Mixing window per stage, from the config (each block's ``wt.shape[0]``)."""
        return _stage_windows(self.config)


def build(cfg: ArchConfig, seed: int = 0, dtype=np.float64) -> ModelParams:
    """Deterministic initialization: one seed, one fixed draw order. Each stem, block and
    the head is drawn in float64 and cast at once to ``dtype``, float32 or float64. A config
    whose parameters alone outgrow physical memory is a ConfigurationError before any draw."""
    if np.dtype(dtype) not in (np.float32, np.float64):
        raise ConfigurationError(f"a model is float32 or float64, got dtype {np.dtype(dtype).name}")
    rng = np.random.default_rng(_number("seed", seed, 0))  # numpy seeds its generators from ints >= 0
    need = count_params(cfg) * np.dtype(dtype).itemsize
    if need > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):  # physical memory
        raise ConfigurationError(f"the model needs {need} bytes of parameters, more than physical memory")

    def cast(node):
        for _, t in iter_params(node):
            # a copy even at float64: the freed draws leave heap space that forward's
            # temporaries reuse (with copy=False a T forward at 224 ran ~15% slower)
            t.data = t.data.astype(dtype)
        return node

    windows = _stage_windows(cfg)
    static_res = _static_sizes(cfg)
    stems: list[StemParams] = []
    stages: list[list[BlockParams]] = []
    c_in = cfg.input_channels
    for i, spec in enumerate(cfg.stages):
        stems.append(cast(init_stem(cfg.patch_sizes[i], c_in, spec.dim, rng)))
        stages.append([
            cast(init_block(spec.dim, spec.expansion, windows[i], cfg.phase_mode, rng, static_res[i]))
            for _ in range(spec.depth)
        ])
        c_in = spec.dim
    final_norm, head = _norm_params(c_in), _uniform(rng, (cfg.num_classes, c_in), c_in)
    head_bias = Tensor(np.zeros(cfg.num_classes), requires_grad=True)
    return ModelParams(cfg, stems, stages, *cast([final_norm, head, head_bias]))


def iter_params(node, prefix: str = "") -> list[tuple[str, Tensor]]:
    """(name, tensor) pairs of every learnable under a params node, in field order.

    ``node`` is a ``ModelParams``, ``BlockParams``, ``PatmParams``,
    ``StemParams`` or ``NormParams``. Names are field paths such as
    ``stems.0.weight``, ``stages.2.0.patm_h.wc`` or ``head_bias``: a list
    contributes its index, a dataclass its field names. Anything that is not
    a Tensor, list or dataclass (a config, a mode, a patch size, a
    missing ``wtheta``) holds no learnables. The order is fixed (stems,
    stages, final norm, head, bias for a model); the optimizer relies on it.
    """
    if isinstance(node, Tensor):
        return [(prefix, node)]
    if isinstance(node, list):
        items = [(str(i), v) for i, v in enumerate(node)]
    elif is_dataclass(node):
        items = [(f.name, getattr(node, f.name)) for f in fields(node)]
    else:
        return []
    return [pair for k, v in items for pair in iter_params(v, f"{prefix}.{k}" if prefix else k)]


def _check_finite(x: Tensor, layer: str) -> None:
    if not np.isfinite(x.data).all():
        raise NumericError(f"non-finite values after {layer}")


def stage_walk(
    x: Tensor, stems: list, stages: list, dropout: float = 0.0, rng: np.random.Generator | None = None
) -> Tensor:
    """Each stem, then its stage's blocks: the one stage walk. A prefix such as
    ``stems[:s]``, ``stages[:s-1] + [[]]`` stops after stage s's stem. Raises
    NumericError naming the first non-finite layer (``stems.0``, ``stages.1.0``)."""
    for i, (stem, blocks) in enumerate(zip(stems, stages)):
        x = patch_embed(x, stem)
        _check_finite(x, f"stems.{i}")
        for j, b in enumerate(blocks):
            x = block_forward(x, b, dropout, rng)
            _check_finite(x, f"stages.{i}.{j}")
    return x


def _image_batch(m: ModelParams, images) -> Tensor:
    """A Tensor of m's dtype as given (ContractError for another dtype), anything else cast
    to m's dtype; DimensionError unless [B, H>=4, W>=4, C_in]."""
    x = images if isinstance(images, Tensor) else Tensor(np.asarray(images, dtype=m.head.dtype))
    if x.dtype != m.head.dtype:
        raise ContractError(f"image Tensor is {x.dtype.name}, the model is {m.head.dtype.name}")
    if x.ndim != 4:
        raise DimensionError(f"expected [B, H, W, C] images, got {tuple(x.shape)}")
    if min(x.shape[1:3]) < MIN_INPUT_SIZE:
        raise DimensionError(f"input spatial size must be >= {MIN_INPUT_SIZE}, got {x.shape[1:3]}")
    if x.shape[3] != m.config.input_channels:
        raise DimensionError(f"expected {m.config.input_channels} channels, got {x.shape[3]}")
    return x


def forward(m: ModelParams, images, rng: np.random.Generator | None = None) -> Tensor:
    """Images [B, H, W, C] -> logits [B, num_classes].

    ``stage_walk`` over the four stages, a final norm, a mean over the token
    grid, then the head (a channel-FC of the pooled features plus a bias).
    ``_image_batch`` casts and checks the images. ``rng`` enables dropout
    (training only); omit it for deterministic evaluation. Under an active
    ``Tape``, every parameter's ``.grad`` is set to None before the stem runs,
    so the last step's gradients never sit beside the growing tape (even if
    the forward then raises). Raises NumericError naming the first layer
    (``stems.i``, ``stages.i.j`` or ``head``) that produced a non-finite value.
    """
    images = _image_batch(m, images)
    if _TAPE_STACK:
        for _, t in iter_params(m):
            t.grad = None
    x = stage_walk(images, m.stems, m.stages, m.config.dropout, rng)
    x = normalize(x, m.final_norm.scale, m.final_norm.shift)
    pooled = reduce_mean(x, axis=(1, 2))
    logits = add(channel_fc(pooled, m.head), m.head_bias)
    _check_finite(logits, "head")
    return logits


def _tally(cfg: ArchConfig, h: int, w: int) -> tuple[int, int]:
    """(scalar learnables, MACs for one h x w image), from the config alone.

    Every projection weight (stem, channel-FCs, MLP, head), mixing window
    (wt, wi) and depthwise phase kernel holds one MAC per entry per token of
    its stage: at n tokens it costs n times its size. Norm scales and shifts,
    static phase grids and the head bias are parameters without MACs.
    """
    params = macs = 0
    c_in = cfg.input_channels
    tokens = stage_resolutions(cfg, h, w)
    stages = zip(cfg.stages, cfg.patch_sizes, tokens, _stage_windows(cfg), _static_sizes(cfg))
    for spec, p, (h, w), window, static in stages:
        d = spec.dim
        theta = {PhaseMode.CHANNEL_FC: d * d, PhaseMode.DEPTHWISE: DEPTHWISE_KERNEL * d}
        per_patm = 2 * d * d + 2 * window * d + theta.get(cfg.phase_mode, 0)  # wc, wout, wt, wi
        weights = 2 * per_patm + d * d + 2 * spec.expansion * d * d  # two axes, branch, MLP
        grids = 2 * static[0] * static[1] * d if static else 0
        stem = p * p * c_in * d
        params += stem + spec.depth * (weights + grids + 4 * d)  # + two norms per block
        macs += h * w * (stem + spec.depth * weights)
        c_in = d
    params += 2 * c_in + cfg.num_classes * (c_in + 1)  # final norm, head and bias
    macs += cfg.num_classes * c_in
    return params, macs


def _config(m) -> ArchConfig:
    return m.config if isinstance(m, ModelParams) else m


def count_params(m: ArchConfig | ModelParams) -> int:
    """Exact number of scalar learnables of a config (or a built model's)."""
    return _tally(_config(m), 1, 1)[0]


def count_flops(m: ArchConfig | ModelParams, h: int, w: int) -> int:
    """Multiply-accumulate count for one image at h x w (1 MAC = 1 FLOP).

    Counts matmuls (channel-FCs, the head), windowed token mixing
    (2*window MACs per token element, boundary zeros included), the
    depthwise phase convolution, and stem projections. Elementwise work is
    excluded. Takes a config or a built model, whose config it counts; h and
    w must be ints >= ``MIN_INPUT_SIZE``, as forward needs (ConfigurationError otherwise).
    """
    return _tally(_config(m), *_number("input h, w", (h, w), MIN_INPUT_SIZE, n=2))[1]
