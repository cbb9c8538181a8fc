"""Composite layers: token-mixing block, channel MLP, normalization, stems.

A block normalizes its input once, feeds that through three parallel
branches (phase-aware mixing along height, along width, and a direct
channel-FC), sums them onto the residual, then applies a pre-norm two-layer
channel MLP with GELU. Its hidden activation exists once: under a tape the
second FC applies GELU and dropout as its prologue, and without one they are
applied in the pre-activation's buffer. A stem is the taped ``patchify``,
which cuts non-overlapping patches and zero-pads ragged edges, then one
channel-FC.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .patm import PatmParams, PhaseMode, _uniform, channel_fc, init_patm, patm_forward
from .tensor import Tensor, _gelu_forward, _taped, add, layer_norm, patchify

__all__ = [
    "NormParams",
    "BlockParams",
    "StemParams",
    "normalize",
    "token_mixing_forward",
    "channel_mlp_forward",
    "block_forward",
    "patch_embed",
    "init_block",
    "init_stem",
]


@dataclass
class NormParams:
    scale: Tensor  # [d]
    shift: Tensor  # [d]


@dataclass
class BlockParams:
    """One block: mixing along height (patm_h) and width (patm_w), a direct branch, an MLP."""

    patm_h: PatmParams
    patm_w: PatmParams
    branch_fc: Tensor  # [d, d]
    mlp_fc1: Tensor  # [e*d, d]
    mlp_fc2: Tensor  # [d, e*d]
    norm1: NormParams
    norm2: NormParams

    def __post_init__(self):
        if self.patm_h.wt.shape != self.patm_w.wt.shape:
            raise ConfigurationError("both mixing modules must share one [window, channels]")


@dataclass
class StemParams:
    """Patch embedding: flatten patch*patch*c_in pixels, project to c_out."""

    patch: int
    weight: Tensor  # [c_out, patch*patch*c_in]


def normalize(x: Tensor, scale: Tensor, shift: Tensor) -> Tensor:
    """Standardize each token over its channels, then scale and shift; layer_norm checks shapes."""
    return layer_norm(x, scale, shift)


def token_mixing_forward(x: Tensor, b: BlockParams) -> Tensor:
    """Residual sum of the two axis mixers and the direct channel-FC branch."""
    n = normalize(x, b.norm1.scale, b.norm1.shift)
    y = add(
        add(patm_forward(n, b.patm_h, "height"), patm_forward(n, b.patm_w, "width")),
        channel_fc(n, b.branch_fc),
    )
    return add(x, y)


def channel_mlp_forward(
    x: Tensor, b: BlockParams, dropout: float = 0.0, rng: np.random.Generator | None = None
) -> Tensor:
    """Residual two-layer per-token MLP with GELU.

    The [tokens, e*d] hidden activation exists once, in one of two ways. When a tape
    records the second FC, that FC takes the pre-activation with ``linear``'s GELU
    prologue: the tape keeps the pre-activation, and a boolean keep-mask with dropout
    on, and backward rebuilds the activation. Otherwise nothing reads the
    pre-activation again, so GELU and the mask are applied in its own buffer and the
    FC takes it as is; both ways give the same bits. The normalized input and the
    pre-activation are dropped before the residual add. Dropout (inverted, on the
    hidden activations) is applied only when a probability and an rng are both
    supplied; the correctness path never is.
    """
    pre = channel_fc(normalize(x, b.norm2.scale, b.norm2.shift), b.mlp_fc1)
    mask = None
    if dropout > 0.0 and rng is not None:
        mask = (rng.random(pre.shape) >= dropout, dropout)
    if _taped(pre, b.mlp_fc2):
        y = channel_fc(pre, b.mlp_fc2, gelu=True, dropout=mask)
    else:
        _gelu_forward(pre.data, mask, out=pre.data)
        y = channel_fc(pre, b.mlp_fc2)
    del pre, mask
    return add(x, y)


def block_forward(
    x: Tensor, b: BlockParams, dropout: float = 0.0, rng: np.random.Generator | None = None
) -> Tensor:
    return channel_mlp_forward(token_mixing_forward(x, b), b, dropout, rng)


def patch_embed(x: Tensor, s: StemParams) -> Tensor:
    """Split [B, H, W, C] into patch*patch tiles and project each to c_out.

    ``patchify`` zero-pads ragged edges, so output extents are ceil(H/p),
    ceil(W/p); it checks for a 4-D, non-empty input, and ``linear`` checks
    that the weight takes p*p*C inputs.
    """
    return channel_fc(patchify(x, s.patch), s.weight)


def _norm_params(d: int) -> NormParams:
    return NormParams(Tensor(np.ones(d), requires_grad=True), Tensor(np.zeros(d), requires_grad=True))


def init_block(
    d: int,
    expansion: int,
    window: int,
    phase_mode: PhaseMode,
    rng: np.random.Generator,
    static_size: tuple[int, int] | None = None,
) -> BlockParams:
    """Draw one block's float64 parameters in a fixed order."""
    patm_h = init_patm(d, window, phase_mode, rng, static_size)
    patm_w = init_patm(d, window, phase_mode, rng, static_size)
    branch_fc = _uniform(rng, (d, d), d)
    mlp_fc1 = _uniform(rng, (expansion * d, d), d)
    mlp_fc2 = _uniform(rng, (d, expansion * d), expansion * d)
    return BlockParams(patm_h, patm_w, branch_fc, mlp_fc1, mlp_fc2, _norm_params(d), _norm_params(d))


def init_stem(patch: int, c_in: int, c_out: int, rng: np.random.Generator) -> StemParams:
    fan_in = patch * patch * c_in
    return StemParams(patch, _uniform(rng, (c_out, fan_in), fan_in))
