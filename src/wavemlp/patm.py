"""Phase-aware token mixing over [batch, height, width, channels] grids.

The module turns tokens into waves (amplitude from a channel-FC, phase from
an estimator), unfolds them into real/imaginary parts, and mixes neighbouring
tokens along one spatial axis inside an odd-length window with learnable
per-offset, per-channel weights for each part, followed by an output
channel-FC.

Window weights are indexed by relative offset and shared across positions
(depthwise-convolution style), so one parameter set serves any input size;
positions past the boundary contribute exact zeros. The unfolding and both
windowed sums, of the real and of the imaginary part, are one fused
``tensor.wave_mix`` op; the depthwise phase estimator is one
``tensor.window_mix`` op.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError, DimensionError
from .tensor import Tensor, add, linear, wave_mix, window_mix

__all__ = [
    "PhaseMode",
    "PatmParams",
    "AXIS_INDEX",
    "channel_fc",
    "compute_amplitude",
    "estimate_phase",
    "aggregate_tokens",
    "patm_forward",
    "init_patm",
    "DEPTHWISE_KERNEL",
]

AXIS_INDEX = {"height": 1, "width": 2}

# Phase-estimator depthwise kernel length: minimal non-trivial window.
DEPTHWISE_KERNEL = 3


class PhaseMode(str, Enum):
    """How token phases are produced.

    NONE       all-zero phases (mixing degenerates to a plain token-FC).
    STATIC     a learned per-position grid, independent of the input.
    CHANNEL_FC phases from a channel-FC of the input (dynamic).
    DEPTHWISE  phases from a per-channel length-3 convolution (dynamic).
    IDENTITY   phases are the input features themselves (dynamic,
               parameter-free; the estimator-ablation baseline).
    """

    NONE = "none"
    STATIC = "static"
    CHANNEL_FC = "channel_fc"
    DEPTHWISE = "depthwise"
    IDENTITY = "identity"

    @property
    def dynamic(self) -> bool:
        return self in (PhaseMode.CHANNEL_FC, PhaseMode.DEPTHWISE, PhaseMode.IDENTITY)


@dataclass
class PatmParams:
    """Weights of one phase-aware token-mixing instance.

    wc     [d, d]        amplitude channel-FC
    wtheta               phase estimator; shape depends on phase_mode:
                         [d, d] for CHANNEL_FC, [3, d] for DEPTHWISE,
                         [H, W, d] for STATIC, None for NONE/IDENTITY
    wt     [window, d]   real-part mixing weights, indexed by relative offset;
                         the odd mixing window is wt.shape[0], stored nowhere else
    wi     [window, d]   imaginary-part mixing weights, same shape as wt
    wout   [d, d]        output channel-FC
    axis                 "height" or "width"
    """

    wc: Tensor
    wtheta: Tensor | None
    wt: Tensor
    wi: Tensor
    wout: Tensor
    axis: str
    phase_mode: PhaseMode

    def __post_init__(self):
        if self.axis not in AXIS_INDEX:
            raise ConfigurationError(f"axis must be height or width, got {self.axis!r}")
        wt, wi = tuple(self.wt.shape), tuple(self.wi.shape)
        if len(wt) != 2 or wt[0] % 2 == 0 or wi != wt:
            raise ConfigurationError(f"wt, wi must share one [odd window, d], got {wt}, {wi}")


def channel_fc(x: Tensor, w: Tensor) -> Tensor:
    """y_j = W @ x_j for every token; x is [..., c_in], W [c_out, c_in]; linear checks shapes."""
    return linear(x, w)


def compute_amplitude(x: Tensor, wc: Tensor) -> Tensor:
    """Token amplitudes via a plain channel-FC; no absolute value is taken.

    Negative entries are fine: a sign flip is the same wave with the phase
    shifted by pi, which the cos/sin mixing handles implicitly
    (``aggregate_tokens(-a, theta)`` equals ``aggregate_tokens(a, theta + pi)``
    up to rounding; tests/test_patm.py checks it on generated inputs).
    """
    return channel_fc(x, wc)


def estimate_phase(x: Tensor, mode: PhaseMode, wtheta: Tensor | None, axis: str) -> Tensor:
    """Produce a phase grid (radians) for every token element."""
    mode = PhaseMode(mode)
    if mode is PhaseMode.NONE:
        return Tensor(np.zeros_like(x.data))
    if mode is PhaseMode.IDENTITY:
        return x
    if wtheta is None:
        raise ConfigurationError(f"phase mode {mode.value} needs estimator weights")
    if mode is PhaseMode.STATIC:
        if tuple(x.shape[1:3]) != tuple(wtheta.shape[:2]):
            raise ConfigurationError(
                f"static phase grid is {tuple(wtheta.shape[:2])} but input is "
                f"{tuple(x.shape[1:3])}"
            )
        zeros = Tensor(np.zeros(x.shape, dtype=x.dtype))
        return add(zeros, wtheta)  # broadcast over batch
    if mode is PhaseMode.CHANNEL_FC:
        return channel_fc(x, wtheta)
    # DEPTHWISE: per-channel 1-D convolution along this instance's axis
    if tuple(wtheta.shape) != (DEPTHWISE_KERNEL, x.shape[-1]):
        raise DimensionError(
            f"depthwise wtheta must be [{DEPTHWISE_KERNEL}, {x.shape[-1]}], "
            f"got {tuple(wtheta.shape)}"
        )
    return window_mix(x, wtheta, AXIS_INDEX[axis])


def aggregate_tokens(amp: Tensor, theta: Tensor, wt: Tensor, wi: Tensor, axis: str) -> Tensor:
    """Windowed phase-modulated mixing along one spatial axis; one ``wave_mix`` op.

    out[j] = sum_r wt[r] * (amp*cos(theta))[j+r] + wi[r] * (amp*sin(theta))[j+r]

    with r over the centered window (the length of wt and wi, both [odd window,
    channels]) and zero padding outside the grid; ``wave_mix`` checks the
    shapes. The weights are per relative offset and per channel; the orthogonal
    spatial axis and the batch are untouched. Output shape equals input shape.
    """
    return wave_mix(amp, theta, wt, wi, AXIS_INDEX[axis])


def patm_forward(x: Tensor, p: PatmParams) -> Tensor:
    """Full module: amplitude, phase, windowed mixing, output channel-FC."""
    amp = compute_amplitude(x, p.wc)
    theta = estimate_phase(x, p.phase_mode, p.wtheta, p.axis)
    mixed = aggregate_tokens(amp, theta, p.wt, p.wi, p.axis)
    return channel_fc(mixed, p.wout)


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> Tensor:
    bound = 1.0 / math.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def init_patm(
    d: int,
    window: int,
    axis: str,
    phase_mode: PhaseMode,
    rng: np.random.Generator,
    static_size: tuple[int, int] | None = None,
) -> PatmParams:
    """Draw fresh float64 parameters; draw order is fixed so seeds are reproducible."""
    phase_mode = PhaseMode(phase_mode)
    wc = _uniform(rng, (d, d), d)
    if phase_mode is PhaseMode.CHANNEL_FC:
        wtheta = _uniform(rng, (d, d), d)
    elif phase_mode is PhaseMode.DEPTHWISE:
        wtheta = _uniform(rng, (DEPTHWISE_KERNEL, d), DEPTHWISE_KERNEL)
    elif phase_mode is PhaseMode.STATIC:
        if static_size is None:
            raise ConfigurationError("static phase mode needs the stage grid size")
        h, w = static_size
        wtheta = Tensor(rng.uniform(-math.pi, math.pi, size=(h, w, d)), requires_grad=True)
    else:
        wtheta = None
    wt = _uniform(rng, (window, d), window)
    wi = _uniform(rng, (window, d), window)
    wout = _uniform(rng, (d, d), d)
    return PatmParams(wc, wtheta, wt, wi, wout, axis, phase_mode)
