"""Phasor algebra for wave-like tokens.

A token element is a wave ``a * exp(i*theta)`` with nonnegative amplitude and
a phase in radians. This module provides the closed forms for two-wave
superposition, Euler unfolding into real/imaginary parts, the sign-absorption
rule that folds negative amplitudes into a pi phase shift, and an independent
complex-arithmetic oracle used to validate the closed forms.

Note on the phase closed form: the second atan2 argument must be the cosine
term ``a1 + a2*cos(t2 - t1)`` (real part of the rotated sum). A sine there
does not describe phasor addition; ``oracle_superpose`` is the ground truth
the implemented form is tested against.

Everything here is plain numpy (no tape); the differentiable mixing path of
:mod:`wavemlp.patm` builds the same quantities in the taped ``tensor.wave_mix``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, DomainError, UndefinedPhaseError

__all__ = [
    "TWO_PI",
    "Phasor",
    "WaveGrid",
    "canonicalize_phase",
    "superpose_amplitude",
    "superpose_phase",
    "oracle_superpose",
    "unfold",
    "absorb_sign",
]

TWO_PI = 2.0 * np.pi

# Below this amplitude the argument of a complex number is numerically
# meaningless; the oracle reports phase 0 and tests compare amplitudes only.
ZERO_AMPLITUDE = 1e-14


class Phasor(NamedTuple):
    """Amplitude/phase pair; scalar or elementwise over arrays."""

    amplitude: np.ndarray
    phase: np.ndarray


@dataclass
class WaveGrid:
    """A token grid in wave form: amplitude and phase arrays of equal shape."""

    amplitude: np.ndarray
    phase: np.ndarray

    def __post_init__(self):
        self.amplitude = np.asarray(self.amplitude, dtype=np.float64)
        self.phase = np.asarray(self.phase, dtype=np.float64)
        if self.amplitude.shape != self.phase.shape:
            raise DimensionError(
                f"amplitude shape {self.amplitude.shape} != phase shape {self.phase.shape}"
            )


def canonicalize_phase(theta):
    """Wrap radians into the canonical interval (-pi, pi]."""
    theta = np.asarray(theta, dtype=np.float64)
    wrapped = np.mod(theta, TWO_PI)  # [0, 2*pi)
    return np.where(wrapped > np.pi, wrapped - TWO_PI, wrapped)


def _check_domain(a1, a2, t1, t2):
    """Raise DomainError unless every amplitude and phase is finite and every amplitude >= 0."""
    if not all(np.isfinite(v).all() for v in (a1, a2, t1, t2)):
        raise DomainError("superposition amplitudes and phases must be finite")
    if np.any(a1 < 0) or np.any(a2 < 0):
        raise DomainError("superposition amplitudes must be nonnegative")


def superpose_amplitude(a1, a2, t1, t2):
    """Amplitude of ``a1*e^{i*t1} + a2*e^{i*t2}``, elementwise.

    Closed form sqrt(a1^2 + a2^2 + 2*a1*a2*cos(t2 - t1)), with the radicand
    written as (a1 - a2)^2 + 4*a1*a2*cos^2((t2 - t1)/2): a sum of two
    nonnegative terms, so it does not cancel when the waves nearly annihilate.
    """
    a1, a2 = np.asarray(a1, dtype=np.float64), np.asarray(a2, dtype=np.float64)
    t1, t2 = np.asarray(t1, dtype=np.float64), np.asarray(t2, dtype=np.float64)
    _check_domain(a1, a2, t1, t2)
    return np.sqrt((a1 - a2) ** 2 + 4.0 * a1 * a2 * np.cos((t2 - t1) / 2.0) ** 2)


def superpose_phase(a1, a2, t1, t2):
    """Phase of ``a1*e^{i*t1} + a2*e^{i*t2}``, canonicalized to (-pi, pi].

    Computed as t1 + atan2(a2*sin(t2 - t1), a1 + a2*cos(t2 - t1)).
    """
    a1, a2 = np.asarray(a1, dtype=np.float64), np.asarray(a2, dtype=np.float64)
    t1, t2 = np.asarray(t1, dtype=np.float64), np.asarray(t2, dtype=np.float64)
    _check_domain(a1, a2, t1, t2)
    if np.any((a1 == 0) & (a2 == 0)):
        raise UndefinedPhaseError("phase of a zero-amplitude superposition is undefined")
    delta = t2 - t1
    return canonicalize_phase(t1 + np.arctan2(a2 * np.sin(delta), a1 + a2 * np.cos(delta)))


def oracle_superpose(a1, a2, t1, t2) -> Phasor:
    """Superpose two waves by explicit real-pair complex arithmetic.

    Independent checker for the closed forms above; shares no code with them
    (including the phase wrap, done inline). Where the resultant amplitude is
    below ZERO_AMPLITUDE the phase is reported as 0 by convention.
    """
    a1, a2 = np.asarray(a1, dtype=np.float64), np.asarray(a2, dtype=np.float64)
    t1, t2 = np.asarray(t1, dtype=np.float64), np.asarray(t2, dtype=np.float64)
    _check_domain(a1, a2, t1, t2)
    re = a1 * np.cos(t1) + a2 * np.cos(t2)
    im = a1 * np.sin(t1) + a2 * np.sin(t2)
    amplitude = np.hypot(re, im)
    phase = np.arctan2(im, re)  # [-pi, pi]
    phase = np.where(phase <= -np.pi, phase + TWO_PI, phase)
    phase = np.where(amplitude < ZERO_AMPLITUDE, 0.0, phase)
    return Phasor(amplitude, phase)


def unfold(w: WaveGrid) -> tuple[np.ndarray, np.ndarray]:
    """Euler unfolding: (a*cos(theta), a*sin(theta))."""
    return w.amplitude * np.cos(w.phase), w.amplitude * np.sin(w.phase)


def absorb_sign(z, theta) -> WaveGrid:
    """Fold the sign of a real feature into the phase.

    Where z >= 0 the wave is (z, theta); where z < 0 it is (-z, theta + pi).
    Output phases are canonical, so `unfold` recovers z*cos(theta),
    z*sin(theta) exactly up to rounding.
    """
    z = np.asarray(z, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    if z.shape != theta.shape:
        raise DimensionError(f"shape mismatch: {z.shape} vs {theta.shape}")
    amplitude = np.abs(z)
    phase = canonicalize_phase(np.where(z < 0, theta + np.pi, theta))
    return WaveGrid(amplitude, phase)
