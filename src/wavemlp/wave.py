"""Phasor algebra for wave-like tokens.

A token element is a wave ``a * exp(i*theta)`` with nonnegative amplitude and
a phase in radians. This module provides the closed forms for two-wave
superposition, the canonical phase wrap, and an independent
complex-arithmetic oracle used to validate the closed forms.

Note on the phase closed form: the second atan2 argument must be the cosine
term ``a1 + a2*cos(t2 - t1)`` (real part of the rotated sum). A sine there
does not describe phasor addition; ``oracle_superpose`` is the ground truth
the implemented form is tested against.

Everything here is plain numpy (no tape). The Euler unfolding into
``a*cos(theta)`` and ``a*sin(theta)`` that the model mixes lives in one place,
the taped ``tensor.wave_mix`` behind :func:`wavemlp.patm.aggregate_tokens`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DomainError, UndefinedPhaseError

__all__ = [
    "TWO_PI",
    "Phasor",
    "canonicalize_phase",
    "superpose_amplitude",
    "superpose_phase",
    "oracle_superpose",
]

TWO_PI = 2.0 * np.pi

# Below this amplitude the argument of a complex number is numerically
# meaningless; the oracle reports phase 0 and tests compare amplitudes only.
ZERO_AMPLITUDE = 1e-14

# The superposition domain (README): (a1 + a2)**2 bounds every square the closed forms
# take, and within |t| <= 1e4 rad they agree with the oracle to 1e-10.
MAX_AMPLITUDE_SUM = 2.0**511
MAX_PHASE = 1e4


class Phasor(NamedTuple):
    """Amplitude/phase pair; scalar or elementwise over arrays."""

    amplitude: np.ndarray
    phase: np.ndarray


def canonicalize_phase(theta):
    """Wrap radians into the canonical interval (-pi, pi]."""
    theta = np.asarray(theta, dtype=np.float64)
    wrapped = np.mod(theta, TWO_PI)  # [0, 2*pi)
    return np.where(wrapped > np.pi, wrapped - TWO_PI, wrapped)


def _waves(a1, a2, t1, t2):
    """The two waves as float64 arrays; DomainError unless every amplitude and phase is finite,
    every amplitude >= 0, a1 + a2 <= MAX_AMPLITUDE_SUM and every |phase| <= MAX_PHASE."""
    a1, a2, t1, t2 = (np.asarray(v, dtype=np.float64) for v in (a1, a2, t1, t2))
    if not all(np.isfinite(v).all() for v in (a1, a2, t1, t2)):
        raise DomainError("superposition amplitudes and phases must be finite")
    if np.any(a1 < 0) or np.any(a2 < 0):
        raise DomainError("superposition amplitudes must be nonnegative")
    big_phase = np.any(np.abs(t1) > MAX_PHASE) or np.any(np.abs(t2) > MAX_PHASE)
    if big_phase or np.any(a1 > MAX_AMPLITUDE_SUM - a2):  # a1 + a2 itself may overflow
        raise DomainError(f"superposition needs a1 + a2 <= 2**511 and |phase| <= {MAX_PHASE:g}")
    return a1, a2, t1, t2


def superpose_amplitude(a1, a2, t1, t2):
    """Amplitude of ``a1*e^{i*t1} + a2*e^{i*t2}``, elementwise.

    Closed form sqrt(a1^2 + a2^2 + 2*a1*a2*cos(t2 - t1)), with the radicand
    written as (a1 - a2)^2 + 4*a1*a2*cos^2((t2 - t1)/2): a sum of two
    nonnegative terms, so it does not cancel when the waves nearly annihilate.
    """
    a1, a2, t1, t2 = _waves(a1, a2, t1, t2)
    return np.sqrt((a1 - a2) ** 2 + 4.0 * a1 * a2 * np.cos((t2 - t1) / 2.0) ** 2)


def superpose_phase(a1, a2, t1, t2):
    """Phase of ``a1*e^{i*t1} + a2*e^{i*t2}``, canonicalized to (-pi, pi].

    Computed as t1 + atan2(a2*sin(t2 - t1), a1 + a2*cos(t2 - t1)).
    """
    a1, a2, t1, t2 = _waves(a1, a2, t1, t2)
    if np.any((a1 == 0) & (a2 == 0)):
        raise UndefinedPhaseError("phase of a zero-amplitude superposition is undefined")
    delta = t2 - t1
    return canonicalize_phase(t1 + np.arctan2(a2 * np.sin(delta), a1 + a2 * np.cos(delta)))


def oracle_superpose(a1, a2, t1, t2) -> Phasor:
    """Superpose two waves by explicit real-pair complex arithmetic.

    Independent checker for the closed forms above; shares only the input check
    with them (the phase wrap is done inline). Where the resultant amplitude is
    below ZERO_AMPLITUDE the phase is reported as 0 by convention.
    """
    a1, a2, t1, t2 = _waves(a1, a2, t1, t2)
    re = a1 * np.cos(t1) + a2 * np.cos(t2)
    im = a1 * np.sin(t1) + a2 * np.sin(t2)
    amplitude = np.hypot(re, im)
    phase = np.arctan2(im, re)  # [-pi, pi]
    phase = np.where(phase <= -np.pi, phase + TWO_PI, phase)
    phase = np.where(amplitude < ZERO_AMPLITUDE, 0.0, phase)
    return Phasor(amplitude, phase)
