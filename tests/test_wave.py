"""Phasor algebra: closed forms against the complex oracle, plus invariants."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavemlp import wave
from wavemlp.errors import DomainError, UndefinedPhaseError
from wavemlp.wave import (
    canonicalize_phase,
    oracle_superpose,
    superpose_amplitude,
    superpose_phase,
)


def _circ_diff(a, b):
    return np.abs(canonicalize_phase(np.asarray(a) - np.asarray(b)))


# ---------------------------------------------------------------------------
# superpose_amplitude


def test_same_phase_amplitudes_add():
    assert float(superpose_amplitude(1.0, 1.0, 0.7, 0.7)) == pytest.approx(2.0, abs=1e-14)


def test_opposite_phase_amplitudes_cancel():
    assert float(superpose_amplitude(1.0, 1.0, 0.0, np.pi)) == pytest.approx(0.0, abs=1e-14)


def test_right_angle_amplitude_is_sqrt5():
    # oracle value |2 + 1i|
    assert float(superpose_amplitude(2.0, 1.0, 0.0, np.pi / 2)) == pytest.approx(
        np.sqrt(5.0), abs=1e-12
    )


def test_negative_amplitude_rejected():
    with pytest.raises(DomainError):
        superpose_amplitude(-1.0, 1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        superpose_phase(1.0, -1.0, 0.0, 0.0)


@pytest.mark.parametrize("f", [superpose_amplitude, superpose_phase, oracle_superpose])
@pytest.mark.parametrize(
    "args",
    [(np.nan, 1.0, 0.0, 0.0), (1.0, np.inf, 0.0, 0.0), (1.0, 1.0, np.nan, 0.0), (1.0, 1.0, 0.0, -np.inf)],
    ids=["a1-nan", "a2-inf", "t1-nan", "t2-inf"],
)
def test_non_finite_inputs_rejected(f, args):
    with pytest.raises(DomainError):
        f(*args)


@pytest.mark.parametrize("f", [superpose_amplitude, superpose_phase, oracle_superpose])
@pytest.mark.parametrize(
    "args",
    [
        (1e308, 1e308, 0.0, 0.0),
        (2.0**510, 2.0**510 * 1.001, 0.0, 0.0),
        (1.0, 1.0, 1e300, 0.0),
        (1.0, 1.0, 0.0, -1e4 - 0.01),
    ],
    ids=["sum-overflows", "sum-past-bound", "t1-huge", "t2-past-bound"],
)
def test_inputs_outside_the_stated_domain_rejected(f, args):
    with pytest.raises(DomainError):
        f(*args)


def test_domain_edges_give_finite_agreeing_results():
    a, t = 2.0**510, wave.MAX_PHASE  # a + a is MAX_AMPLITUDE_SUM
    assert float(superpose_amplitude(a, a, t, t)) == float(oracle_superpose(a, a, t, t).amplitude)
    phase = superpose_phase(1.0, 2.0, t, -t)
    assert _circ_diff(phase, oracle_superpose(1.0, 2.0, t, -t).phase) < 1e-10


# ---------------------------------------------------------------------------
# superpose_phase


def test_zero_second_wave_keeps_first_phase():
    assert float(superpose_phase(1.5, 0.0, 2.0, 99.0)) == pytest.approx(2.0, abs=1e-14)


def test_equal_unit_amplitudes_bisect():
    # oracle value arg(1 + i)
    assert float(superpose_phase(1.0, 1.0, 0.0, np.pi / 2)) == pytest.approx(
        np.pi / 4, abs=1e-12
    )


def test_equal_phases_preserved():
    assert float(superpose_phase(3.0, 3.0, 0.4, 0.4)) == pytest.approx(0.4, abs=1e-14)


def test_both_zero_amplitudes_rejected():
    with pytest.raises(UndefinedPhaseError):
        superpose_phase(0.0, 0.0, 1.0, 2.0)


def test_phase_output_is_canonical():
    rng = np.random.default_rng(0)
    ph = superpose_phase(
        rng.uniform(0.1, 5, 1000),
        rng.uniform(0.1, 5, 1000),
        rng.uniform(-12, 12, 1000),
        rng.uniform(-12, 12, 1000),
    )
    assert np.all(ph > -np.pi) and np.all(ph <= np.pi)


# ---------------------------------------------------------------------------
# oracle agreement


def test_oracle_trivia():
    ora = oracle_superpose(1.0, 1.0, 0.0, 0.0)
    assert float(ora.amplitude) == pytest.approx(2.0, abs=1e-15)
    assert float(ora.phase) == 0.0
    ora = oracle_superpose(1.0, 1.0, 0.0, np.pi)
    assert float(ora.amplitude) == pytest.approx(0.0, abs=1e-15)


def test_closed_forms_match_oracle_on_mass_random_tuples():
    rng = np.random.default_rng(42)
    n = 100_000
    a1, a2 = rng.uniform(0, 10, n), rng.uniform(0, 10, n)
    t1 = rng.uniform(-4 * np.pi, 4 * np.pi, n)
    t2 = rng.uniform(-4 * np.pi, 4 * np.pi, n)
    ora = oracle_superpose(a1, a2, t1, t2)
    amp_err = np.abs(superpose_amplitude(a1, a2, t1, t2) - ora.amplitude)
    assert amp_err.max() < 1e-10
    mask = ora.amplitude > wave.ZERO_AMPLITUDE
    phase_err = _circ_diff(superpose_phase(a1, a2, t1, t2)[mask], ora.phase[mask])
    assert phase_err.max() < 1e-10


@st.composite
def _superposition_cases(draw):
    """Amplitudes in [0, 10] with ratios from 1e-12 to 1e12, or a pair that nearly cancels."""
    t1 = draw(st.floats(-4 * np.pi, 4 * np.pi))
    if draw(st.booleans()):  # a2 = a1 * (1 +- 10^-k) and t2 - t1 = pi +- 10^-k
        a1, k = draw(st.floats(0, 10 / 1.1)), draw(st.integers(1, 12))
        a2 = a1 * (1 + draw(st.sampled_from([-1, 1])) * 10.0**-k)
        return a1, a2, t1, t1 + np.pi + draw(st.sampled_from([-1, 1])) * 10.0**-k
    big, small = draw(st.floats(0, 10)), 10.0 ** -draw(st.floats(0, 12))
    a1, a2 = (big, big * small) if draw(st.booleans()) else (big * small, big)
    return a1, a2, t1, draw(st.floats(-4 * np.pi, 4 * np.pi))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(case=_superposition_cases())
@example(case=(3.0, 3.0 * (1 + 1e-12), 0.5, 0.5 + np.pi + 1e-12))  # the radicand cancels
@example(case=(10.0, 1e-11, -2.0, 1.0))
def test_closed_forms_match_oracle_property(case):
    a1, a2, t1, t2 = case
    ora = oracle_superpose(a1, a2, t1, t2)
    assert abs(float(superpose_amplitude(a1, a2, t1, t2)) - float(ora.amplitude)) < 1e-10
    # Below 1e-4 of a1 + a2 the phase is ill-conditioned; below ZERO_AMPLITUDE
    # the oracle reports 0 by convention.
    if ora.amplitude >= 1e-4 * (a1 + a2) and ora.amplitude > wave.ZERO_AMPLITUDE:
        assert _circ_diff(superpose_phase(a1, a2, t1, t2), ora.phase) < 1e-10


# ---------------------------------------------------------------------------
# algebraic invariants


def test_commutativity():
    rng = np.random.default_rng(1)
    a1, a2 = rng.uniform(0, 10, 2000), rng.uniform(0, 10, 2000)
    t1, t2 = rng.uniform(-12, 12, 2000), rng.uniform(-12, 12, 2000)
    npt.assert_allclose(
        superpose_amplitude(a1, a2, t1, t2), superpose_amplitude(a2, a1, t2, t1), atol=1e-12
    )


def test_two_pi_periodicity():
    rng = np.random.default_rng(2)
    a1, a2 = rng.uniform(0, 10, 2000), rng.uniform(0, 10, 2000)
    t1, t2 = rng.uniform(-12, 12, 2000), rng.uniform(-12, 12, 2000)
    base_amp = superpose_amplitude(a1, a2, t1, t2)
    base_ph = superpose_phase(a1, a2, t1, t2)
    for shift in (2 * np.pi, -2 * np.pi):
        npt.assert_allclose(superpose_amplitude(a1, a2, t1 + shift, t2, ), base_amp, atol=1e-12)
        npt.assert_allclose(superpose_amplitude(a1, a2, t1, t2 + shift), base_amp, atol=1e-12)
        assert _circ_diff(superpose_phase(a1, a2, t1, t2 + shift), base_ph).max() < 1e-12


def test_classical_special_case_signed_addition():
    """Phases restricted to {0, pi} reproduce signed real addition."""
    rng = np.random.default_rng(3)
    a1, a2 = rng.uniform(0, 10, 5000), rng.uniform(0, 10, 5000)
    s1, s2 = rng.integers(0, 2, 5000), rng.integers(0, 2, 5000)
    t1, t2 = np.pi * s1, np.pi * s2
    signed_sum = a1 * np.where(s1 == 0, 1, -1) + a2 * np.where(s2 == 0, 1, -1)
    npt.assert_allclose(superpose_amplitude(a1, a2, t1, t2), np.abs(signed_sum), atol=1e-9)
    # phase of the sum is 0 or pi according to the sign of the signed sum
    mask = np.abs(signed_sum) > 1e-9
    ph = superpose_phase(a1[mask], a2[mask], t1[mask], t2[mask])
    want = np.where(signed_sum[mask] >= 0, 0.0, np.pi)
    assert _circ_diff(ph, want).max() < 1e-7


def test_canonicalize_boundaries():
    npt.assert_allclose(canonicalize_phase(np.pi), np.pi)
    npt.assert_allclose(canonicalize_phase(-np.pi), np.pi)
    npt.assert_allclose(canonicalize_phase(3 * np.pi), np.pi)
    npt.assert_allclose(canonicalize_phase(0.0), 0.0)
    out = canonicalize_phase(np.linspace(-20, 20, 1001))
    assert np.all(out > -np.pi) and np.all(out <= np.pi)
