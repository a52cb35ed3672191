import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rampwalk.analysis import (
    _verdict,
    classify,
    effective_coin_balanced_strings,
    polya_number,
    tv_distance,
)
from rampwalk.coins import equal_up_to_global_phase
from rampwalk.evolution import WalkSchedule, propagator_blocks, run_walk
from rampwalk.states import (
    CoinVector,
    Lattice,
    PositionDistribution,
    initial_state,
    position_distribution,
)

import oracles

angle = st.floats(min_value=0.0, max_value=math.pi / 2, allow_nan=False)


def test_tv_distance_extremes():
    lat = Lattice(-1, 1)
    p = PositionDistribution(lat, np.array([1.0, 0.0, 0.0]))
    q = PositionDistribution(lat, np.array([0.0, 0.0, 1.0]))
    assert tv_distance(p, q) == pytest.approx(1.0, abs=1e-15)
    assert tv_distance(p, p) == 0.0


def test_tv_distance_manual_value():
    lat = Lattice(-1, 1)
    p = PositionDistribution(lat, np.array([0.5, 0.3, 0.2]))
    q = PositionDistribution(lat, np.array([0.2, 0.3, 0.5]))
    assert tv_distance(p, q) == pytest.approx(0.3, abs=1e-15)


def test_tv_distance_requires_same_lattice():
    p = PositionDistribution(Lattice(-1, 1), np.array([1.0, 0.0, 0.0]))
    q = PositionDistribution(Lattice(-2, 2), np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        tv_distance(p, q)


@given(angle, angle, st.integers(min_value=1, max_value=8))
@settings(max_examples=60)
def test_tv_against_point_mass_equals_one_minus_p0(theta, omega, steps):
    sched = WalkSchedule(theta, omega, steps)
    lattice = Lattice.for_steps(steps)
    start = initial_state(lattice, CoinVector.symmetric())
    reference = position_distribution(start)
    for dist in run_walk(start, sched)[0]:
        direct = tv_distance(dist, reference)
        shortcut = 1.0 - dist.at_site(0)
        assert abs(direct - shortcut) <= 1e-12


def test_polya_number_values():
    assert polya_number([0.0, 1.0, 0.0], horizon=3) == pytest.approx(1.0, abs=1e-15)
    assert polya_number([0.5, 0.5]) == pytest.approx(0.75, abs=1e-15)
    assert polya_number([0.2, 0.3], horizon=0) == 0.0
    assert polya_number([], horizon=0) == 0.0
    assert polya_number([0.25]) == pytest.approx(0.25, abs=1e-15)


def test_polya_number_validation():
    with pytest.raises(ValueError):
        polya_number([0.5, math.nan])
    with pytest.raises(ValueError):
        polya_number([0.5], horizon=2)
    with pytest.raises(ValueError):
        polya_number([0.5], horizon=-1)
    with pytest.raises(ValueError):
        polya_number([1.5])
    with pytest.raises(ValueError):
        polya_number([[0.1, 0.2]])


def test_polya_at_flagship_revival():
    sched = WalkSchedule(0.0, math.pi / 8, 16)
    lattice = Lattice.for_steps(16)
    start = initial_state(lattice, CoinVector.symmetric())
    p0 = [distribution.at_site(0) for distribution in run_walk(start, sched)[0]]
    assert polya_number(p0, horizon=7) == pytest.approx(1.0, abs=1e-12)
    assert polya_number(p0) == pytest.approx(1.0, abs=1e-12)


def test_effective_coin_strings_hand_value():
    # two steps, no bias, ramp pi/8: both balanced strings sum to this matrix
    sched = WalkSchedule(0.0, math.pi / 8, 2)
    expected = np.array(
        [
            [-1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0)],
            [1j / math.sqrt(2.0), -1.0 / math.sqrt(2.0)],
        ]
    )
    assert np.max(np.abs(effective_coin_balanced_strings(sched) - expected)) < 1e-12


def test_effective_coin_rejects_odd_and_oversized():
    with pytest.raises(ValueError):
        effective_coin_balanced_strings(WalkSchedule(0.0, 0.1, 3))
    with pytest.raises(ValueError):
        effective_coin_balanced_strings(WalkSchedule(0.0, 0.1, 22))


def test_effective_coin_zero_steps_is_identity():
    sched = WalkSchedule(0.3, 0.2, 0)
    assert np.array_equal(effective_coin_balanced_strings(sched), np.eye(2))
    assert np.max(np.abs(propagator_blocks(sched)[0] - np.eye(2))) < 1e-15


@given(angle, angle, st.sampled_from([2, 4, 6]))
@settings(max_examples=60)
def test_effective_coin_matches_string_oracle(theta, omega, steps):
    sched = WalkSchedule(theta, omega, steps)
    ours = effective_coin_balanced_strings(sched)
    reference = np.array(oracles.effective_coin_strings(theta, omega, steps))
    assert np.max(np.abs(ours - reference)) < 1e-12


@given(angle, angle, st.sampled_from([2, 4, 6, 8, 10, 12]))
@settings(max_examples=80)
def test_effective_coin_constructions_agree(theta, omega, steps):
    sched = WalkSchedule(theta, omega, steps)
    from_strings = effective_coin_balanced_strings(sched)
    from_operator = propagator_blocks(sched)[steps]
    assert np.max(np.abs(from_strings - from_operator)) <= 1e-10


def unitarity_defect(m):
    """Largest entrywise deviation of ``m.H @ m`` from the identity."""
    return float(np.max(np.abs(m.conj().T @ m - np.eye(2))))


def test_effective_coin_unitary_only_at_revivals():
    revival = WalkSchedule(0.0, math.pi / 8, 2)
    assert unitarity_defect(effective_coin_balanced_strings(revival)) < 1e-12
    generic = WalkSchedule(0.0, math.pi / 7, 2)
    assert unitarity_defect(effective_coin_balanced_strings(generic)) > 1e-3


def test_is_revival_operator_known_points():
    assert classify(WalkSchedule(0.0, math.pi / 8, 2)).is_revival
    assert classify(WalkSchedule(0.0, math.pi / 8, 16)).is_revival
    assert classify(WalkSchedule(math.pi / 4, 0.0, 4)).is_revival
    assert not classify(WalkSchedule(0.0, math.pi / 7, 2)).is_revival
    assert not classify(WalkSchedule(0.0, math.pi / 8, 3)).is_revival
    # family points at large T, checked against five start sites walked by the oracle
    for theta, omega, steps, expected in [
        (math.pi / 4, math.pi / 12, 24, True),  # complete, k pi / T
        (math.pi / 4, math.pi / 13, 24, True),  # incomplete, k pi / (T + 2)
        (math.pi / 4, math.pi / 12 + 1e-3, 24, False),
        (math.pi / 4, math.pi / 8, 16, True),
        (0.0, math.pi / 36, 16, True),  # incomplete, (2k + 1) pi / (2 (T + 2))
        (0.0, math.pi / 36 + 1e-3, 16, False),
    ]:
        blocks = propagator_blocks(WalkSchedule(theta, omega, steps))
        ours = _verdict(blocks)[0]
        reference = oracles.is_revival_state_route(theta, omega, steps)
        assert ours == reference == expected


@given(angle, angle, st.sampled_from([2, 4, 6]))
@settings(max_examples=40)
def test_is_revival_operator_matches_state_route(theta, omega, steps):
    blocks = propagator_blocks(WalkSchedule(theta, omega, steps))
    ours = _verdict(blocks)[0]
    reference = oracles.is_revival_state_route(theta, omega, steps)
    assert ours == reference


def _blocks(steps, off_origin, origin_block):
    blocks = np.full((2 * steps + 1, 2, 2), off_origin, dtype=np.complex128)
    blocks[steps] = origin_block
    return blocks


def test_verdict_decides_revival_and_completeness_at_one_tolerance():
    phase = np.exp(0.7j) * np.eye(2)
    assert _verdict(_blocks(4, 5e-11, phase)) == (True, True)
    # off-origin entries of 5e-9 are no revival, so no complete one either
    assert _verdict(_blocks(4, 5e-9, phase)) == (False, False)
    assert _verdict(_blocks(4, 0.0, np.diag([1.0, 1j]))) == (True, False)
    # an odd step count is never complete
    assert _verdict(_blocks(3, 0.0, np.eye(2))) == (True, False)


def test_classify_complete_revivals():
    for theta, omega, steps in [
        (math.pi / 4, 0.0, 2),
        (math.pi / 4, math.pi / 4, 4),
        (0.0, math.pi / 8, 8),
        (0.0, math.pi / 8, 16),
    ]:
        report = classify(WalkSchedule(theta, omega, steps))
        assert report.is_revival
        assert report.is_complete
        assert report.origin_probability == pytest.approx(1.0, abs=1e-10)
        assert equal_up_to_global_phase(report.effective_coin, np.eye(2), 1e-8)


def test_classify_incomplete_revival():
    report = classify(WalkSchedule(0.0, math.pi / 8, 2))
    assert report.is_revival
    assert not report.is_complete
    assert report.origin_probability == pytest.approx(1.0, abs=1e-12)
    assert report.overlap_predicted == pytest.approx(1.0, abs=1e-10)


def test_classify_non_revival():
    report = classify(WalkSchedule(0.3, 0.2, 4))
    assert not report.is_revival
    assert not report.is_complete
    assert report.origin_probability < 1.0 - 1e-6
    assert report.tv_distance > 1e-6


def test_classify_report_internal_consistency():
    for theta, omega, steps in [
        (0.0, math.pi / 8, 2),
        (0.0, 0.3, 4),
        (math.pi / 4, math.pi / 10, 8),
        (0.5, 0.7, 5),
    ]:
        report = classify(WalkSchedule(theta, omega, steps))
        assert abs(
            report.tv_distance - (1.0 - report.origin_probability)
        ) <= 1e-12
        assert report.is_revival or not report.is_complete
        assert 0.0 <= report.polya_truncated <= 1.0 + 1e-12
        if steps % 2 == 1:
            assert report.effective_coin is None
            assert math.isnan(report.overlap_predicted)


def test_classify_overlap_values_at_experiment_points():
    aligned = classify(WalkSchedule(math.pi / 4, math.pi / 10, 8))
    assert aligned.overlap_initial == pytest.approx(0.6545084971874734, abs=1e-12)
    assert aligned.overlap_predicted == pytest.approx(1.0, abs=1e-10)
    crossed = classify(WalkSchedule(0.0, math.pi / 20, 8))
    assert crossed.overlap_initial == pytest.approx(0.0954915028125262, abs=1e-12)
    assert crossed.overlap_predicted == pytest.approx(1.0, abs=1e-10)


def test_classify_predicted_coin_state_matches_effective_map():
    sched = WalkSchedule(math.pi / 4, math.pi / 10, 8)
    report = classify(sched)
    lattice = Lattice.for_steps(8)
    start = initial_state(lattice, CoinVector.symmetric())
    _, final = run_walk(start, sched)
    coin_amps = final.amplitudes[lattice.index(0)]
    predicted = report.effective_coin @ CoinVector.symmetric().as_array()
    predicted = predicted / np.linalg.norm(predicted)
    assert equal_up_to_global_phase(coin_amps, predicted, tol=1e-10)
    expected = np.array([math.cos(math.pi / 20), 1j * math.sin(math.pi / 20)])
    assert equal_up_to_global_phase(coin_amps, expected, tol=1e-12)


def test_classify_with_noise_keeps_operator_verdicts():
    clean = classify(WalkSchedule(0.0, math.pi / 8, 8))
    noisy = classify(WalkSchedule(0.0, math.pi / 8, 8, visibility=0.95))
    assert noisy.is_revival and noisy.is_complete
    assert noisy.origin_probability < clean.origin_probability
    assert abs(
        noisy.tv_distance - (1.0 - noisy.origin_probability)
    ) <= 1e-12
