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
from rampwalk import evolution
from rampwalk.coins import StepConvention
from rampwalk.evolution import WalkSchedule
from rampwalk.states import (
    CoinVector,
    Lattice,
    PositionDistribution,
)

import oracles
from walks import distribution, origin_blocks, start_state, walk

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
    stack = PositionDistribution(Lattice(-1, 1), np.array([[1.0, 0.0, 0.0]] * 2))
    with pytest.raises(ValueError):
        tv_distance(stack, q)


@pytest.mark.parametrize("visibility", [1.0, 0.8])
def test_tv_distance_of_a_stack_equals_its_per_row_distances(visibility):
    sched = WalkSchedule(0.3, 0.2, 9, visibility=visibility)
    reference = distribution(start_state(9))
    distributions, _ = walk(sched)
    per_row = [
        tv_distance(PositionDistribution(reference.lattice, row), reference)
        for row in distributions.probabilities
    ]
    assert all(type(value) is float for value in per_row)
    distances = tv_distance(distributions, reference)
    assert distances.shape == (10,) and distances[0] == 0.0
    assert np.array_equal(distances, per_row)


@given(angle, angle, st.integers(min_value=1, max_value=8))
@settings(max_examples=60)
def test_tv_against_point_mass_equals_one_minus_p0(theta, omega, steps):
    sched = WalkSchedule(theta, omega, steps)
    reference = distribution(start_state(steps))
    distributions, _ = walk(sched)
    direct = tv_distance(distributions, reference)
    shortcut = 1.0 - distributions.at_site(0)
    assert direct.shape == (steps + 1,)
    assert np.all(np.abs(direct - shortcut) <= 1e-12)


def test_polya_number_values():
    assert polya_number([0.0, 1.0, 0.0]) == pytest.approx(1.0, abs=1e-15)
    assert polya_number([0.5, 0.5]) == pytest.approx(0.75, abs=1e-15)
    assert polya_number([]) == 0.0
    assert polya_number([0.25]) == pytest.approx(0.25, abs=1e-15)


def test_polya_number_validation():
    with pytest.raises(ValueError):
        polya_number([0.5, math.nan])
    with pytest.raises(ValueError):
        polya_number([1.5])
    with pytest.raises(ValueError):
        polya_number([[0.1, 0.2]])


def test_polya_at_flagship_revival():
    sched = WalkSchedule(0.0, math.pi / 8, 16)
    p0 = walk(sched)[0].at_site(0)
    # row t is the walk after t steps: the first return is at t = 2
    assert polya_number(p0[1:2]) == pytest.approx(0.0, abs=1e-12)
    assert polya_number(p0[1:8]) == pytest.approx(1.0, abs=1e-12)
    assert polya_number(p0[1:]) == pytest.approx(1.0, abs=1e-12)


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


def test_effective_coin_rejects_odd_steps():
    with pytest.raises(ValueError):
        effective_coin_balanced_strings(WalkSchedule(0.0, 0.1, 3))


def test_effective_coin_zero_steps_is_identity():
    sched = WalkSchedule(0.3, 0.2, 0)
    assert np.array_equal(effective_coin_balanced_strings(sched), np.eye(2))
    assert np.max(np.abs(origin_blocks(sched.coins())[0][0] - np.eye(2))) < 1e-15


@given(angle, angle)
@settings(max_examples=20)
def test_effective_coin_matches_string_oracle(theta, omega):
    for convention in StepConvention:
        for steps in range(2, 13, 2):
            ours = effective_coin_balanced_strings(WalkSchedule(theta, omega, steps, convention))
            reference = np.array(oracles.effective_coin_strings(
                theta, omega, steps, one_based=convention is StepConvention.ONE_BASED
            ))
            assert np.max(np.abs(ours - reference)) < 1e-12


@given(angle, angle)
@settings(max_examples=20)
def test_effective_coin_constructions_agree(theta, omega):
    for convention in StepConvention:
        for steps in [*range(2, 13, 2), *range(22, 65, 2)]:
            sched = WalkSchedule(theta, omega, steps, convention)
            from_strings = effective_coin_balanced_strings(sched)
            from_operator = origin_blocks(sched.coins())[0][steps]
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
        blocks = origin_blocks(WalkSchedule(theta, omega, steps).coins())[0]
        ours = _verdict(blocks)[0]
        reference = oracles.is_revival_state_route(theta, omega, steps)
        assert ours == reference == expected


@given(angle, angle, st.sampled_from([2, 4, 6]))
@settings(max_examples=40)
def test_is_revival_operator_matches_state_route(theta, omega, steps):
    blocks = origin_blocks(WalkSchedule(theta, omega, steps).coins())[0]
    ours = _verdict(blocks)[0]
    reference = oracles.is_revival_state_route(theta, omega, steps)
    assert ours == reference


def _blocks(steps, off_origin, origin_block):
    blocks = np.full((2 * steps + 1, 2, 2), off_origin, dtype=np.complex128)
    blocks[steps] = origin_block
    return blocks


def _oracle_verdict(blocks):
    """(revival, complete) of one walk's blocks: the off-origin maximum and ``oracles.phase_equal``."""
    steps = len(blocks) // 2
    off_origin = max((abs(x) for d, block in enumerate(blocks.tolist()) if d != steps
                      for row in block for x in row), default=0.0)
    revival = off_origin <= 1e-10
    phase_equal = oracles.phase_equal(blocks[steps].tolist(), np.eye(2).tolist())
    return revival, revival and steps % 2 == 0 and phase_equal


def test_verdict_decides_revival_and_completeness_at_one_tolerance():
    phase = np.exp(0.7j) * np.eye(2)
    assert _verdict(_blocks(4, 5e-11, phase)) == (True, True)
    # off-origin entries of 5e-9 are no revival, so no complete one either
    assert _verdict(_blocks(4, 5e-9, phase)) == (False, False)
    assert _verdict(_blocks(4, 0.0, np.diag([1.0, 1j]))) == (True, False)
    # an odd step count is never complete
    assert _verdict(_blocks(3, 0.0, np.eye(2))) == (True, False)
    # a batch: each point gets its own answer, that of its own call and of the oracle
    nudge = np.zeros((2, 2))
    nudge[1, 1] = 1.0
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    for steps, origins, expected in [
        (4, [phase + 0.9e-8 * phase * nudge, phase + 1.1e-8 * phase * nudge,  # the phase bound, both ways
             phase + 0.9e-8 * swap, phase + 1.1e-8 * swap,
             swap, np.zeros((2, 2))],  # a zero first entry, a zero block
         [True, False, True, False, False, False]),
        (3, [np.eye(2), phase, swap], [False, False, False]),  # odd T
        (0, [np.eye(2), phase, swap, np.zeros((2, 2))], [True, True, False, False]),
    ]:
        batch = np.array([_blocks(steps, 0.0, origin) for origin in origins])
        revival, complete = _verdict(batch)
        assert revival.shape == complete.shape == (len(origins),)
        assert revival.all() and complete.tolist() == expected
        for k, walked in enumerate(batch):
            assert (revival[k], complete[k]) == _verdict(walked) == _oracle_verdict(walked)
        # more leading axes are batch too
        revival, complete = _verdict(np.stack([batch, batch]))
        assert complete.tolist() == [expected, expected]


@pytest.mark.parametrize("steps", [0, 1, 2, 3, 6, 11])
def test_verdict_of_random_stacks_matches_the_oracle(steps):
    rng = np.random.default_rng(steps)
    count = 400

    def scaled(shape, lo, hi):
        entries = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return entries * 10 ** rng.uniform(lo, hi, (count,) + (1,) * (len(shape) - 1))

    # off-origin entries around REVIVAL_TOL, origin noise around PHASE_EQUAL_TOL
    blocks = scaled((count, 2 * steps + 1, 2, 2), -11.5, -9.5)
    phases = np.exp(2j * np.pi * rng.uniform(size=(count, 1, 1)))
    blocks[:, steps] = phases * np.eye(2) + scaled((count, 2, 2), -9.5, -7.5)
    revival, complete = _verdict(blocks)
    expected = [_oracle_verdict(walked) for walked in blocks]
    assert list(zip(revival.tolist(), complete.tolist())) == expected
    # both answers take each value somewhere, so the bounds were crossed (T = 0 has no
    # off-origin block, so it is always a revival)
    assert {r for r, _ in expected} == ({True} if steps == 0 else {True, False})
    assert steps % 2 or {c for _, c in expected} == {True, False}


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
        assert oracles.phase_equal(report.effective_coin.tolist(), np.eye(2).tolist())


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
        # the Polya number of the returns after steps 1..T, not of the start
        assert report.polya_truncated == pytest.approx(polya_number(oracles.p0_series(theta, omega, steps)), abs=1e-12)
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
    _, final = walk(sched)
    coin_amps = final.amplitudes[lattice.index(0)]
    predicted = report.effective_coin @ CoinVector.symmetric().as_array()
    predicted = predicted / np.linalg.norm(predicted)
    # two coin vectors on the diagonals: equal up to one phase exactly when the vectors are
    assert oracles.phase_equal(np.diag(coin_amps).tolist(), np.diag(predicted).tolist(), tol=1e-10)
    expected = np.array([math.cos(math.pi / 20), 1j * math.sin(math.pi / 20)])
    assert oracles.phase_equal(np.diag(coin_amps).tolist(), np.diag(expected).tolist(), tol=1e-12)


@pytest.mark.parametrize("steps", [0, 1, 48])
def test_classify_walks_the_noiseless_walk_once(monkeypatch, steps):
    # at visibility 1 one walk of three columns, both basis coins and the start coin,
    # gives the blocks, the rows and the final state; below it only the blocks are pure
    shapes = []
    coin_and_shift = evolution._coin_and_shift

    def recording(coins, amps):
        shapes.append(amps.shape)
        return coin_and_shift(coins, amps)

    monkeypatch.setattr(evolution, "_coin_and_shift", recording)
    for visibility, columns in ((1.0, 3), (0.9, 2)):
        shapes.clear()
        classify(WalkSchedule(math.pi / 4, math.pi / 48, steps, visibility=visibility))
        assert shapes == [(2, 2 * steps + 3, columns)] * steps


def test_classify_with_noise_keeps_operator_verdicts():
    clean = classify(WalkSchedule(0.0, math.pi / 8, 8))
    noisy = classify(WalkSchedule(0.0, math.pi / 8, 8, visibility=0.95))
    assert noisy.is_revival and noisy.is_complete
    assert noisy.origin_probability < clean.origin_probability
    assert abs(
        noisy.tv_distance - (1.0 - noisy.origin_probability)
    ) <= 1e-12
