import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rampwalk.analysis import (
    _verdict,
    classify,
    effective_coin_balanced_strings,
    polya_number,
)
from rampwalk import analysis, cli, evolution, states
from rampwalk.coins import StepConvention
from rampwalk.evolution import WalkSchedule
from rampwalk.states import (
    CoinVector,
    Lattice,
    PositionDistribution,
    WalkerCoinPureState,
)

import exact
import oracles
from walks import BASIS_1, distribution, origin_blocks, origin_walk, same_bits, start_state, walk

angle = st.floats(min_value=0.0, max_value=math.pi / 2, allow_nan=False)


def test_tv_distance_extremes():
    lat = Lattice(-1, 1)
    rows = PositionDistribution(lat, np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
    assert rows.tv_from_start()[1] == pytest.approx(1.0, abs=1e-15)
    assert rows.tv_from_start()[0] == rows.tv_from_start()[2] == 0.0


def test_tv_distance_manual_value():
    lat = Lattice(-1, 1)
    rows = PositionDistribution(lat, np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]]))
    assert rows.tv_from_start()[1] == pytest.approx(0.3, abs=1e-15)


@pytest.mark.parametrize("visibility", [1.0, 0.8])
def test_tv_distance_of_a_stack_equals_its_per_row_distances(visibility):
    # each row's distance from the start is its own: the same as in the two-row stack of the start and that row
    sched = WalkSchedule(0.3, 0.2, 9, visibility=visibility)
    distributions, _ = walk(sched)
    rows = distributions.probabilities
    per_row = [PositionDistribution(distributions.lattice, rows[[0, t]]).tv_from_start()[1] for t in range(len(rows))]
    distances = distributions.tv_from_start()
    assert distances.shape == (10,) and distances[0] == 0.0
    assert np.array_equal(distances, per_row)


@given(angle, angle, st.integers(min_value=1, max_value=8))
@settings(max_examples=60)
def test_tv_against_point_mass_equals_one_minus_p0(theta, omega, steps):
    sched = WalkSchedule(theta, omega, steps)
    distributions, _ = walk(sched)
    # row 0 is the point mass at the origin, so every row's distance from it is 1 - p0
    assert np.array_equal(distributions.probabilities[:1], distribution(start_state(steps)).probabilities)
    direct = distributions.tv_from_start()
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
    """(revival, complete) of one walk's blocks: every entry against max(1e-10, T^2 eps), in plain Python."""
    steps = len(blocks) // 2
    tol = max(1e-10, steps * steps * 2.220446049250313e-16)
    rows = blocks.tolist()
    off_origin = max((abs(x) for d, block in enumerate(rows) if d != steps
                      for row in block for x in row), default=0.0)
    (w00, w01), (w10, w11) = rows[steps]
    revival = off_origin <= tol
    return revival, revival and steps % 2 == 0 and max(abs(w01), abs(w10), abs(w00 - w11)) <= tol


def test_verdict_decides_revival_and_completeness_at_one_tolerance():
    phase = np.exp(0.7j) * np.eye(2)
    assert _verdict(_blocks(4, 5e-11, phase)) == (True, True)
    # off-origin entries of 5e-9 are no revival, so no complete one either
    assert _verdict(_blocks(4, 5e-9, phase)) == (False, False)
    assert _verdict(_blocks(4, 0.0, np.diag([1.0, 1j]))) == (True, False)
    # an odd step count is never complete
    assert _verdict(_blocks(3, 0.0, np.eye(2))) == (True, False)
    # a batch: each point gets its own answer, that of its own call and of the oracle
    tol = 1e-10  # max(1e-10, T^2 eps) below T = 671
    nudge = np.zeros((2, 2))
    nudge[1, 1] = 1.0
    upper, lower = np.triu(np.ones((2, 2)), 1), np.tril(np.ones((2, 2)), -1)
    swap = upper + lower
    for steps, origins, expected in [
        (4, [phase + 0.9 * tol * phase * nudge, phase + 1.1 * tol * phase * nudge,  # |W00 - W11|, both ways
             phase + 0.9 * tol * upper, phase + 1.1 * tol * upper,  # |W01|
             phase + 0.9 * tol * lower, phase + 1.1 * tol * lower,  # |W10|
             phase + 0.9 * tol * swap, phase + 1.1 * tol * swap,
             swap, np.zeros((2, 2))],  # a zero first entry; a zero block, which no walk yields
         [True, False, True, False, True, False, True, False, False, True]),
        (3, [np.eye(2), phase, swap], [False, False, False]),  # odd T
        (0, [np.eye(2), phase, swap, np.zeros((2, 2))], [True, True, False, True]),
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


def test_verdict_tolerance_grows_as_the_square_of_the_step_count():
    # at T = 2000 the bound is T^2 eps = 8.9e-10, for the off-origin blocks and W_T[0] alike
    steps = 2000
    tol = steps * steps * 2.220446049250313e-16
    phase = np.exp(0.7j) * np.eye(2)
    upper = np.triu(np.ones((2, 2)), 1)
    batch = np.array([
        _blocks(steps, 0.9 * tol, phase),
        _blocks(steps, 1.1 * tol, phase),
        _blocks(steps, 0.0, phase + 0.9 * tol * upper),
        _blocks(steps, 0.0, phase + 1.1 * tol * upper),
    ])
    revival, complete = _verdict(batch)
    assert revival.tolist() == [True, False, True, True]
    assert complete.tolist() == [True, False, True, False]
    for k, walked in enumerate(batch):
        assert (revival[k], complete[k]) == _oracle_verdict(walked)


@pytest.mark.parametrize("steps", [0, 1, 2, 3, 6, 11])
def test_verdict_of_random_stacks_matches_the_oracle(steps):
    rng = np.random.default_rng(steps)
    count = 400

    def scaled(shape, lo, hi):
        entries = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return entries * 10 ** rng.uniform(lo, hi, (count,) + (1,) * (len(shape) - 1))

    # off-origin entries and origin noise, both around the tolerance 1e-10
    blocks = scaled((count, 2 * steps + 1, 2, 2), -11.5, -9.5)
    phases = np.exp(2j * np.pi * rng.uniform(size=(count, 1, 1)))
    blocks[:, steps] = phases * np.eye(2) + scaled((count, 2, 2), -11.5, -9.5)
    revival, complete = _verdict(blocks)
    expected = [_oracle_verdict(walked) for walked in blocks]
    assert list(zip(revival.tolist(), complete.tolist())) == expected
    # both answers take each value somewhere, so the bounds were crossed (T = 0 has no
    # off-origin block, so it is always a revival)
    assert {r for r, _ in expected} == ({True} if steps == 0 else {True, False})
    assert steps % 2 or {c for _, c in expected} == {True, False}


def test_classify_revives_past_the_fixed_tolerance():
    # T = 3200: rounding leaves off-origin entries above 1e-10 at this complete revival of
    # the law, which T^2 eps (2.3e-9) covers
    steps, point = 3200, Fraction(1599, 3200)
    assert exact.revival_law(steps, 0)[point] is True
    report = classify(WalkSchedule(0.0, math.pi * point.numerator / point.denominator, steps))
    assert report.is_revival and report.is_complete
    assert report.origin_probability == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("convention", list(StepConvention))
@pytest.mark.parametrize("theta_quarters", [0, 1])
def test_every_revival_of_the_law_has_the_closed_form_effective_coin(theta_quarters, convention):
    # W_T[0] = lam rx(s T omega / 2) = lam (cos(T omega) I + i s sin(T omega) X), lam a phase,
    # one-based s = -1 at theta = 0 and +1 at pi/4; so a revival is complete exactly when
    # q | T, and overlap_initial is cos^2(T omega), since <c|X|c> = 0 for the symmetric start c
    one_based = convention is StepConvention.ONE_BASED
    theta, sign = theta_quarters * math.pi / 4, 1 if theta_quarters else -1
    pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    for steps in range(2, 49, 2):
        for point, complete in exact.revival_law(steps, theta_quarters, one_based).items():
            omega = math.pi * point.numerator / point.denominator
            report = classify(WalkSchedule(theta, omega, steps, convention))
            angle = steps * omega
            assert report.is_revival
            assert report.is_complete == complete == (steps % point.denominator == 0)
            assert abs(report.overlap_initial - math.cos(angle) ** 2) <= 1e-12
            if one_based:
                rotation = math.cos(angle) * np.eye(2) + 1j * sign * math.sin(angle) * pauli_x
                lam = np.trace(rotation.conj().T @ report.effective_coin) / 2
                assert abs(abs(lam) - 1.0) <= 1e-9
                assert np.abs(report.effective_coin - lam * rotation).max() <= 1e-9


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


def recording(monkeypatch, module, name, note):
    """Wrap ``module.name`` so each call appends ``note(*args)`` to the returned list first."""
    calls = []
    wrapped = getattr(module, name)

    def record(*args):
        calls.append(note(*args))
        return wrapped(*args)

    monkeypatch.setattr(module, name, record)
    return calls


@pytest.mark.parametrize("steps", [0, 1, 48])
def test_classify_walks_the_noiseless_walk_once(monkeypatch, steps):
    # one walk of three columns, both basis coins and the start coin, at every visibility:
    # it gives the blocks, and at visibility 1 the rows and the final state too, from one
    # coin stack and with no class step; below it one dephased walk gives the rows
    built = recording(monkeypatch, evolution, "coin_at_step", lambda *args: args)
    shapes = recording(monkeypatch, evolution, "_coin_and_shift", lambda coins, amps, out: amps.shape)
    classes = recording(monkeypatch, evolution, "_class_steps", lambda *args: args)
    for visibility, dephased in ((1.0, 0), (0.9, 1)):
        for calls in (built, shapes, classes):
            calls.clear()
        classify(WalkSchedule(math.pi / 4, math.pi / 48, steps, visibility=visibility))
        # step k + 1 grows the light cone's 2k + 1 sites one site each way
        assert shapes == [(2, 2 * k + 1, 3) for k in range(steps)]
        assert len(built) == 1 and len(classes) == dephased


def test_classify_with_noise_keeps_operator_verdicts():
    clean = classify(WalkSchedule(0.0, math.pi / 8, 8))
    noisy = classify(WalkSchedule(0.0, math.pi / 8, 8, visibility=0.95))
    assert noisy.is_revival and noisy.is_complete
    assert noisy.origin_probability < clean.origin_probability
    assert abs(
        noisy.tv_distance - (1.0 - noisy.origin_probability)
    ) <= 1e-12


def same_report(a, b):
    """Every field of two reports equal bit for bit, NaN and signed zeros included."""
    for name in ("origin_probability", "tv_distance", "polya_truncated", "overlap_initial", "overlap_predicted"):
        assert same_bits(np.float64(getattr(a, name)), np.float64(getattr(b, name))), name
    assert (a.is_revival, a.is_complete) == (b.is_revival, b.is_complete)
    assert (a.effective_coin is None) == (b.effective_coin is None)
    if a.effective_coin is not None:
        assert same_bits(a.effective_coin, b.effective_coin)
    assert a.distributions.lattice == b.distributions.lattice
    assert same_bits(a.distributions.probabilities, b.distributions.probabilities)
    assert type(a.final) is type(b.final) and a.final.lattice == b.final.lattice
    state = "amplitudes" if isinstance(a.final, WalkerCoinPureState) else "matrix"
    assert same_bits(getattr(a.final, state), getattr(b.final, state))


def test_each_sweep_report_is_the_one_visibility_report(monkeypatch):
    rng = np.random.default_rng(53)
    for i in range(24):
        steps = int(rng.integers(0, 33))
        theta, omega = rng.uniform(-3.0, 3.0, 2)
        if i % 3 == 0:  # a family point, which revives
            theta, omega = math.pi / 4 * (i % 2), math.pi / max(2 * steps, 2)
        sched = WalkSchedule(theta, omega, steps, list(StepConvention)[i % 2], visibility=0.3)
        visibilities = [1.0, float(rng.uniform()), 0.0, 1.0, 0.93, 0.93]
        reports = list(analysis._classify_each(sched, visibilities))
        assert len(reports) == len(visibilities)
        for report, v in zip(reports, visibilities):
            same_report(report, classify(sched.with_visibility(v)))
    # no visibilities, no walk
    built = recording(monkeypatch, evolution, "coin_at_step", lambda *args: args)
    assert list(analysis._classify_each(sched, [])) == []
    assert built == []


def test_a_sweep_too_large_for_memory_fails_before_any_step(monkeypatch):
    # numpy refuses the rows without allocating, before the coin stack is built and
    # before the noiseless walk, whose steps would grow to a 2T + 1-site array; the
    # coin stack, if built, is a (T, 2, 2) view of one coin
    stepped = recording(monkeypatch, evolution, "_coin_and_shift", lambda coins, amps, out: amps.shape)
    coin = WalkSchedule(0.0, math.pi / 8, 1).coins()[0]
    built = []

    def view(schedule):
        built.append(schedule.steps)
        return np.broadcast_to(coin, (schedule.steps, 2, 2))

    monkeypatch.setattr(WalkSchedule, "coins", view)
    for visibilities in ([1.0], [0.5], [0.5, 1.0]):
        with pytest.raises(MemoryError, match=r"shape \(10000001, 20000001\)"):
            list(analysis._classify_each(WalkSchedule(0.0, math.pi / 8, 10**7), visibilities))
    assert built == [] and stepped == []


def test_a_noise_sweep_walks_the_noiseless_walk_once(monkeypatch, tmp_path):
    # the README's sweep: T steps of one three-column walk, and one dephased walk
    # for each of the four visibilities below 1
    shapes = recording(monkeypatch, evolution, "_coin_and_shift", lambda coins, amps, out: amps.shape)
    dephased = recording(monkeypatch, analysis, "_density_walk", lambda coins, visibility: visibility)
    argv = ["noise-sweep", "--theta", "0", "--omega", "1/8", "--steps", "8",
            "--visibilities", "1,0.996,0.99,0.95,0.9", "--json-out", str(tmp_path / "sweep.json")]
    assert cli.main(argv) == 0
    assert shapes == [(2, 2 * k + 1, 3) for k in range(8)]
    assert dephased == [0.996, 0.99, 0.95, 0.9]


def test_a_noise_sweep_holds_one_dephased_state_at_a_time(monkeypatch, tmp_path):
    # each report is reduced to its row before the next visibility is walked, so at
    # every dephased walk at most the previous walk's final state is still alive
    finals, alive = [], []
    density_walk = analysis._density_walk

    def tracked(coins, visibility):
        alive.append(sum(ref() is not None for ref in finals))
        distributions, final = density_walk(coins, visibility)
        finals.append(weakref.ref(final))
        return distributions, final

    monkeypatch.setattr(analysis, "_density_walk", tracked)
    argv = ["noise-sweep", "--theta", "0", "--omega", "1/8", "--steps", "8",
            "--visibilities", "0.99,0.95,0.9,0.5,0", "--json-out", str(tmp_path / "sweep.json")]
    assert cli.main(argv) == 0
    assert len(alive) == 5 and max(alive) <= 1


def seeded_schedules(rng, count, max_steps, visibility=lambda i: 1.0):
    """`count` random schedules with T in [0, max_steps], both conventions, every third on a family point."""
    for i in range(count):
        steps = int(rng.integers(0, max_steps + 1))
        theta, omega = rng.uniform(-3.0, 3.0, 2)
        if i % 3 == 0:  # a family point, which revives
            theta, omega = math.pi / 4 * (i % 4), math.pi / max(2 * steps, 2)
        yield WalkSchedule(theta, omega, steps, list(StepConvention)[i % 2], visibility(i))


def test_classify_rows_and_final_state_are_the_per_step_formula_bit_for_bit():
    # the pure walk squares and sums its start column's magnitudes a block of steps at a
    # time; every row must be the per-step |a+|^2 + |a-|^2 on the light cone, zero off it,
    # and the final state the start column as it is, signed zeros included
    block = analysis.ROW_BLOCK
    boundaries = [block - 1, block, block + 1, 2 * block]
    schedules = list(seeded_schedules(np.random.default_rng(61), 200, 64))
    schedules += [WalkSchedule(0.3, 0.2, steps, convention) for steps in boundaries for convention in StepConvention]
    for sched in schedules:
        report = classify(sched)
        walked = origin_walk(sched.coins(), np.hstack((BASIS_1, CoinVector.symmetric().as_array()[:, None])))
        # step t's 2t + 1 sites -t..t, padded to the 2T + 1 sites of the lattice
        pads = [sched.steps - t for t in range(sched.steps + 1)]
        rows = [np.pad(np.abs(a[0, :, 2]) ** 2 + np.abs(a[1, :, 2]) ** 2, pad) for a, pad in zip(walked, pads)]
        assert same_bits(report.distributions.probabilities, np.array(rows))
        assert same_bits(report.final.amplitudes, walked[-1][:, :, 2].T)


@pytest.mark.parametrize("visibility", [1.0, 0.9])
def test_the_report_lattice_is_the_light_cone(visibility):
    # a T-step walk from the origin lights the sites -T..T, and the report holds no other:
    # for a generic schedule the last row reaches both ends
    for steps in range(65):
        report = classify(WalkSchedule(0.37, 0.21, steps, visibility=visibility))
        assert report.distributions.lattice == report.final.lattice == Lattice(-steps, steps)
        last = report.distributions.probabilities[steps]
        assert last[0] > 0.0 and last[-1] > 0.0, steps


def test_each_report_checks_its_reduced_coin_state_once(monkeypatch):
    # the dephased final state, its class block on 17 sites (34 x 34), and one 2 x 2 reduced
    # coin state per report; the overlaps read that checked state without a check of their own
    checked = recording(monkeypatch, states, "_check_density", lambda rho, label: rho.shape)
    reports = list(analysis._classify_each(WalkSchedule(0.0, math.pi / 8, 16), [1.0, 0.9]))
    assert len(reports) == 2
    assert sorted(checked) == [(2, 2), (2, 2), (34, 34)]
    # a library caller's reduced coin state is checked once, and the overlap reads it as is
    checked.clear()
    for report in reports:
        rho = states.reduced_coin_state(report.final)
        assert states._overlap(rho, CoinVector.symmetric()) == report.overlap_initial
    assert checked == [(2, 2), (2, 2)]


def test_classify_distance_is_the_last_entry_of_the_stack_series():
    # the report's distance comes from the last row alone
    rng = np.random.default_rng(67)
    for sched in seeded_schedules(rng, 400, 48, lambda i: 1.0 if i % 3 else float(rng.uniform())):
        report = classify(sched)
        series = report.distributions.tv_from_start()
        assert same_bits(np.float64(report.tv_distance), series[-1])


def test_classify_memory_peaks_near_its_rows():
    # beside its (T + 1, n) rows the pure walk holds its ring of ROW_BLOCK slots and a block
    # of magnitudes; a (T + 1, n) difference or a whole-walk magnitude stack would not fit
    sched = WalkSchedule(math.pi / 4, math.pi / 800, 400)
    classify(WalkSchedule(0.1, 0.2, 4))  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        report = classify(sched)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.distributions.probabilities.shape == (401, Lattice.for_steps(400).size)
    assert peak <= 1.6 * report.distributions.probabilities.nbytes
