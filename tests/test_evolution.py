import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rampwalk import analysis, cli, evolution, states
from rampwalk.analysis import classify
from rampwalk.coins import StepConvention, coin_at_step
from rampwalk.evolution import (
    WalkSchedule,
    bisect_visibility,
)
from rampwalk.states import (
    START_COIN,
    WalkerCoinDensityMatrix,
    WalkerCoinPureState,
    reduced_coin_state,
)

import oracles
import walks
from walks import (
    distribution,
    fresh_step,
    full_lattice_step,
    grown_step,
    origin_blocks,
    origin_walk,
    same_bits,
    start_state,
)

angle = st.floats(min_value=0.0, max_value=math.pi / 2, allow_nan=False)


def psd_checked(walk):
    """(distributions, final) of `walk`, with an independent PSD check of a final density matrix."""
    distributions, final = walk
    if isinstance(final, WalkerCoinDensityMatrix):
        assert float(np.min(np.linalg.eigvalsh(final.matrix))) >= -1e-10
    return distributions, final


def walk(schedule):
    return psd_checked(walks.walk(schedule))


def density_walk(schedule):
    """The dephased walk of `walk` at every visibility, 1 included, as the calibration walks it."""
    return psd_checked(evolution._density_walk(schedule.coins(), schedule.visibility))


def states_after_each_step(schedule, walk=walk):
    """The state after each step: the final state of each prefix walk, on its own light cone."""
    return [walk(replace(schedule, steps=k))[1] for k in range(1, schedule.steps + 1)]


def density_from_pure(state):
    """The rank-one density matrix |psi><psi| (2n, 2n) of a pure state, flattened index 2 * site_index + coin."""
    vec = state.amplitudes.reshape(-1)
    return np.outer(vec, vec.conj())


def shared(values, steps):
    """The entries of per-site `values` on a light cone at the sites -steps..steps of the smaller cone."""
    middle = values.shape[-1] // 2
    return values[..., middle - steps : middle + steps + 1]


def oracle_amplitudes_to_array(state_dict: dict, steps: int) -> np.ndarray:
    """The oracle's amplitudes on the sites -steps..steps, site x at index x + steps."""
    amps = np.zeros((2 * steps + 1, 2), dtype=np.complex128)
    for site, (plus, minus) in state_dict.items():
        amps[site + steps, 0] = plus
        amps[site + steps, 1] = minus
    return amps


def test_schedule_validation():
    WalkSchedule(0.0, 0.0, 0)  # zero steps is a valid empty walk
    with pytest.raises(ValueError):
        WalkSchedule(0.0, 0.0, -1)
    with pytest.raises(ValueError):
        WalkSchedule(math.nan, 0.0, 2)
    with pytest.raises(ValueError):
        WalkSchedule(0.0, 0.0, 2, visibility=1.5)
    with pytest.raises(ValueError):
        WalkSchedule(0.0, 0.0, 2, visibility=-0.1)
    for convention in ("one-based", "zero-based", None):
        with pytest.raises(ValueError, match="StepConvention"):
            WalkSchedule(0.0, 0.0, 2, convention=convention)


@pytest.mark.parametrize("steps", [2.5, 4.0, True, "4", None])
def test_schedule_rejects_non_integer_step_counts(steps):
    with pytest.raises(ValueError, match="integer"):
        WalkSchedule(0.0, 0.1, steps)


def test_a_coin_stack_too_large_for_memory_names_its_shape():
    with pytest.raises(MemoryError, match=r"shape \(1000000000000000,\)"):
        WalkSchedule(0.0, 0.1, 10**15).coins()


def test_schedule_takes_numpy_step_counts():
    numpy_steps = WalkSchedule(0.0, math.pi / 8, np.int64(8))
    int_steps = WalkSchedule(0.0, math.pi / 8, 8)
    assert np.array_equal(origin_blocks(numpy_steps.coins())[0], origin_blocks(int_steps.coins())[0])
    _, final = walk(numpy_steps)
    assert np.array_equal(final.amplitudes, walk(int_steps)[1].amplitudes)


def test_pure_start_below_unit_visibility_walks_its_density_matrix():
    # the revival at (theta 0, omega pi/8, T 8) is lost once the coin dephases
    sched = WalkSchedule(0.0, math.pi / 8, 8, visibility=0.9)
    distributions, final = walk(sched)
    assert isinstance(final, WalkerCoinDensityMatrix)
    assert np.array_equal(final.matrix, density_walk(sched)[1].matrix)
    assert distributions.at_site(0)[-1] < 1.0 - 1e-3
    pure_distributions, pure_final = walk(sched.with_visibility(1.0))
    assert isinstance(pure_final, WalkerCoinPureState)
    assert pure_distributions.at_site(0)[-1] == pytest.approx(1.0, abs=1e-12)


def test_one_step_moves_symmetric_coin_down_at_ramp_eighth_pi():
    # rx(pi/8) sends the symmetric coin onto the minus branch exactly
    sched = WalkSchedule(0.0, math.pi / 8, 1)
    _, final = walk(sched)
    assert distribution(final)[0] == pytest.approx(1.0, abs=1e-12)  # site -1 of -1..1


@given(angle, angle, st.integers(min_value=1, max_value=6))
@settings(max_examples=120)
def test_pure_walk_matches_dict_oracle(theta, omega, steps):
    sched = WalkSchedule(theta, omega, steps)
    trajectory = states_after_each_step(sched)
    oracle_trajectory = oracles.walk_states(theta, omega, steps)
    for k, (ours, reference) in enumerate(zip(trajectory, oracle_trajectory, strict=True), start=1):
        expected = oracle_amplitudes_to_array(reference, k)
        assert np.max(np.abs(ours.amplitudes - expected)) < 1e-10


@given(angle, angle, st.integers(min_value=1, max_value=8))
@settings(max_examples=120)
def test_pure_walk_preserves_norm(theta, omega, steps):
    sched = WalkSchedule(theta, omega, steps)
    for state in states_after_each_step(sched):
        norm_sq = float(np.sum(np.abs(state.amplitudes) ** 2))
        assert abs(norm_sq - 1.0) < 1e-12


def test_sixteen_step_walk_matches_oracle_end_to_end():
    sched = WalkSchedule(0.0, math.pi / 8, 16)
    _, final = walk(sched)
    expected = oracle_amplitudes_to_array(
        oracles.walk_states(0.0, math.pi / 8, 16)[-1], 16
    )
    assert np.max(np.abs(final.amplitudes - expected)) < 1e-10


def test_zero_based_convention_changes_the_walk():
    # one-based ramping revives at (theta 0, omega pi/8, T 2); zero-based does not
    one = WalkSchedule(0.0, math.pi / 8, 2)
    zero = WalkSchedule(0.0, math.pi / 8, 2, convention=StepConvention.ZERO_BASED)
    p_one = walk(one)[0].at_site(0)[-1]
    p_zero = walk(zero)[0].at_site(0)[-1]
    assert p_one == pytest.approx(1.0, abs=1e-12)
    assert p_zero == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("visibility", [1.0, 0.9])
def test_sites_off_the_light_cone_stay_empty_over_long_walk(visibility):
    # no walk checks its reach: after k steps everything lies within k of the origin,
    # on its light cone -k..k with no site to spare, and row j of the stack within j
    sched = WalkSchedule(0.0, math.pi / 8, 16, visibility=visibility)
    for k, state in enumerate(states_after_each_step(sched), start=1):
        probabilities = distribution(state)
        assert probabilities.shape == (2 * k + 1,)
        assert float(probabilities.sum()) == pytest.approx(1.0, abs=1e-12)
    rows, _ = walk(sched)
    sites = np.arange(-16, 17)
    for j, row in enumerate(rows.probabilities):
        assert not np.any(row[np.abs(sites) > j])


def test_translation_covariance():
    # the coin is the same on every site: a start 3 sites off the origin walks
    # to the final state of classify's walk moved by 3 sites
    steps, offset = 4, 3
    sched = WalkSchedule(0.4, 0.2, steps)
    wide = steps + offset  # the sites -wide..wide, site x at index x + wide
    amps = np.zeros((2, 2 * wide + 1, 1), dtype=np.complex128)
    amps[:, offset + wide, 0] = START_COIN
    for coin in sched.coins():
        # the growing window cropped to the fixed lattice
        amps = grown_step(coin.reshape(4).tolist(), amps)[..., 1:-1, :]
    _, final = walk(sched)
    moved = np.zeros((2 * wide + 1, 2), dtype=np.complex128)
    moved[-steps + offset + wide : steps + offset + wide + 1] = final.amplitudes
    assert np.array_equal(amps[..., 0].T, moved)


def test_origin_blocks_zero_steps_is_identity():
    blocks = origin_blocks(WalkSchedule(0.3, 0.1, 0).coins())[0]
    assert np.array_equal(blocks, np.eye(2)[None])


@given(angle, angle, st.integers(min_value=1, max_value=5))
@settings(max_examples=60)
def test_origin_blocks_match_the_dict_oracle(theta, omega, steps):
    # column j of the block at displacement d is the walk of basis coin j from the origin
    blocks = origin_blocks(WalkSchedule(theta, omega, steps).coins())[0]
    assert blocks.shape == (2 * steps + 1, 2, 2)
    for column, basis in enumerate(((1.0, 0.0), (0.0, 1.0))):
        final = oracles.walk_states(theta, omega, steps, basis)[-1]
        for d in range(-steps, steps + 1):
            plus, minus = final.get(d, (0.0, 0.0))
            assert abs(blocks[d + steps, 0, column] - plus) < 1e-10
            assert abs(blocks[d + steps, 1, column] - minus) < 1e-10


@given(angle, angle, st.integers(min_value=1, max_value=8))
@settings(max_examples=60)
def test_origin_blocks_vanish_off_the_walk_parity(theta, omega, steps):
    # after T steps the walker sits only at displacements d with d = T mod 2,
    # so the origin block of an odd-length walk is zero
    blocks = origin_blocks(WalkSchedule(theta, omega, steps).coins())[0]
    assert not np.any(blocks[1::2])
    assert np.any(blocks[::2])
    if steps % 2:
        assert not np.any(blocks[steps])


def test_density_at_unit_visibility_matches_pure():
    sched = WalkSchedule(0.0, math.pi / 8, 8)
    pure_states = states_after_each_step(sched)
    mixed_states = states_after_each_step(sched, density_walk)
    for pure, mixed in zip(pure_states, mixed_states, strict=True):
        p = distribution(pure)
        q = distribution(mixed)
        assert np.max(np.abs(p - q)) < 1e-10
        assert np.max(
            np.abs(reduced_coin_state(pure) - reduced_coin_state(mixed))
        ) < 1e-10


@pytest.mark.parametrize("convention", list(StepConvention))
@given(
    angle,
    angle,
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=60)
def test_density_walk_matches_dict_oracle(convention, theta, omega, visibility, steps):
    sched = WalkSchedule(theta, omega, steps, convention, visibility)
    distributions, final = density_walk(sched)
    reference = oracles.density_walk(
        theta, omega, steps, visibility, one_based=convention is StepConvention.ONE_BASED
    )
    # every row of the stack after the start, on every site -T..T, site x at index x + T
    for row, rho in zip(distributions.probabilities[1:], reference, strict=True):
        expected = np.zeros(2 * steps + 1)
        for site, p in oracles.density_position_probabilities(rho).items():
            expected[site + steps] = p
        assert np.max(np.abs(row - expected)) < 1e-10
    # and every entry of the final (2n, 2n) matrix
    expected = np.zeros_like(final.matrix)
    for ((x, i), (y, j)), value in reference[-1].items():
        expected[2 * (x + steps) + i, 2 * (y + steps) + j] = value
    assert np.max(np.abs(final.matrix - expected)) < 1e-10


@pytest.mark.parametrize("convention", list(StepConvention))
@pytest.mark.parametrize("visibility", [0.0, 0.5, 0.93, 1.0])
def test_dephased_state_is_its_class_block_bit_for_bit(convention, visibility):
    # the final state holds the walk's last class block on the sites -T, -T + 2, ..., T; its
    # dense matrix is the scatter the walk once built, and its reduced coin state the trace of
    # that whole matrix, bit for bit, signed zeros included
    rng = np.random.default_rng(71)
    for steps in range(65):
        theta, omega = rng.uniform(-3.0, 3.0, 2)
        sched = WalkSchedule(theta, omega, steps, convention, visibility)
        _, final = evolution._density_walk(sched.coins(), visibility)
        for w in evolution._class_steps(evolution._origin_block(), sched.coins(), [visibility]):
            pass
        assert same_bits(final.block, w[..., 0])
        dense = walks.scatter(steps, w[..., 0])
        assert same_bits(final.matrix, dense), steps
        assert same_bits(reduced_coin_state(final), walks.dense_reduced_coin(dense)), steps


@given(
    angle,
    angle,
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=40)
def test_dephasing_never_increases_purity(theta, omega, visibility, steps):
    sched = WalkSchedule(theta, omega, steps, visibility=visibility)
    previous = 1.0
    for state in states_after_each_step(sched, density_walk):
        blocks = state.matrix
        current = float(np.real(np.trace(blocks @ blocks)))
        assert current <= previous + 1e-10
        previous = current


def test_full_dephasing_return_probability_formula():
    # with theta 0 and visibility 0 the two-step return probability is sin(4 omega)^2
    for omega in (math.pi / 8, math.pi / 10, 3.0 * math.pi / 16):
        sched = WalkSchedule(0.0, omega, 2, visibility=0.0)
        p0 = walk(sched)[0].at_site(0)[-1]
        assert p0 == pytest.approx(math.sin(4.0 * omega) ** 2, abs=1e-12)


def coin_purity(state):
    """tr(rho^2) of the reduced coin state."""
    rho = reduced_coin_state(state)
    return float(np.real(np.trace(rho @ rho)))


def test_reduced_coin_purity_series_at_flagship_point():
    sched = WalkSchedule(0.0, math.pi / 8, 4)
    values = [coin_purity(state) for state in states_after_each_step(sched)]
    expected = [1.0, 1.0, 0.5, 0.5]
    assert np.max(np.abs(np.array(values) - np.array(expected))) < 1e-12


def test_reduced_coin_purity_strictly_between_half_and_one():
    sched = WalkSchedule(0.0, math.pi / 10, 4)
    _, final = walk(sched)
    value = coin_purity(final)
    assert 0.5 + 1e-3 < value < 1.0 - 1e-3


def test_bisect_visibility_recovers_known_value():
    sched = WalkSchedule(0.0, math.pi / 8, 8)
    target = walk(sched.with_visibility(0.93))[0].at_site(0)[-1]
    visibility, achieved = bisect_visibility(sched, target, tol=1e-6)
    assert abs(achieved - target) <= 1e-6
    assert abs(visibility - 0.93) < 1e-3


def test_bisect_visibility_rejects_unbracketed_target():
    sched = WalkSchedule(0.0, math.pi / 8, 8)
    with pytest.raises(ValueError, match="not bracketed"):
        bisect_visibility(sched, 0.1)
    # a walk of no steps returns with certainty at every visibility
    with pytest.raises(ValueError, match="at least one step"):
        bisect_visibility(replace(sched, steps=0), 1.0)


def test_bisect_visibility_refuses_an_impossible_target_before_any_walk(monkeypatch, capsys):
    # targets of exactly 0 and 1 stay valid: an odd walk never returns, a complete revival always does
    assert bisect_visibility(WalkSchedule(0.3, 0.2, 7), 0.0) == (0.0, 0.0)
    visibility, p0 = bisect_visibility(WalkSchedule(0.0, math.pi / 8, 8), 1.0)
    assert visibility == 1.0 and abs(p0 - 1.0) <= 1e-4
    # a NaN, infinite or out-of-range target is refused by name before the memory guards,
    # the coin stack and any probe, so a T = 800 calibration fails at once
    def walked(*args):
        raise AssertionError("a walk was started")

    monkeypatch.setattr(evolution, "_probe_origin_probability", walked)
    monkeypatch.setattr(WalkSchedule, "coins", walked)
    sched = WalkSchedule(0.0, math.pi / 8, 800)
    for target in (math.nan, math.inf, -math.inf, -1e-12, 1.0 + 1e-12, 2.0):
        with pytest.raises(ValueError, match=f"target origin probability {re.escape(str(target))} "):
            bisect_visibility(sched, target)
    argv = ["noise-sweep", "--theta", "0", "--omega", "1/8", "--steps", "800", "--visibilities", "", "--target-p0", "nan"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "rampwalk: error: target origin probability nan lies outside [0, 1]\n"


def test_bisect_visibility_refuses_a_negative_or_nan_tolerance(monkeypatch):
    # no probe could meet such a tolerance: refused by name before the memory guards, the
    # coin stack and any probe, so even a walk far too large for memory fails with it
    def walked(*args):
        raise AssertionError("a walk was started")

    with monkeypatch.context() as patched:
        patched.setattr(evolution, "_probe_origin_probability", walked)
        patched.setattr(WalkSchedule, "coins", walked)
        for steps in (16, 10**15):
            for tol in (math.nan, -1e-300, -1.0, -math.inf):
                with pytest.raises(ValueError, match="tolerance"):
                    bisect_visibility(WalkSchedule(0.0, math.pi / 8, steps), 0.5, tol)
    # tol = 0 still stands: a target an end of [0, 1] meets exactly is found
    sched = WalkSchedule(0.37, math.pi / 9, 16)
    for visibility in (0.0, 1.0):
        p0 = evolution._density_walk(sched.coins(), visibility)[0].at_site(0)[-1]
        assert bisect_visibility(sched, p0, 0.0) == (visibility, p0)


def oracle_rows(schedule):
    """The oracle's distributions on -T..T after 0, 1, ..., T steps of `schedule`, as a (T + 1, 2T + 1) stack."""
    one_based = schedule.convention is StepConvention.ONE_BASED
    walked = (schedule.theta, schedule.omega, schedule.steps)
    if schedule.visibility == 1.0:
        pure = oracles.walk_states(*walked, one_based=one_based)
        after = [{x: abs(plus) ** 2 + abs(minus) ** 2 for x, (plus, minus) in state.items()} for state in pure]
    else:
        mixed = oracles.density_walk(*walked, schedule.visibility, one_based=one_based)
        after = [oracles.density_position_probabilities(rho) for rho in mixed]
    plus, minus = oracles.SYMMETRIC
    rows = np.zeros((schedule.steps + 1, 2 * schedule.steps + 1))
    for row, probabilities in zip(rows, [{0: abs(plus) ** 2 + abs(minus) ** 2}, *after], strict=True):
        for site, p in probabilities.items():
            row[site + schedule.steps] = p
    return rows


def assert_same_walk(schedule, distributions, final, states):
    # row t is the walk after t steps: row 0 the oracle's start, row t within 1e-12
    # of the oracle after t steps, and bit for bit the final state of the t-step
    # prefix walk, which lives on its light cone -t..t: compare on its sites, and
    # nothing lies outside them
    rows = distributions.probabilities
    assert rows.shape == (schedule.steps + 1, 2 * schedule.steps + 1) and len(states) == schedule.steps
    expected = oracle_rows(schedule)
    assert np.array_equal(rows[0], expected[0])
    assert np.max(np.abs(rows - expected)) < 1e-12
    for t, (row, state) in enumerate(zip(rows[1:], states, strict=True), start=1):
        inside = shared(row, t)
        assert np.array_equal(inside, distribution(state))
        assert np.count_nonzero(row) == np.count_nonzero(inside)
    assert type(final) is type(states[-1])
    if isinstance(final, WalkerCoinPureState):
        assert np.array_equal(final.amplitudes, states[-1].amplitudes)
    else:
        assert np.array_equal(final.matrix, states[-1].matrix)


@pytest.mark.parametrize("convention", list(StepConvention))
@pytest.mark.parametrize(
    "theta, omega, steps",
    [
        (0.3, 0.2, 1),
        (0.3, 0.2, 2),
        (0.3, 0.2, 5),
        (math.pi / 4, math.pi / 10, 8),
        (1.1, 0.7, 17),
        (0.0, math.pi / 8, 48),
    ],
)
def test_walk_matches_its_prefix_walks(theta, omega, steps, convention):
    sched = WalkSchedule(theta, omega, steps, convention)
    # at visibility 1 classify takes the pure walk, below it the dephased walk
    for visibility in (1.0, 0.9):
        noisy = sched.with_visibility(visibility)
        assert_same_walk(noisy, *walk(noisy), states_after_each_step(noisy))
    # the dephased walk at visibility 1, where the calibration takes it too
    assert_same_walk(sched, *density_walk(sched), states_after_each_step(sched, density_walk))


@pytest.mark.parametrize("convention", list(StepConvention))
def test_walk_without_steps_returns_start(convention):
    start = start_state(0)
    sched = WalkSchedule(0.3, 0.2, 0, convention)
    # the stack of a walk of no steps is its one row, the start
    one_row = oracle_rows(sched)
    assert one_row.shape == (1, 1)
    for visibility in (1.0, 0.9):
        report = classify(sched.with_visibility(visibility))
        assert np.array_equal(report.distributions.probabilities, one_row)
        assert report.tv_distance == 0.0 and report.polya_truncated == 0.0
        assert report.origin_probability == one_row[0, 0]
    distributions, final = walk(sched)
    assert isinstance(final, WalkerCoinPureState)
    assert np.array_equal(final.amplitudes, start.amplitudes)
    for distributions, final in (walk(sched.with_visibility(0.9)), density_walk(sched)):
        assert np.array_equal(distributions.probabilities, one_row)
        assert isinstance(final, WalkerCoinDensityMatrix)
        assert np.array_equal(final.matrix, density_from_pure(start))


def test_walk_memory_does_not_grow_with_trajectory():
    # keeping all 64 density matrices of this walk takes about 73 MB
    sched = WalkSchedule(0.0, math.pi / 8, 64, visibility=0.95)
    tracemalloc.start()
    try:
        series, _ = walks.walk(sched)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert series.probabilities.shape == (65, 2 * 64 + 1)
    assert peak < 16e6


def full_lattice_density_walk(rho, schedule):
    """The dephased walk stepped on all of the (2n, 2n) matrix rho, which the light cone must match bit for bit."""
    n = len(rho) // 2
    # the channel keeps the coin-diagonal blocks and scales the others by v
    dephasing = np.array([[1.0, schedule.visibility], [schedule.visibility, 1.0]])[:, None, :, None]
    r = rho.reshape(n, 2, n, 2).transpose(1, 0, 3, 2)  # r[i, x, j, y]
    for coin in schedule.coins():
        # the rows of rho U^dagger are the rows of rho stepped under the conjugate coin;
        # each growing-window step cropped to the fixed lattice is the full-lattice step
        half = grown_step(coin.conj().reshape(4).tolist(), r[..., None])[..., 1:-1, :]
        half = half.reshape(2, n, 2 * n)
        r = grown_step(coin.reshape(4).tolist(), half)[..., 1:-1, :].reshape(2, n, 2, n) * dephasing
        yield r.transpose(1, 0, 3, 2).reshape(2 * n, 2 * n)


@pytest.mark.parametrize("convention", list(StepConvention))
@pytest.mark.parametrize("visibility", [0.0, 0.5, 1.0])
def test_light_cone_density_walk_matches_full_lattice(convention, visibility):
    steps = 6
    start = density_from_pure(start_state(steps))
    sched = WalkSchedule(0.3, 0.2, steps, convention, visibility)
    expected = list(full_lattice_density_walk(start, sched))
    states = states_after_each_step(sched, density_walk)
    assert len(states) == len(expected) == steps
    for k, (state, matrix) in enumerate(zip(states, expected), start=1):
        # the k-step walk on its light cone -k..k against the full walk on those sites
        rows = 2 * (steps - k) + np.arange(2 * (2 * k + 1))
        assert np.array_equal(state.matrix, matrix[np.ix_(rows, rows)])
        assert np.sum(matrix != 0) == np.sum(state.matrix != 0)


CIRCULAR = (1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0))

# starts at the origin other than the symmetric coin, whose block is real and
# unchanged by swapping its coin axes, as (weight, coin) mixtures: they check
# `_class_steps` and the probe as steps of any origin coin block
ORIGIN_COINS = {
    "plus": [(1.0, (1.0, 0.0))],
    "minus": [(1.0, (0.0, 1.0))],
    "circular": [(1.0, CIRCULAR)],
    "real": [(1.0, (0.6, 0.8))],
    "mixed": [(0.7, CIRCULAR), (0.3, (0.6, -0.8j))],
}


def origin_block(name):
    """The (2, 2) coin block sum_i w_i c_i c_i^dagger of the mixture `name`."""
    return sum(weight * np.outer(coin, np.conj(coin)) for weight, coin in ORIGIN_COINS[name]).astype(np.complex128)


@pytest.mark.parametrize("name", list(ORIGIN_COINS))
@pytest.mark.parametrize("convention", list(StepConvention))
@pytest.mark.parametrize("visibility", [0.0, 0.5, 1.0])
def test_class_steps_of_any_origin_block_match_full_lattice(name, convention, visibility):
    steps = 6
    block = origin_block(name)
    n, origin = 2 * steps + 1, steps
    rho = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    rho[2 * origin : 2 * origin + 2, 2 * origin : 2 * origin + 2] = block
    sched = WalkSchedule(0.3, 0.2, steps, convention, visibility)
    expected = [rho, *full_lattice_density_walk(rho, sched)]
    stepped = [w[..., 0] for w in evolution._class_steps(block, sched.coins(), [visibility])]
    assert len(stepped) == len(expected) == steps + 1
    for k, (w, matrix) in enumerate(zip(stepped, expected, strict=True)):
        # the start first, then step k's block holds the cone's sites -k, -k + 2, ..., k;
        # the full walk nothing else
        assert w.shape == (2, 2, k + 1, k + 1)
        assert np.array_equal(walks.scatter(steps, w), matrix)
    assert np.array_equal(block, origin_block(name))


@pytest.mark.parametrize("name", list(ORIGIN_COINS))
@pytest.mark.parametrize("convention", list(StepConvention))
def test_origin_probe_of_any_origin_block_equals_the_light_cone_p0(name, convention):
    rng = np.random.default_rng(31)
    block = origin_block(name)
    for steps in range(2, 25, 2):
        theta, omega = rng.uniform(-3.0, 3.0, 2)
        visibility = float(rng.uniform(0.0, 1.0))
        sched = WalkSchedule(theta, omega, steps, convention, visibility)
        for w in evolution._class_steps(block, sched.coins(), [visibility]):
            pass
        w = w[..., 0]
        # the origin is the middle of the cone's T + 1 sites
        middle = steps // 2
        walked = w[0, 0, middle, middle].real + w[1, 1, middle, middle].real
        [probe] = evolution._probe_origin_probability(sched.coins(), [visibility], block)
        assert np.array_equal(probe, walked), steps
        one_based = convention is StepConvention.ONE_BASED
        reference = sum(
            weight * oracles.density_p0_series(theta, omega, steps, visibility, coin, one_based)[-1]
            for weight, coin in ORIGIN_COINS[name]
        )
        assert probe == pytest.approx(reference, abs=1e-10), steps


def record_classes(monkeypatch):
    """Per step of `evolution._class_steps`, the (rows, columns) shape of the block it yields."""
    taken = []
    class_steps = evolution._class_steps

    def recording(block, coins, visibilities, diamond=False):
        for stepped in class_steps(block, coins, visibilities, diamond):
            taken.append(stepped.shape[2:4])
            yield stepped

    monkeypatch.setattr(evolution, "_class_steps", recording)
    return taken


def cone_classes(steps):
    """The blocks of a walk from the origin: the start, then step k holds the k + 1 sites -k, -k + 2, ..., k."""
    return [(k + 1, k + 1) for k in range(steps + 1)]


def diamond_classes(steps):
    """What a probe of an even number of steps holds: the sites of the cone within T - k of the origin."""
    return [(min(k, steps - k) + 1,) * 2 for k in range(steps + 1)]


def test_density_walk_steps_only_the_light_cone(monkeypatch):
    classes = record_classes(monkeypatch)
    steps = 12
    walk(WalkSchedule(0.3, 0.2, steps, visibility=0.9))
    assert classes == cone_classes(steps)


def test_final_dephased_state_at_48_steps_passes_the_psd_check():
    steps = 48
    _, final = walk(WalkSchedule(0.0, math.pi / 8, steps, visibility=0.9))
    eigenvalues = np.linalg.eigvalsh(final.matrix)
    # rank-deficient: the sites of the wrong parity stay empty, and the class block is not full rank
    assert np.sum(np.abs(eigenvalues) < 1e-12) >= 2 * steps + 1
    states._check_density(final.matrix, "final state")


def test_dephased_prefix_walks_keep_a_separate_matrix_each():
    sched = WalkSchedule(0.3, 0.2, 5, visibility=0.7)
    states = states_after_each_step(sched)
    for i, earlier in enumerate(states):
        for later in states[i + 1 :]:
            assert not np.shares_memory(earlier.block, later.block)
    distributions, final = walk(sched)
    for t, (state, row) in enumerate(zip(states, distributions.probabilities[1:], strict=True), start=1):
        assert np.array_equal(distribution(state), shared(row, t))


def test_density_walk_leaves_the_start_unchanged():
    # the calibration hands one block to every probe, and one coin stack to every walk
    sched = WalkSchedule(0.3, 0.2, 4, visibility=0.6)
    coins = sched.coins()
    distributions, final = evolution._density_walk(coins, sched.visibility)
    assert np.array_equal(final.matrix, evolution._density_walk(coins, sched.visibility)[1].matrix)
    block = evolution._origin_block()
    kept = block.copy()
    [p0] = evolution._probe_origin_probability(coins, [sched.visibility], block)
    assert np.array_equal(block, kept)
    assert np.array_equal(coins, sched.coins())
    [again] = evolution._probe_origin_probability(coins, [sched.visibility], block)
    assert p0 == again == distributions.at_site(0)[-1]


def test_coin_and_shift_matches_the_per_walk_oracle():
    rng = np.random.default_rng(11)
    lead, walks, n = 3, 5, 7
    oracle_coins = [oracles.coin_matrix(0.3 + 0.1 * g, 0.2, g + 1) for g in range(walks)]
    coins = np.array(oracle_coins)
    # amps[b, i, x, g]: a leading batch axis, then coin, site and walk; every site
    # occupied, so the plus component of the last site and the minus component
    # of the first are shifted past the input's window
    shape = (lead, 2, n, walks)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    # a stack's entries are (G,) arrays, one coin's four Python complex numbers
    stack, one = coins.reshape(walks, 4).T, coins[0].reshape(4).tolist()
    # the kernel writes into the caller's zeroed window and returns nothing
    stepped, shared = (np.zeros((lead, 2, n + 2, walks), dtype=np.complex128) for _ in range(2))
    assert evolution._coin_and_shift(stack, amps, stepped) is None
    evolution._coin_and_shift(one, amps, shared)
    for out, entries in ((stepped, stack), (shared, one)):
        # the window grows one site each way; cropped back it is the fixed-lattice step
        assert out.shape == (lead, 2, n + 2, walks)
        assert same_bits(out[..., 1:-1, :], full_lattice_step(entries, amps))
    for b in range(lead):
        for g in range(walks):
            pairs = [tuple(pair) for pair in amps[b, :, :, g].T]
            for out, coin in ((stepped, oracle_coins[g]), (shared, oracle_coins[0])):
                expected = np.array(oracles.window_step(coin, pairs))
                assert np.max(np.abs(out[b, :, 1:-1, g].T - expected)) < 1e-14
    # a single coin steps the batch exactly as its stack does
    repeated = np.broadcast_to(coins[0], coins.shape).reshape(walks, 4).T
    assert np.array_equal(shared, grown_step(repeated, amps))
    for out in (stepped, shared):
        # nothing shifts into the plus entries of the first two sites or the minus entries of the last two
        assert np.all(out[:, 0, :2, :] == 0.0) and np.all(out[:, 1, -2:, :] == 0.0)
    # the coins are unitary: the grown window keeps the norm, and the crop loses
    # exactly what left past the input's window
    for b in range(lead):
        for g in range(walks):
            coined = coins[g] @ amps[b, :, :, g]
            dropped = abs(coined[0, -1]) ** 2 + abs(coined[1, 0]) ** 2
            before = np.sum(np.abs(amps[b, ..., g]) ** 2)
            assert np.sum(np.abs(stepped[b, ..., g]) ** 2) == pytest.approx(before, abs=1e-12)
            lost = before - np.sum(np.abs(stepped[b, :, 1:-1, g]) ** 2)
            assert lost == pytest.approx(dropped, abs=1e-12)
            assert dropped > 1e-3


@pytest.mark.parametrize("convention", list(StepConvention))
@pytest.mark.parametrize("steps", [0, 1, 7, 64, 200])
def test_origin_walk_steps_the_light_cone_of_the_full_lattice_walk(steps, convention):
    # step k yields the 2k + 1 sites -k..k; zero-padded to the 2T + 3 sites of the
    # fixed lattice they are the frozen full-lattice walk bit for bit, signed zeros
    # included, for one walk with start columns (basis coin 1 and another coin, as
    # classify walks them) and for a stack of walks from basis coin 0
    t = convention.step_indices(steps)
    one = WalkSchedule(0.37, math.pi / 7, steps, convention).coins()
    stack = coin_at_step(math.pi / 4, np.array([0.0, math.pi / 7, 1.3]), t[:, None], convention)
    start = np.hstack((walks.BASIS_1, np.array([0.6, -0.8j])[:, None]))
    for coins, starts in ((one, start), (stack, np.zeros((2, 0)))):
        count = coins.shape[1] if coins.ndim == 4 else 1
        full = np.zeros((2, 2 * steps + 3, count + starts.shape[1]), dtype=np.complex128)
        full[0, steps + 1, :count] = 1.0
        full[:, steps + 1, count:] = starts
        walked = origin_walk(coins, starts)
        assert len(walked) == steps + 1
        for k, amps in enumerate(walked):
            if k:
                coin = coins[k - 1]
                entries = coin.reshape(4).tolist() if coins.ndim == 3 else coin.reshape(-1, 4).T
                full = full_lattice_step(entries, full)
            assert amps.shape == (2, 2 * k + 1, full.shape[2])
            padded = np.zeros_like(full)
            padded[:, steps + 1 - k : steps + 2 + k] = amps
            assert same_bits(padded, full), k


@pytest.mark.parametrize("convention", list(StepConvention))
def test_origin_walk_wraps_its_ring_without_zeroing_it(convention):
    # step k goes into slot k % S on the window [T - k, T + k + 1), and no slot is zeroed
    # again: each yielded window is the frozen fresh-allocation step bit for bit, signed
    # zeros included, every slot entry off its latest step's window is still zero, and a
    # yielded view keeps its bits for S - 1 more steps; classify's one-coin walk with a
    # start column wraps its ROW_BLOCK slots about three times, a scan stack its two slots
    block = analysis.ROW_BLOCK
    start = np.hstack((walks.BASIS_1, np.array([0.6, -0.8j])[:, None]))
    cases = [(WalkSchedule(0.37, math.pi / 7, steps, convention).coins(), start, block)
             for steps in (3 * block - 1, 3 * block, 3 * block + 1)]
    t = convention.step_indices(3 * block + 1)
    stack = coin_at_step(math.pi / 4, np.array([0.0, math.pi / 7, 1.3]), t[:, None], convention)
    cases.append((stack, np.zeros((2, 0)), 2))
    for coins, starts, slots in cases:
        steps, count = len(coins), coins.shape[1] if coins.ndim == 4 else 1
        ring = walks.ring(coins, starts, slots)
        expected = np.zeros((2, 1, ring.shape[3]), dtype=np.complex128)
        expected[0, 0, :count] = 1.0
        expected[:, 0, count:] = starts
        kept = []  # (view, copy) of the steps whose slots have not been written since
        for k, amps in enumerate(evolution._origin_walk(coins, ring)):
            if k:
                coin = coins[k - 1]
                entries = coin.reshape(4).tolist() if coins.ndim == 3 else coin.reshape(-1, 4).T
                expected = fresh_step(entries, expected)
            assert np.shares_memory(amps, ring[k % slots])
            assert same_bits(amps, ring[k % slots, :, steps - k : steps + k + 1])
            assert same_bits(amps, expected), (steps, k)
            kept = [*kept[-(slots - 1) :], (amps, amps.copy())]
            assert all(same_bits(view, copy) for view, copy in kept)
            for slot in range(slots):
                latest = k - (k - slot) % slots  # negative for a slot not yet written
                off = np.ones(2 * steps + 1, dtype=bool)
                off[max(steps - latest, 0) : max(steps + latest + 1, 0)] = False
                assert same_bits(ring[slot][:, off], np.zeros((2, off.sum(), ring.shape[3]), dtype=np.complex128))
        assert k == steps


@pytest.mark.parametrize("convention", list(StepConvention))
@pytest.mark.parametrize("steps", [0, 1, 7, 64, 200])
def test_the_mirror_of_a_walk_from_basis_coin_0_is_the_walk_from_basis_coin_1(steps, convention):
    # at every step the mirror of each walk from basis coin 0 equals, in value (only the signs
    # of zeros may differ), the walk that carries basis coin 1 as a start column: for one walk,
    # and for each walk of a (T, G) stack, which the scan walks from basis coin 0 alone
    t = convention.step_indices(steps)
    omegas = np.array([0.0, math.pi / 7, math.pi / 4, 1.3, *np.random.default_rng(steps).uniform(-3.0, 3.0, 3)])
    for theta in (0.0, math.pi / 4, 0.37):
        walked = origin_walk(WalkSchedule(theta, math.pi / 7, steps, convention).coins(), walks.BASIS_1)
        assert len(walked) == steps + 1
        for amps in walked:
            assert np.array_equal(walks.mirror(amps[..., :1]), amps[..., 1:])
        stacked = origin_walk(coin_at_step(theta, omegas, t[:, None], convention))
        for g, omega in enumerate(omegas):
            alone = origin_walk(coin_at_step(theta, omega, t, convention), walks.BASIS_1)
            for amps, expected in zip(stacked, alone, strict=True):
                assert np.array_equal(amps[..., g : g + 1], expected[..., :1])
                assert np.array_equal(walks.mirror(amps[..., g : g + 1]), expected[..., 1:])


@pytest.mark.parametrize("convention", list(StepConvention))
@pytest.mark.parametrize("visibility", [0.0, 0.5, 0.9, 1.0])
def test_origin_probe_equals_the_final_walk_p0(convention, visibility):
    rng = np.random.default_rng(29)
    for steps in range(1, 49):
        theta, omega = rng.uniform(-3.0, 3.0, 2)
        sched = WalkSchedule(theta, omega, steps, convention, visibility)
        start = density_from_pure(start_state(steps))
        origin = 2 * steps  # the origin is site index T
        [probe] = evolution._probe_origin_probability(
            sched.coins(), [visibility], start[origin : origin + 2, origin : origin + 2]
        )
        walked = density_walk(sched)[0].at_site(0)[-1]
        assert np.array_equal(probe, walked), steps
        if steps % 2:
            assert probe == walked == 0.0


def random_batches(count, seed):
    """(schedule, visibilities) pairs: T = 0..48, both conventions, batches holding 0, 1 and repeats."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        steps = int(rng.integers(0, 49))
        theta, omega = rng.uniform(-3.0, 3.0, 2)
        sched = WalkSchedule(theta, omega, steps, list(StepConvention)[i % 2])
        drawn = rng.uniform(0.0, 1.0, int(rng.integers(1, 3))).tolist()
        visibilities = [*drawn, 0.0, 1.0, drawn[0]]
        rng.shuffle(visibilities)
        yield sched, visibilities


def test_each_column_of_a_batched_class_walk_is_the_one_visibility_walk():
    block = evolution._origin_block()
    for sched, visibilities in random_batches(400, seed=41):
        coins = sched.coins()
        # the diamond only for the even walks a probe steps: an odd walk never returns
        for diamond in (False, True) if sched.steps % 2 == 0 else (False,):
            batch = list(evolution._class_steps(block, coins, visibilities, diamond))
            assert len(batch) == sched.steps + 1
            for k, v in enumerate(visibilities):
                alone = evolution._class_steps(block, coins, [v], diamond)
                for w, single in zip(batch, alone, strict=True):
                    assert same_bits(w[..., k], single[..., 0]), (sched, v, diamond)


def test_a_batched_probe_gives_each_visibility_the_p0_of_its_walk():
    for sched, visibilities in random_batches(40, seed=43):
        coins = sched.coins()
        probes = evolution._probe_origin_probability(coins, visibilities, evolution._origin_block())
        walked = [evolution._density_walk(coins, v)[0].at_site(0)[-1] for v in visibilities]
        assert same_bits(probes, np.array(walked)), sched


def test_a_density_walk_too_large_for_memory_fails_before_its_first_step(monkeypatch):
    classes = record_classes(monkeypatch)
    # a (T, 2, 2) view of one coin: numpy refuses the final block without allocating
    coins = np.broadcast_to(WalkSchedule(0.0, math.pi / 8, 1).coins()[0], (10**7, 2, 2))
    with pytest.raises(MemoryError, match=r"shape \(2, 2, 10000001, 10000001\)"):
        evolution._density_walk(coins, 0.5)
    assert classes == []


def record_calibration(monkeypatch):
    """Lists of the shapes `states._check_density` validates and the classes of each density step."""
    checked = []
    check = states._check_density

    def counting_check(rho, label):
        checked.append(rho.shape)
        return check(rho, label)

    monkeypatch.setattr(states, "_check_density", counting_check)
    return checked, record_classes(monkeypatch)


@pytest.mark.parametrize("visibility", [0.93, 0.0, 1.0])
def test_bisect_visibility_validates_one_walk(monkeypatch, visibility):
    steps = 8
    sched = WalkSchedule(0.0, math.pi / 8, steps)
    target = density_walk(sched.with_visibility(visibility))[0].at_site(0)[-1]
    checked, classes = record_calibration(monkeypatch)
    found, achieved = bisect_visibility(sched, target, tol=1e-6)
    # only the validated walk's final state, its class block on the T + 1 sites -T, ..., T:
    # no density matrix of the start
    assert checked == [(2 * (steps + 1),) * 2]
    if visibility in (0.0, 1.0):
        assert found == visibility
    # every probe round steps the diamond, its first both ends, and only the last walk the whole light cone
    walk, diamond = cone_classes(steps), diamond_classes(steps)
    rounds, rest = divmod(len(classes) - len(walk), len(diamond))
    assert rest == 0 and rounds >= 1
    assert classes == diamond * rounds + walk
    fresh = density_walk(sched.with_visibility(found))[0].at_site(0)[-1]
    assert achieved == fresh
    assert abs(achieved - target) <= 1e-6


def test_bisect_visibility_refuses_a_probe_the_walk_does_not_confirm(monkeypatch):
    steps = 8
    sched = WalkSchedule(0.0, math.pi / 8, steps)
    target = walk(sched)[0].at_site(0)[-1]
    probe = evolution._probe_origin_probability

    def off_by_one_ulp(coins, visibilities, block):
        return np.nextafter(probe(coins, visibilities, block), 2.0)

    monkeypatch.setattr(evolution, "_probe_origin_probability", off_by_one_ulp)
    with pytest.raises(RuntimeError, match="differs from the walk"):
        bisect_visibility(sched, target)


def record_probes(monkeypatch):
    """The rounds of calibration probes, in order: each the (visibility, p0) pairs of one probe walk."""
    rounds = []
    probe = evolution._probe_origin_probability

    def recording(coins, visibilities, block):
        p0 = probe(coins, visibilities, block)
        rounds.append(list(zip(visibilities, p0.tolist())))
        return p0

    monkeypatch.setattr(evolution, "_probe_origin_probability", recording)
    return rounds


@pytest.mark.parametrize(
    "sched, fraction",
    [
        (WalkSchedule(0.3, 0.2, 12), 0.5),
        (WalkSchedule(0.0, math.pi / 8, 16), 0.9),
        (WalkSchedule(math.pi / 4, math.pi / 9, 16, StepConvention.ZERO_BASED), 0.05),
        (WalkSchedule(1.1, 0.7, 10), 0.999),
    ],
)
def test_calibration_probes_stay_inside_a_sign_changing_bracket(monkeypatch, sched, fraction):
    ends = [walk(sched.with_visibility(v))[0].at_site(0)[-1] for v in (0.0, 1.0)]
    target = ends[0] + fraction * (ends[1] - ends[0])
    rounds = record_probes(monkeypatch)
    bisect_visibility(sched, target, tol=1e-9)
    assert len(rounds) >= 3
    first = dict(rounds[0])
    assert {0.0, 1.0} <= set(first) and len(first) == evolution.PROBES_PER_WALK
    assert (first[0.0] < target) != (first[1.0] < target)
    for i, points in enumerate(rounds[1:], start=1):
        earlier = dict(pair for done in rounds[:i] for pair in done)
        known = sorted(earlier)
        # the round lies strictly between two neighbouring earlier probes ...
        lo = max(u for u in known if u < points[0][0])
        hi = min(u for u in known if u > points[0][0])
        assert all(lo < v < hi for v, _ in points)
        # ... across which p0 - target changes sign
        assert (earlier[lo] < target) != (earlier[hi] < target)


@pytest.mark.parametrize(
    "steps, theta_pi, omega_pi, visibility_1024, walks",
    [(16, 0, (1, 36), 925, 3), (16, 1 / 4, (1, 9), 963, 3), (24, 0, (1, 52), 951, 3),
     (24, 0, (1, 12), 987, 3), (24, 0, (5, 24), 1003, 3)],
)
def test_bench_style_calibrations_take_at_most_ten_probes(
    monkeypatch, steps, theta_pi, omega_pi, visibility_1024, walks
):
    # revivals whose p0 dephasing moves, at an odd multiple of 1/1024 in [0.9, 0.99],
    # on which bisection of [0, 1] makes 12 probes and the one-probe regula falsi
    # at most 10: the batched rounds take `walks` probe walks
    sched = WalkSchedule(math.pi * theta_pi, math.pi * omega_pi[0] / omega_pi[1], steps)
    target = walk(sched.with_visibility(visibility_1024 / 1024))[0].at_site(0)[-1]
    rounds = record_probes(monkeypatch)
    _, achieved = bisect_visibility(sched, target)
    assert abs(achieved - target) <= 1e-4
    assert len(rounds) == walks


README_SWEEP = ["noise-sweep", "--theta", "0", "--omega", "1/8", "--steps", "8",
                "--visibilities", "1,0.996,0.99,0.95,0.9"]


@pytest.mark.parametrize(
    "run, builds, min_rounds",
    [
        # one stack for all the probe rounds and the validated walk
        (lambda sched, target: bisect_visibility(sched, target), 1, 2),
        # one stack for the dephased walk and the noiseless blocks
        (lambda sched, target: classify(sched.with_visibility(0.9)), 1, 0),
        # the README's noise-sweep: one stack for the sweep's batch, and one for the calibration
        (lambda sched, target: cli.main(README_SWEEP), 1, 0),
        (lambda sched, target: cli.main([*README_SWEEP, "--target-p0", "0.918"]), 2, 2),
    ],
    ids=["calibration", "classify", "noise-sweep", "noise-sweep-target"],
)
def test_calibration_builds_the_coin_stack_once_for_its_probes(monkeypatch, run, builds, min_rounds):
    sched = WalkSchedule(0.0, math.pi / 36, 16)
    target = walk(sched.with_visibility(925 / 1024))[0].at_site(0)[-1]
    built = []
    coin_at_step = evolution.coin_at_step

    def counting(*args):
        built.append(args)
        return coin_at_step(*args)

    monkeypatch.setattr(evolution, "coin_at_step", counting)
    rounds = record_probes(monkeypatch)
    assert run(sched, target) is not None
    assert len(built) == builds and len(rounds) >= min_rounds


def test_calibration_where_p0_is_flat_then_steep_takes_at_most_twelve_probes(monkeypatch):
    # p0 barely moves over most of [0, 1] and then rises steeply; regula falsi
    # alone, its Anderson-Bjorck factor near 0, took 22 probes here, and with
    # its midpoint fallback 11
    sched = WalkSchedule(0.122, 1.493, 20)
    ends = [walk(sched.with_visibility(v))[0].at_site(0)[-1] for v in (0.0, 1.0)]
    target = ends[0] + 0.017 * (ends[1] - ends[0])
    rounds = record_probes(monkeypatch)
    _, achieved = bisect_visibility(sched, target)
    assert abs(achieved - target) <= 1e-4
    assert len(rounds) == 3


@pytest.mark.parametrize("fraction", [1e-3, 1.0 - 1e-3])
def test_calibration_converges_on_a_target_near_an_end(monkeypatch, fraction):
    sched = WalkSchedule(0.0, math.pi / 8, 16)
    ends = [walk(sched.with_visibility(v))[0].at_site(0)[-1] for v in (0.0, 1.0)]
    target = ends[0] + fraction * (ends[1] - ends[0])
    tol = 1e-6
    assert min(abs(end - target) for end in ends) > tol
    rounds = record_probes(monkeypatch)
    _, achieved = bisect_visibility(sched, target, tol=tol)
    assert abs(achieved - target) <= tol
    assert len(rounds) <= evolution.BISECT_MAX_ROUNDS + 1


def test_calibration_splits_the_bracket_evenly_after_a_round_that_does_not_halve_it(monkeypatch):
    # an interpolated round that never halves the bracket, one point just inside its
    # lower end: each round after it splits the bracket into PROBES_PER_WALK + 1 parts,
    # which bounds the walks
    sched = WalkSchedule(0.0, math.pi / 36, 16)
    target = walk(sched.with_visibility(925 / 1024))[0].at_site(0)[-1]

    def hugging_the_lower_end(probes, target, lo, hi):
        return [lo + evolution.PROBE_MARGIN * (hi - lo)]

    monkeypatch.setattr(evolution, "_round_around_root", hugging_the_lower_end)
    rounds = record_probes(monkeypatch)
    _, achieved = bisect_visibility(sched, target)
    assert abs(achieved - target) <= 1e-4
    sizes = [len(points) for points in rounds]
    later = sizes[1:]
    assert later[0::2] == [1] * len(later[0::2])
    assert later[1::2] == [evolution.PROBES_PER_WALK] * len(later[1::2])
    assert len(rounds) <= 12
