import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rampwalk import evolution, states
from rampwalk.coins import StepConvention
from rampwalk.evolution import (
    BoundaryOverflowError,
    WalkSchedule,
    bisect_visibility,
    propagator_blocks,
    symmetric_start,
)
from rampwalk.states import (
    CoinVector,
    Lattice,
    WalkerCoinDensityMatrix,
    WalkerCoinPureState,
    density_from_pure,
    initial_state,
    position_distribution,
    reduced_coin_state,
)

import oracles

angle = st.floats(min_value=0.0, max_value=math.pi / 2, allow_nan=False)


def run_walk(start, schedule):
    """`evolution.run_walk`, with an independent PSD check of the density matrix it returns."""
    distributions, final = evolution.run_walk(start, schedule)
    if isinstance(final, WalkerCoinDensityMatrix):
        assert float(np.min(np.linalg.eigvalsh(final.matrix))) >= -1e-10
    return distributions, final


def states_after_each_step(start, schedule):
    """The state after each step: the final state of each prefix walk."""
    return [run_walk(start, replace(schedule, steps=k))[1] for k in range(1, schedule.steps + 1)]


def oracle_amplitudes_to_array(state_dict: dict, lattice: Lattice) -> np.ndarray:
    amps = np.zeros((lattice.size, 2), dtype=np.complex128)
    for site, (plus, minus) in state_dict.items():
        amps[lattice.index(site), 0] = plus
        amps[lattice.index(site), 1] = minus
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


def test_schedule_takes_numpy_step_counts():
    numpy_steps = WalkSchedule(0.0, math.pi / 8, np.int64(8))
    int_steps = WalkSchedule(0.0, math.pi / 8, 8)
    assert np.array_equal(propagator_blocks(numpy_steps), propagator_blocks(int_steps))
    _, final = run_walk(symmetric_start(8), numpy_steps)
    assert np.array_equal(final.amplitudes, run_walk(symmetric_start(8), int_steps)[1].amplitudes)


def test_schedule_step_indices_by_convention():
    one = WalkSchedule(0.0, 0.1, 3)
    zero = WalkSchedule(0.0, 0.1, 3, convention=StepConvention.ZERO_BASED)
    assert list(one.step_indices()) == [1, 2, 3]
    assert list(zero.step_indices()) == [0, 1, 2]


def test_pure_start_below_unit_visibility_walks_its_density_matrix():
    # the revival at (theta 0, omega pi/8, T 8) is lost once the coin dephases
    start = symmetric_start(8)
    sched = WalkSchedule(0.0, math.pi / 8, 8, visibility=0.9)
    distributions, final = run_walk(start, sched)
    assert isinstance(final, WalkerCoinDensityMatrix)
    assert np.array_equal(final.matrix, run_walk(density_from_pure(start), sched)[1].matrix)
    assert distributions.at_site(0)[-1] < 1.0 - 1e-3
    pure_distributions, pure_final = run_walk(start, sched.with_visibility(1.0))
    assert isinstance(pure_final, WalkerCoinPureState)
    assert pure_distributions.at_site(0)[-1] == pytest.approx(1.0, abs=1e-12)


def test_one_step_moves_symmetric_coin_down_at_ramp_eighth_pi():
    # rx(pi/8) sends the symmetric coin onto the minus branch exactly
    sched = WalkSchedule(0.0, math.pi / 8, 1)
    _, final = run_walk(symmetric_start(1), sched)
    dist = position_distribution(final)
    assert dist.at_site(-1) == pytest.approx(1.0, abs=1e-12)


@given(angle, angle, st.integers(min_value=1, max_value=6))
@settings(max_examples=120)
def test_pure_walk_matches_dict_oracle(theta, omega, steps):
    sched = WalkSchedule(theta, omega, steps)
    start = symmetric_start(steps)
    trajectory = states_after_each_step(start, sched)
    oracle_trajectory = oracles.walk_states(theta, omega, steps)
    for ours, reference in zip(trajectory, oracle_trajectory, strict=True):
        expected = oracle_amplitudes_to_array(reference, start.lattice)
        assert np.max(np.abs(ours.amplitudes - expected)) < 1e-10


@given(angle, angle, st.integers(min_value=1, max_value=8))
@settings(max_examples=120)
def test_pure_walk_preserves_norm(theta, omega, steps):
    sched = WalkSchedule(theta, omega, steps)
    for state in states_after_each_step(symmetric_start(steps), sched):
        norm_sq = float(np.sum(np.abs(state.amplitudes) ** 2))
        assert abs(norm_sq - 1.0) < 1e-12


def test_sixteen_step_walk_matches_oracle_end_to_end():
    sched = WalkSchedule(0.0, math.pi / 8, 16)
    start = symmetric_start(16)
    _, final = run_walk(start, sched)
    expected = oracle_amplitudes_to_array(
        oracles.walk_states(0.0, math.pi / 8, 16)[-1], start.lattice
    )
    assert np.max(np.abs(final.amplitudes - expected)) < 1e-10


def test_zero_based_convention_changes_the_walk():
    # one-based ramping revives at (theta 0, omega pi/8, T 2); zero-based does not
    one = WalkSchedule(0.0, math.pi / 8, 2)
    zero = WalkSchedule(0.0, math.pi / 8, 2, convention=StepConvention.ZERO_BASED)
    p_one = run_walk(symmetric_start(2), one)[0].at_site(0)[-1]
    p_zero = run_walk(symmetric_start(2), zero)[0].at_site(0)[-1]
    assert p_one == pytest.approx(1.0, abs=1e-12)
    assert p_zero == pytest.approx(0.5, abs=1e-12)


def test_boundary_overflow_raises_instead_of_wrapping():
    lattice = Lattice(-2, 2)
    state = initial_state(lattice, CoinVector.symmetric())
    sched = WalkSchedule(0.3, 0.2, 4)
    with pytest.raises(BoundaryOverflowError):
        run_walk(state, sched)
    # the support plus the steps must stay one site inside the lattice, on each side
    for lopsided in (Lattice(-3, 1), Lattice(-1, 3)):
        with pytest.raises(BoundaryOverflowError):
            run_walk(initial_state(lopsided, CoinVector.symmetric()), WalkSchedule(0.3, 0.2, 1))
    _, moved = run_walk(state, WalkSchedule(0.3, 0.2, 1))
    with pytest.raises(BoundaryOverflowError):
        run_walk(moved, WalkSchedule(0.3, 0.2, 1))


def test_guard_sites_stay_empty_over_long_walk():
    sched = WalkSchedule(0.0, math.pi / 8, 16)
    for state in states_after_each_step(symmetric_start(16), sched):
        edge = np.abs(state.amplitudes[[0, -1], :])
        assert float(edge.max()) < 1e-14


def test_translation_covariance():
    steps = 4
    sched = WalkSchedule(0.4, 0.2, steps)
    wide = Lattice.for_steps(steps + 3)
    centered = initial_state(wide, CoinVector.symmetric())
    offset_amps = np.zeros((wide.size, 2), dtype=np.complex128)
    offset_amps[wide.index(3), 0] = CoinVector.symmetric().plus
    offset_amps[wide.index(3), 1] = CoinVector.symmetric().minus
    shifted = WalkerCoinPureState(wide, offset_amps)
    _, final_centered = run_walk(centered, sched)
    _, final_shifted = run_walk(shifted, sched)
    assert np.max(
        np.abs(np.roll(final_centered.amplitudes, 3, axis=0) - final_shifted.amplitudes)
    ) < 1e-12


def test_propagator_blocks_zero_steps_is_identity():
    blocks = propagator_blocks(WalkSchedule(0.3, 0.1, 0))
    assert np.array_equal(blocks, np.eye(2)[None])


@given(angle, angle, st.integers(min_value=1, max_value=5))
@settings(max_examples=60)
def test_propagator_blocks_match_the_dict_oracle(theta, omega, steps):
    # column j of the block at displacement d is the walk of basis coin j from the origin
    blocks = propagator_blocks(WalkSchedule(theta, omega, steps))
    assert blocks.shape == (2 * steps + 1, 2, 2)
    for column, basis in enumerate(((1.0, 0.0), (0.0, 1.0))):
        final = oracles.walk_states(theta, omega, steps, basis)[-1]
        for d in range(-steps, steps + 1):
            plus, minus = final.get(d, (0.0, 0.0))
            assert abs(blocks[d + steps, 0, column] - plus) < 1e-10
            assert abs(blocks[d + steps, 1, column] - minus) < 1e-10


@given(angle, angle, st.integers(min_value=1, max_value=8))
@settings(max_examples=60)
def test_propagator_blocks_vanish_off_the_walk_parity(theta, omega, steps):
    # after T steps the walker sits only at displacements d with d = T mod 2,
    # so the origin block of an odd-length walk is zero
    blocks = propagator_blocks(WalkSchedule(theta, omega, steps))
    assert not np.any(blocks[1::2])
    assert np.any(blocks[::2])
    if steps % 2:
        assert not np.any(blocks[steps])


def test_density_at_unit_visibility_matches_pure():
    sched = WalkSchedule(0.0, math.pi / 8, 8)
    start = symmetric_start(8)
    pure_states = states_after_each_step(start, sched)
    mixed_states = states_after_each_step(density_from_pure(start), sched)
    for pure, mixed in zip(pure_states, mixed_states, strict=True):
        p = position_distribution(pure).probabilities
        q = position_distribution(mixed).probabilities
        assert np.max(np.abs(p - q)) < 1e-10
        assert np.max(
            np.abs(reduced_coin_state(pure) - reduced_coin_state(mixed))
        ) < 1e-10


@given(
    angle,
    angle,
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=60)
def test_density_walk_matches_dict_oracle(theta, omega, visibility, steps):
    sched = WalkSchedule(theta, omega, steps, visibility=visibility)
    start = density_from_pure(symmetric_start(steps))
    ours = run_walk(start, sched)[0].at_site(0)
    reference = oracles.density_p0_series(theta, omega, steps, visibility)
    assert np.max(np.abs(ours - np.array(reference))) < 1e-10


@given(
    angle,
    angle,
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=40)
def test_dephasing_never_increases_purity(theta, omega, visibility, steps):
    sched = WalkSchedule(theta, omega, steps, visibility=visibility)
    start = density_from_pure(symmetric_start(steps))
    previous = 1.0
    for state in states_after_each_step(start, sched):
        blocks = state.matrix
        current = float(np.real(np.trace(blocks @ blocks)))
        assert current <= previous + 1e-10
        previous = current


def test_full_dephasing_return_probability_formula():
    # with theta 0 and visibility 0 the two-step return probability is sin(4 omega)^2
    for omega in (math.pi / 8, math.pi / 10, 3.0 * math.pi / 16):
        sched = WalkSchedule(0.0, omega, 2, visibility=0.0)
        start = density_from_pure(symmetric_start(2))
        p0 = run_walk(start, sched)[0].at_site(0)[-1]
        assert p0 == pytest.approx(math.sin(4.0 * omega) ** 2, abs=1e-12)


def test_density_boundary_check_is_static():
    lattice = Lattice(-3, 3)
    start = density_from_pure(initial_state(lattice, CoinVector.symmetric()))
    with pytest.raises(BoundaryOverflowError):
        run_walk(start, WalkSchedule(0.3, 0.2, 3))
    run_walk(start, WalkSchedule(0.3, 0.2, 2))


def coin_purity(state):
    """tr(rho^2) of the reduced coin state."""
    rho = reduced_coin_state(state)
    return float(np.real(np.trace(rho @ rho)))


def test_reduced_coin_purity_series_at_flagship_point():
    sched = WalkSchedule(0.0, math.pi / 8, 4)
    values = [coin_purity(state) for state in states_after_each_step(symmetric_start(4), sched)]
    expected = [1.0, 1.0, 0.5, 0.5]
    assert np.max(np.abs(np.array(values) - np.array(expected))) < 1e-12


def test_reduced_coin_purity_strictly_between_half_and_one():
    sched = WalkSchedule(0.0, math.pi / 10, 4)
    _, final = run_walk(symmetric_start(4), sched)
    value = coin_purity(final)
    assert 0.5 + 1e-3 < value < 1.0 - 1e-3


def test_bisect_visibility_recovers_known_value():
    sched = WalkSchedule(0.0, math.pi / 8, 8)
    start = density_from_pure(symmetric_start(8))
    target = run_walk(start, sched.with_visibility(0.93))[0].at_site(0)[-1]
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


def assert_same_walk(distributions, final, states):
    assert distributions.probabilities.shape == (len(states), final.lattice.size)
    for row, state in zip(distributions.probabilities, states):
        assert np.array_equal(row, position_distribution(state).probabilities)
    assert type(final) is type(states[-1])
    if isinstance(final, WalkerCoinPureState):
        assert np.array_equal(final.amplitudes, states[-1].amplitudes)
    else:
        assert np.array_equal(final.matrix, states[-1].matrix)


@pytest.mark.parametrize(
    "sched",
    [
        WalkSchedule(math.pi / 4, math.pi / 10, 8),
        WalkSchedule(0.3, 0.2, 5, StepConvention.ZERO_BASED),
    ],
)
def test_run_walk_matches_its_prefix_walks(sched):
    start = symmetric_start(sched.steps)
    rho = density_from_pure(start)
    # a pure start at visibility 1 takes the pure walk
    assert_same_walk(*run_walk(start, sched), states_after_each_step(start, sched))
    # below visibility 1 it takes the dephased walk of its density matrix
    dephased = sched.with_visibility(0.9)
    assert_same_walk(*run_walk(start, dephased), states_after_each_step(rho, dephased))
    # a density start takes the dephased walk at every visibility
    for visibility in (1.0, 0.9):
        noisy = sched.with_visibility(visibility)
        assert_same_walk(*run_walk(rho, noisy), states_after_each_step(rho, noisy))


def test_run_walk_without_steps_returns_start():
    start = symmetric_start(0)
    rho = density_from_pure(start)
    sched = WalkSchedule(0.3, 0.2, 0)
    no_rows = (0, start.lattice.size)
    distributions, final = run_walk(start, sched)
    assert distributions.probabilities.shape == no_rows and final is start
    distributions, final = run_walk(rho, sched.with_visibility(0.9))
    assert distributions.probabilities.shape == no_rows and final is rho
    distributions, final = run_walk(start, sched.with_visibility(0.9))
    assert distributions.probabilities.shape == no_rows
    assert isinstance(final, WalkerCoinDensityMatrix)
    assert np.array_equal(final.matrix, rho.matrix)


def test_run_walk_boundary_overflow_raises_before_any_step(monkeypatch):
    steps_taken = []
    kernel = evolution._coin_and_shift

    def counting(coins, amps):
        steps_taken.append(1)
        return kernel(coins, amps)

    monkeypatch.setattr(evolution, "_coin_and_shift", counting)
    classes = record_classes(monkeypatch)
    start = initial_state(Lattice(-3, 3), CoinVector.symmetric())
    for visibility in (1.0, 0.9):
        sched = WalkSchedule(0.3, 0.2, 3, visibility=visibility)
        for state in (start, density_from_pure(start)):
            with pytest.raises(BoundaryOverflowError):
                run_walk(state, sched)
    assert steps_taken == [] and classes == []
    run_walk(start, WalkSchedule(0.3, 0.2, 2))
    assert len(steps_taken) == 2
    # the recorder sees every step of a density walk that fits
    run_walk(start, WalkSchedule(0.3, 0.2, 2, visibility=0.9))
    assert len(classes) == 2


def test_run_walk_memory_does_not_grow_with_trajectory():
    # keeping all 64 density matrices of this walk takes about 73 MB
    sched = WalkSchedule(0.0, math.pi / 8, 64, visibility=0.95)
    start = density_from_pure(symmetric_start(64))
    tracemalloc.start()
    try:
        series, _ = run_walk(start, sched)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert series.probabilities.shape == (64, start.lattice.size)
    assert peak < 16e6


def full_lattice_density_walk(rho, schedule):
    """The dephased walk stepped on all of rho, which the light cone must match bit for bit."""
    n = rho.lattice.size
    # the channel keeps the coin-diagonal blocks and scales the others by v
    dephasing = np.array([[1.0, schedule.visibility], [schedule.visibility, 1.0]])[:, None, :, None]
    r = rho.matrix.reshape(n, 2, n, 2).transpose(1, 0, 3, 2)  # r[i, x, j, y]
    for coin in schedule.coins():
        # the rows of rho U^dagger are the rows of rho stepped under the conjugate coin
        half = evolution._coin_and_shift(coin.conj(), r[..., None]).reshape(2, n, 2 * n)
        r = evolution._coin_and_shift(coin, half).reshape(2, n, 2, n) * dephasing
        yield r.transpose(1, 0, 3, 2).reshape(2 * n, 2 * n)


def mixture(lattice, components):
    """Density matrix sum_i w_i |site_i, coin_i><site_i, coin_i| from (w, site, coin) triples."""
    matrix = np.zeros((2 * lattice.size, 2 * lattice.size), dtype=np.complex128)
    for weight, site, coin in components:
        vec = np.zeros((lattice.size, 2), dtype=np.complex128)
        vec[lattice.index(site)] = coin
        matrix += weight * np.outer(vec.reshape(-1), vec.reshape(-1).conj())
    return matrix


def superposition(lattice, components):
    """Density matrix |psi><psi| of psi = sum_i a_i |site_i, coin_i> from (a, site, coin) triples."""
    amps = np.zeros((lattice.size, 2), dtype=np.complex128)
    for amplitude, site, coin in components:
        amps[lattice.index(site)] = amplitude * np.asarray(coin)
    return density_from_pure(WalkerCoinPureState(lattice, amps))


def window_parity_starts(steps):
    symmetric = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    origin = density_from_pure(symmetric_start(steps))
    wide = Lattice(-steps - 6, steps + 6)
    off_centre = WalkerCoinDensityMatrix(
        wide, mixture(wide, [(0.7, -3, (1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0))),
                             (0.3, 2, (0.6, 0.8))])
    )
    # lowest - steps and highest + steps sit one site inside the lattice
    tight = Lattice(-steps - 3, steps + 5)
    at_limit = WalkerCoinDensityMatrix(
        tight, mixture(tight, [(0.5, -2, symmetric), (0.5, 4, (0.0, 1.0))])
    )
    # 1e-16 populations next to both edges, and their coherences, lie outside
    # the support that _check_reach thresholds at 1e-14
    lattice = origin.lattice
    tiny = origin.matrix.copy()
    low = 2 * lattice.index(lattice.min_site + 1) + 1
    high = 2 * lattice.index(lattice.max_site - 1)
    near = 2 * lattice.index(0)
    for i, j in ((low, low), (high, high), (near, high), (low, high)):
        tiny[i, j] = tiny[j, i] = 1e-16
    # pure superpositions over sites of both parities: rho spans all four parity classes
    two_sites = superposition(wide, [(0.8, 0, symmetric), (0.6j, 1, (0.6, 0.8))])
    apart = superposition(wide, [(0.6, -1, (1.0, 0.0)), (-0.8, 2, (0.6j, 0.8))])
    return {
        "origin": origin,
        "off_centre": off_centre,
        "at_limit": at_limit,
        "tiny": WalkerCoinDensityMatrix(lattice, tiny),
        "two_sites": two_sites,
        "apart": apart,
    }


@pytest.mark.parametrize("name", ["origin", "off_centre", "at_limit", "tiny", "two_sites", "apart"])
@pytest.mark.parametrize("convention", list(StepConvention))
@pytest.mark.parametrize("visibility", [0.0, 0.5, 1.0])
def test_light_cone_density_walk_matches_full_lattice(name, convention, visibility):
    steps = 6
    start = window_parity_starts(steps)[name]
    sched = WalkSchedule(0.3, 0.2, steps, convention, visibility)
    expected = list(full_lattice_density_walk(start, sched))
    states = states_after_each_step(start, sched)
    assert len(states) == len(expected) == steps
    for state, matrix in zip(states, expected):
        assert np.array_equal(state.matrix, matrix)
    if name == "at_limit":
        with pytest.raises(BoundaryOverflowError):
            run_walk(start, WalkSchedule(0.3, 0.2, steps + 1, convention, visibility))


def record_classes(monkeypatch):
    """Per step of `evolution._class_steps`, the sorted (row sites, column sites) of each class.

    Sites are lattice indices for a walk and indices from the origin for a
    calibration probe, as tuples.
    """
    taken = []
    class_steps = evolution._class_steps

    def recording(classes, schedule, crops):
        for stepped in class_steps(classes, schedule, crops):
            taken.append(sorted(
                (tuple(range(bx, bx + 2 * w.shape[2], 2)), tuple(range(by, by + 2 * w.shape[3], 2)))
                for w, bx, by in stepped
            ))
            yield stepped

    monkeypatch.setattr(evolution, "_class_steps", recording)
    return taken


def cone(site, k):
    """The k + 1 site indices within k of `site` that share the parity of site + k."""
    return tuple(range(site - k, site + k + 1, 2))


def cone_classes(origin, steps):
    """The one class of a walk from site index `origin`: step k holds cone(origin, k)."""
    return [[(cone(origin, k),) * 2] for k in range(1, steps + 1)]


def diamond_classes(origin, steps):
    """What a probe of an even number of steps holds: the sites of the cone within T - k of the origin."""
    return [[(cone(origin, min(k, steps - k)),) * 2] for k in range(1, steps + 1)]


def test_density_walk_steps_only_the_light_cone(monkeypatch):
    classes = record_classes(monkeypatch)
    steps = 12
    start = density_from_pure(symmetric_start(steps))
    run_walk(start, WalkSchedule(0.3, 0.2, steps, visibility=0.9))
    assert classes == cone_classes(start.lattice.index(0), steps)
    # a start on two neighbouring sites has four classes, each on its own light cone
    classes.clear()
    start = window_parity_starts(steps)["two_sites"]
    run_walk(start, WalkSchedule(0.3, 0.2, steps, visibility=0.9))
    sites = (start.lattice.index(0), start.lattice.index(1))
    assert classes == [sorted((cone(x, k), cone(y, k)) for x in sites for y in sites) for k in range(1, steps + 1)]


def test_final_dephased_state_at_48_steps_passes_the_psd_check():
    steps = 48
    start = density_from_pure(symmetric_start(steps))
    _, final = run_walk(start, WalkSchedule(0.0, math.pi / 8, steps, visibility=0.9))
    eigenvalues = np.linalg.eigvalsh(final.matrix)
    # rank-deficient: sites of the wrong parity and the guard sites stay empty
    assert np.sum(np.abs(eigenvalues) < 1e-12) >= final.lattice.size
    states._check_density(final.matrix, "final state")


def test_dephased_prefix_walks_keep_a_separate_matrix_each():
    sched = WalkSchedule(0.3, 0.2, 5, visibility=0.7)
    start = density_from_pure(symmetric_start(5))
    states = states_after_each_step(start, sched)
    for i, earlier in enumerate(states):
        for later in states[i + 1 :]:
            assert not np.shares_memory(earlier.matrix, later.matrix)
            assert not np.array_equal(earlier.matrix, later.matrix)
    distributions, _ = run_walk(start, sched)
    for state, row in zip(states, distributions.probabilities, strict=True):
        assert np.array_equal(position_distribution(state).probabilities, row)


def test_density_walk_leaves_the_start_unchanged():
    sched = WalkSchedule(0.3, 0.2, 4, visibility=0.6)
    start = density_from_pure(symmetric_start(4))
    before = start.matrix.copy()
    _, final = run_walk(start, sched)
    assert np.array_equal(start.matrix, before)
    assert not np.shares_memory(final.matrix, start.matrix)
    assert np.array_equal(final.matrix, run_walk(start, sched)[1].matrix)


def test_coin_and_shift_matches_the_per_walk_oracle():
    rng = np.random.default_rng(11)
    lead, walks, n = 3, 5, 7
    oracle_coins = [oracles.coin_matrix(0.3 + 0.1 * g, 0.2, g + 1) for g in range(walks)]
    coins = np.array(oracle_coins)
    # amps[b, i, x, g]: a leading batch axis, then coin, site and walk; every site
    # occupied, so the plus component of the last site and the minus component
    # of the first are shifted past the edges
    shape = (lead, 2, n, walks)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    stepped = evolution._coin_and_shift(coins, amps)
    shared = evolution._coin_and_shift(coins[0], amps)
    for b in range(lead):
        for g in range(walks):
            pairs = [tuple(pair) for pair in amps[b, :, :, g].T]
            for out, coin in ((stepped, oracle_coins[g]), (shared, oracle_coins[0])):
                expected = np.array(oracles.window_step(coin, pairs))
                assert np.max(np.abs(out[b, :, :, g].T - expected)) < 1e-14
    # a single coin steps the batch exactly as its stack does
    assert np.array_equal(shared, evolution._coin_and_shift(np.broadcast_to(coins[0], coins.shape), amps))
    for out in (stepped, shared):
        # nothing shifts into the plus entry of the first site or the minus entry of the last
        assert np.all(out[:, 0, 0, :] == 0.0) and np.all(out[:, 1, -1, :] == 0.0)
    # the coins are unitary, so the norm lost is exactly what left past the edges
    for b in range(lead):
        for g in range(walks):
            coined = coins[g] @ amps[b, :, :, g]
            dropped = abs(coined[0, -1]) ** 2 + abs(coined[1, 0]) ** 2
            lost = np.sum(np.abs(amps[b, ..., g]) ** 2) - np.sum(np.abs(stepped[b, ..., g]) ** 2)
            assert lost == pytest.approx(dropped, abs=1e-12)
            assert dropped > 1e-3


@pytest.mark.parametrize("convention", list(StepConvention))
@pytest.mark.parametrize("visibility", [0.0, 0.5, 0.9, 1.0])
def test_origin_probe_equals_the_final_walk_p0(convention, visibility):
    rng = np.random.default_rng(29)
    for steps in range(1, 49):
        theta, omega = rng.uniform(-3.0, 3.0, 2)
        sched = WalkSchedule(theta, omega, steps, convention, visibility)
        start = density_from_pure(symmetric_start(steps))
        origin = 2 * start.lattice.index(0)
        probe = evolution._probe_origin_probability(sched, start.matrix[origin : origin + 2, origin : origin + 2])
        walked = run_walk(start, sched)[0].at_site(0)[-1]
        assert np.array_equal(probe, walked), steps
        if steps % 2:
            assert probe == walked == 0.0


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
    start = density_from_pure(symmetric_start(steps))
    target = run_walk(start, sched.with_visibility(visibility))[0].at_site(0)[-1]
    checked, classes = record_calibration(monkeypatch)
    found, achieved = bisect_visibility(sched, target, tol=1e-6)
    # the start's density matrix, built once, and the validated walk's final state
    assert checked == [(2 * start.lattice.size,) * 2] * 2
    if visibility in (0.0, 1.0):
        assert found == visibility
    # every probe steps the diamond, its sites counted from the origin, and only
    # the last walk the whole light cone
    walk, diamond = cone_classes(start.lattice.index(0), steps), diamond_classes(0, steps)
    probes, rest = divmod(len(classes) - len(walk), len(diamond))
    assert rest == 0 and probes >= 2
    assert classes == diamond * probes + walk
    fresh = run_walk(start, sched.with_visibility(found))[0].at_site(0)[-1]
    assert achieved == fresh
    assert abs(achieved - target) <= 1e-6


def test_bisect_visibility_refuses_a_probe_the_walk_does_not_confirm(monkeypatch):
    steps = 8
    sched = WalkSchedule(0.0, math.pi / 8, steps)
    start = density_from_pure(symmetric_start(steps))
    target = run_walk(start, sched)[0].at_site(0)[-1]
    probe = evolution._probe_origin_probability

    def off_by_one_ulp(schedule, block):
        return float(np.nextafter(probe(schedule, block), 2.0))

    monkeypatch.setattr(evolution, "_probe_origin_probability", off_by_one_ulp)
    with pytest.raises(RuntimeError, match="differs from the walk"):
        bisect_visibility(sched, target)


def record_probes(monkeypatch):
    """The (visibility, p0) pairs of every calibration probe, in order."""
    probes = []
    probe = evolution._probe_origin_probability

    def recording(schedule, block):
        p0 = probe(schedule, block)
        probes.append((schedule.visibility, p0))
        return p0

    monkeypatch.setattr(evolution, "_probe_origin_probability", recording)
    return probes


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
    start = density_from_pure(symmetric_start(sched.steps))
    ends = [run_walk(start, sched.with_visibility(v))[0].at_site(0)[-1] for v in (0.0, 1.0)]
    target = ends[0] + fraction * (ends[1] - ends[0])
    probes = record_probes(monkeypatch)
    bisect_visibility(sched, target, tol=1e-9)
    assert [v for v, _ in probes[:2]] == [0.0, 1.0]
    below = (probes[0][1] < target, probes[1][1] < target)
    assert below[0] != below[1]
    for i, (v, p0) in enumerate(probes[2:], start=2):
        # p0 is monotone, so the bracket is the closest probe on either side of the target
        lo = max(u for u, q in probes[:i] if (q < target) == below[0])
        hi = min(u for u, q in probes[:i] if (q < target) == below[1])
        assert lo < v < hi
        # and p0 - target changes sign across it
        assert (dict(probes[:i])[lo] < target) != (dict(probes[:i])[hi] < target)


@pytest.mark.parametrize(
    "steps, theta_pi, omega_pi, visibility_1024",
    [(16, 0, (1, 36), 925), (16, 1 / 4, (1, 9), 963), (24, 0, (1, 52), 951),
     (24, 0, (1, 12), 987), (24, 0, (5, 24), 1003)],
)
def test_bench_style_calibrations_take_at_most_ten_probes(
    monkeypatch, steps, theta_pi, omega_pi, visibility_1024
):
    # revivals whose p0 dephasing moves, at an odd multiple of 1/1024 in [0.9, 0.99],
    # on which bisection of [0, 1] makes 12 probes
    sched = WalkSchedule(math.pi * theta_pi, math.pi * omega_pi[0] / omega_pi[1], steps)
    start = density_from_pure(symmetric_start(steps))
    target = run_walk(start, sched.with_visibility(visibility_1024 / 1024))[0].at_site(0)[-1]
    probes = record_probes(monkeypatch)
    _, achieved = bisect_visibility(sched, target)
    assert abs(achieved - target) <= 1e-4
    assert len(probes) <= 10


def test_calibration_where_p0_is_flat_then_steep_takes_at_most_twelve_probes(monkeypatch):
    # p0 barely moves over most of [0, 1] and then rises steeply; regula falsi
    # alone, its Anderson-Bjorck factor near 0, took 22 probes here
    sched = WalkSchedule(0.122, 1.493, 20)
    start = density_from_pure(symmetric_start(20))
    ends = [run_walk(start, sched.with_visibility(v))[0].at_site(0)[-1] for v in (0.0, 1.0)]
    target = ends[0] + 0.017 * (ends[1] - ends[0])
    probes = record_probes(monkeypatch)
    _, achieved = bisect_visibility(sched, target)
    assert abs(achieved - target) <= 1e-4
    assert len(probes) <= 12


@pytest.mark.parametrize("fraction", [1e-3, 1.0 - 1e-3])
def test_calibration_converges_on_a_target_near_an_end(monkeypatch, fraction):
    sched = WalkSchedule(0.0, math.pi / 8, 16)
    start = density_from_pure(symmetric_start(16))
    ends = [run_walk(start, sched.with_visibility(v))[0].at_site(0)[-1] for v in (0.0, 1.0)]
    target = ends[0] + fraction * (ends[1] - ends[0])
    tol = 1e-6
    assert min(abs(end - target) for end in ends) > tol
    probes = record_probes(monkeypatch)
    _, achieved = bisect_visibility(sched, target, tol=tol)
    assert abs(achieved - target) <= tol
    assert len(probes) <= evolution.BISECT_MAX_ROUNDS + 2
