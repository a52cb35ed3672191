import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rampwalk import states
from rampwalk.states import (
    START_COIN,
    PositionDistribution,
    WalkerCoinDensityMatrix,
    WalkerCoinPureState,
    _overlap,
    reduced_coin_state,
)


def random_pure_state(steps: int, seed: int) -> WalkerCoinPureState:
    """A random pure state on the 2 steps + 1 sites -steps..steps."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(2 * steps + 1, 2)) + 1j * rng.normal(size=(2 * steps + 1, 2))
    return WalkerCoinPureState(raw / np.linalg.norm(raw))


def density_from_pure(state: WalkerCoinPureState) -> np.ndarray:
    """The rank-one density matrix |psi><psi| (2n, 2n) of a pure state, flattened index 2 * site_index + coin."""
    vec = state.amplitudes.reshape(-1)
    return np.outer(vec, vec.conj())


def random_class_state(steps: int, seed: int) -> WalkerCoinPureState:
    """A random pure state zero off the sites -steps, -steps + 2, ..., steps."""
    amps = random_pure_state(steps, seed).amplitudes.copy()
    amps[1::2] = 0.0
    return WalkerCoinPureState(amps / np.linalg.norm(amps))


def block_from_pure(state: WalkerCoinPureState) -> WalkerCoinDensityMatrix:
    """|psi><psi| of a pure state zero off the sites -T, -T + 2, ..., T, as its class block."""
    amps = state.amplitudes[::2]  # (T + 1, 2)
    block = amps.T[:, None, :, None] * amps.conj().T[None, :, None, :]  # block[i, j, u, v]
    return WalkerCoinDensityMatrix(block)


def block_of(rho: np.ndarray) -> np.ndarray:
    """The block (2, 2, m, m) of a (2m, 2m) matrix with index 2 * u + coin."""
    m = len(rho) // 2
    return rho.reshape(m, 2, m, 2).transpose(1, 3, 0, 2)


def test_states_read_the_light_cone_from_their_shape():
    # a T-step walk lives on the 2T + 1 sites -T..T: every state takes T from its array
    for steps in range(5):
        n = 2 * steps + 1
        pure = random_pure_state(steps, steps)
        assert pure.amplitudes.shape == (n, 2)
        rho = block_from_pure(random_class_state(steps, steps))
        assert rho.block.shape == (2, 2, steps + 1, steps + 1) and rho.matrix.shape == (2 * n, 2 * n)
        stack = PositionDistribution(np.full((steps + 1, n), 1.0 / n))
        for site in (-steps, 0, steps):
            assert stack.at_site(site).shape == (steps + 1,)


@given(st.integers(min_value=0, max_value=10_000))
def test_matrix_of_a_class_block_is_the_dense_operator_on_the_light_cone(seed):
    # the block of T + 1 sites is the class -T, -T + 2, ..., T of the n = 2T + 1 sites -T..T
    state = random_class_state(seed % 6, seed)
    assert np.array_equal(block_from_pure(state).matrix, density_from_pure(state))


def test_at_site_outside_the_light_cone():
    for steps in range(4):
        stack = PositionDistribution(np.full((steps + 1, 2 * steps + 1), 1.0 / (2 * steps + 1)))
        for site in (steps + 1, -(steps + 1)):
            with pytest.raises(ValueError, match="outside the light cone"):
                stack.at_site(site)


def test_at_site_refuses_a_non_integer_site():
    stack = PositionDistribution(np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5]]))
    for site in (0.5, -0.5, 1.0, "0", None):
        with pytest.raises(ValueError, match="not an integer"):
            stack.at_site(site)
    # any integer type indexes a column
    assert np.array_equal(stack.at_site(np.int64(-1)), [0.0, 0.5])


def test_start_coin_is_the_read_only_symmetric_coin():
    assert START_COIN.tolist() == [1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0)]
    with pytest.raises(ValueError):
        START_COIN[1] = 0.0


def test_pure_state_validation():
    # amplitudes on the sites -1..1
    good = np.zeros((3, 2), dtype=complex)
    good[1, 0] = 1.0
    WalkerCoinPureState(good)
    with pytest.raises(ValueError):
        WalkerCoinPureState(2.0 * good)
    # a (2T + 1, 2) array and no other
    for shape in ((4, 2), (3, 3), (2, 2), (6,), (1, 3, 2)):
        amps = np.zeros(shape, dtype=complex)
        amps.flat[0] = 1.0
        with pytest.raises(ValueError, match="amplitude shape"):
            WalkerCoinPureState(amps)


def test_position_distribution_validation():
    # two-row stacks on the sites -1..1, the start and the walk after one step
    start = [0.0, 1.0, 0.0]
    with pytest.raises(ValueError, match="deviates from 1"):
        PositionDistribution(np.array([start, [0.5, 0.6, 0.2]]))
    with pytest.raises(ValueError, match="outside"):
        PositionDistribution(np.array([start, [-0.1, 0.6, 0.5]]))
    with pytest.raises(ValueError, match="outside"):
        PositionDistribution(np.array([start, [math.nan, 1.0, 0.0]]))
    # a (T + 1, 2T + 1) stack: every row is checked
    good = [0.25, 0.5, 0.25]
    assert PositionDistribution(np.array([good, start])).probabilities.shape == (2, 3)
    assert PositionDistribution(np.array([[1.0]])).probabilities.shape == (1, 1)
    wide = [0.25, 0.0, 0.5, 0.0, 0.25]
    for bad_row, message in (
        ([0.5, 0.5 + 1e-9, 0.0, 0.0, 0.0], "deviates from 1"),
        ([-0.1, 0.6, 0.5, 0.0, 0.0], "outside"),
        ([0.5, math.nan, 0.5, 0.0, 0.0], "outside"),
    ):
        with pytest.raises(ValueError, match=message):
            PositionDistribution(np.array([wide, bad_row, wide]))
    # one distribution is a one-row stack of one site: a 1-D row, or any stack not on a light cone, is refused
    for shape in ((1, 2), (2, 2), (2, 4), (3, 3), (1, 3), (0, 3), (0, 1), (1, 2, 3), (), (3,)):
        with pytest.raises(ValueError, match="shape"):
            PositionDistribution(np.full(shape, 0.5))


def test_at_site_of_a_stack_is_the_column_of_its_rows():
    # site x of -T..T is column x + T
    rng = np.random.default_rng(5)
    rows = rng.random((4, 7))
    rows /= rows.sum(axis=1, keepdims=True)
    stack = PositionDistribution(rows)
    for site in range(-3, 4):
        column = stack.at_site(site)
        assert column.shape == (4,)
        assert np.array_equal(column, rows[:, site + 3])


def test_density_matrix_validation():
    # blocks on the sites -1 and 1 of -1..1; index 2 * u + coin below
    good = np.zeros((4, 4), dtype=complex)
    good[0, 0] = good[3, 3] = 0.5
    state = WalkerCoinDensityMatrix(block_of(good))
    assert state.block.shape == (2, 2, 2, 2)
    assert state.matrix.shape == (6, 6)
    assert state.matrix[0, 0] == state.matrix[5, 5] == 0.5 and np.count_nonzero(state.matrix) == 2
    # the walk of no steps: one site, the origin
    origin = WalkerCoinDensityMatrix(block_of(np.diag([0.5, 0.5]).astype(complex)))
    assert np.array_equal(origin.matrix, np.diag([0.5, 0.5]))
    with pytest.raises(ValueError, match="trace"):
        WalkerCoinDensityMatrix(block_of(np.eye(4)))  # trace 4, not 1
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 0] = 1.0
    skew[0, 1] = 1.0
    with pytest.raises(ValueError, match="not Hermitian"):
        WalkerCoinDensityMatrix(block_of(skew))
    # rho[3, 1] != 0 = rho[1, 3], and rows and columns 1 and 3 hold nothing else:
    # every entry counts, a lone one below the diagonal too
    one_sided = np.zeros((4, 4), dtype=complex)
    one_sided[0, 0] = one_sided[2, 2] = 0.5
    one_sided[3, 1] = 1e-3
    with pytest.raises(ValueError, match=r"not Hermitian \(defect 1.000e-03\)"):
        WalkerCoinDensityMatrix(block_of(one_sided))
    negative = np.zeros((4, 4), dtype=complex)
    negative[0, 0] = 1.5
    negative[1, 1] = -0.5
    with pytest.raises(ValueError, match="negative eigenvalue"):
        WalkerCoinDensityMatrix(block_of(negative))
    # NaN fails every bound, on the diagonal and off it
    for entry in ((3, 3), (0, 1)):
        poisoned = good.copy()
        poisoned[entry] = math.nan
        with pytest.raises(ValueError):
            WalkerCoinDensityMatrix(block_of(poisoned))
    # a (2, 2, T + 1, T + 1) block and no other
    for shape in ((2, 2, 2, 3), (2, 2, 3, 2), (2, 2, 4), (4, 4), (1, 1, 2, 2), (2, 2, 0, 0), (2, 3, 2, 2)):
        with pytest.raises(ValueError, match="block shape"):
            WalkerCoinDensityMatrix(np.zeros(shape, dtype=complex))


@given(st.integers(min_value=0, max_value=10_000))
def test_reduced_coin_routes_agree(seed):
    steps = 2 + seed % 2  # the class of the even sites of -2..2, or of the odd ones of -3..3
    state = random_class_state(steps, seed)
    from_pure = reduced_coin_state(state)
    from_density = reduced_coin_state(block_from_pure(state))
    assert np.max(np.abs(from_pure - from_density)) < 1e-12


@given(st.integers(min_value=0, max_value=10_000))
def test_reduced_states_are_valid_densities(seed):
    state = random_pure_state(3, seed)
    rho = reduced_coin_state(state)
    assert abs(np.trace(rho) - 1.0) < 1e-10
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert float(np.min(np.linalg.eigvalsh(rho))) > -1e-10


@given(st.integers(min_value=0, max_value=10_000))
def test_coin_purity_range(seed):
    state = random_pure_state(3, seed)
    rho = reduced_coin_state(state)
    value = float(np.real(np.trace(rho @ rho)))
    assert 0.5 - 1e-10 <= value <= 1.0 + 1e-10


def test_reduced_coin_state_of_product_and_entangled_states():
    # the product on the sites -2, 0, 2 of -2..2, the entangled state on -1, 1 of -1..1
    coin = START_COIN
    product_amps = np.zeros((5, 2), dtype=complex)
    product_amps[2] = coin
    product = WalkerCoinPureState(product_amps)
    entangled_amps = np.zeros((3, 2), dtype=complex)
    entangled_amps[0, 0] = entangled_amps[2, 1] = 1 / math.sqrt(2)
    entangled = WalkerCoinPureState(entangled_amps)
    for state, expected, purity in (
        (product, np.outer(coin, coin.conj()), 1.0),
        (entangled, 0.5 * np.eye(2), 0.5),
    ):
        for route in (state, block_from_pure(state)):
            rho = reduced_coin_state(route)
            assert np.max(np.abs(rho - expected)) < 1e-12
            assert float(np.real(np.trace(rho @ rho))) == pytest.approx(purity, abs=1e-12)


@given(st.integers(min_value=0, max_value=10_000))
def test_coin_overlap_bounds(seed):
    state = random_pure_state(3, seed)
    rho = reduced_coin_state(state)
    value = _overlap(rho, START_COIN)
    assert -1e-10 <= value <= 1.0 + 1e-10


def test_coin_overlap_pure_case():
    amps = np.zeros((3, 2), dtype=complex)
    amps[1] = START_COIN  # the origin of -1..1
    rho = reduced_coin_state(WalkerCoinPureState(amps))
    assert _overlap(rho, START_COIN) == pytest.approx(1.0, abs=1e-12)
    orthogonal = np.array([1.0 / math.sqrt(2.0), -1j / math.sqrt(2.0)])
    assert _overlap(rho, orthogonal) == pytest.approx(0.0, abs=1e-12)


def psd_check_accepts(rho):
    try:
        states._check_density(rho, "rho")
    except ValueError:
        return False
    return True


def eigvalsh_accepts(rho):
    """The verdict the Cholesky check must give: lowest eigenvalue at least -1e-8."""
    return float(np.min(np.linalg.eigvalsh(rho))) >= -1e-8


def threshold_state(dim, offset, rng):
    """A Hermitian trace-one (dim, dim) matrix whose lowest eigenvalue is -1e-8 + offset."""
    unitary, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    lowest = -1e-8 + offset
    rest = rng.uniform(size=dim - 1)
    rest *= (1.0 - lowest) / rest.sum()
    rho = (unitary * np.concatenate(([lowest], rest))) @ unitary.conj().T
    return 0.5 * (rho + rho.conj().T)


@pytest.mark.parametrize("dim", [2, 14, 202])
@pytest.mark.parametrize("offset", [-1e-10, 1e-10])
def test_psd_check_gives_the_eigvalsh_verdict_at_the_threshold(dim, offset):
    rho = threshold_state(dim, offset, np.random.default_rng(dim))
    assert psd_check_accepts(rho) == eigvalsh_accepts(rho) == (offset > 0)
    if offset < 0:
        with pytest.raises(ValueError, match="negative eigenvalue -1.01"):
            states._check_density(rho, "rho")


@pytest.mark.parametrize("dim", [2, 14, 202])
@pytest.mark.parametrize("offset", [-1e-10, 1e-10])
def test_psd_check_on_the_support_gives_the_full_eigvalsh_verdict(dim, offset):
    # the threshold states above, embedded in zero rows and columns
    rng = np.random.default_rng(dim)
    block = threshold_state(dim, offset, rng)
    size = 2 * dim + 3
    support = np.sort(rng.choice(size, size=dim, replace=False))
    rho = np.zeros((size, size), dtype=np.complex128)
    rho[np.ix_(support, support)] = block
    assert psd_check_accepts(rho) == eigvalsh_accepts(rho) == (offset > 0)
    if offset < 0:
        with pytest.raises(ValueError, match="negative eigenvalue -1.01"):
            states._check_density(rho, "rho")


@given(st.integers(min_value=0, max_value=10_000))
def test_psd_check_accepts_rank_one_states(seed):
    rho = density_from_pure(random_pure_state(seed % 25, seed))
    assert psd_check_accepts(rho) and eigvalsh_accepts(rho)


def test_psd_check_rejects_nan():
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    for entry in ((2, 2), (1, 2)):
        poisoned = rho.copy()
        poisoned[entry] = math.nan
        assert not psd_check_accepts(poisoned)
