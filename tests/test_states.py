import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rampwalk import states
from rampwalk.states import (
    CoinVector,
    Lattice,
    PositionDistribution,
    WalkerCoinDensityMatrix,
    WalkerCoinPureState,
    _overlap,
    reduced_coin_state,
)


def random_pure_state(lattice: Lattice, seed: int) -> WalkerCoinPureState:
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(lattice.size, 2)) + 1j * rng.normal(size=(lattice.size, 2))
    return WalkerCoinPureState(lattice, raw / np.linalg.norm(raw))


def density_from_pure(state: WalkerCoinPureState) -> np.ndarray:
    """The rank-one density matrix |psi><psi| (2n, 2n) of a pure state, flattened index 2 * site_index + coin."""
    vec = state.amplitudes.reshape(-1)
    return np.outer(vec, vec.conj())


def random_class_state(lattice: Lattice, seed: int) -> WalkerCoinPureState:
    """A random pure state zero off the sites min_site, min_site + 2, ... of the lattice."""
    amps = random_pure_state(lattice, seed).amplitudes.copy()
    amps[1::2] = 0.0
    return WalkerCoinPureState(lattice, amps / np.linalg.norm(amps))


def block_from_pure(state: WalkerCoinPureState) -> WalkerCoinDensityMatrix:
    """|psi><psi| of a pure state zero off the sites min_site, min_site + 2, ..., as its class block."""
    amps = state.amplitudes[::2]  # (m, 2)
    block = amps.T[:, None, :, None] * amps.conj().T[None, :, None, :]  # block[i, j, u, v]
    return WalkerCoinDensityMatrix(state.lattice, block)


def block_of(rho: np.ndarray) -> np.ndarray:
    """The block (2, 2, m, m) of a (2m, 2m) matrix with index 2 * u + coin."""
    m = len(rho) // 2
    return rho.reshape(m, 2, m, 2).transpose(1, 3, 0, 2)


def test_lattice_basics():
    lat = Lattice(-3, 5)
    assert lat.size == 9
    assert lat.index(-3) == 0
    assert lat.index(0) == 3
    assert lat.index(5) == 8
    assert list(lat.sites()) == list(range(-3, 6))


def test_lattice_must_contain_origin():
    with pytest.raises(ValueError):
        Lattice(1, 5)
    with pytest.raises(ValueError):
        Lattice(-5, -1)


def test_lattice_index_out_of_range():
    lat = Lattice(-2, 2)
    with pytest.raises(ValueError):
        lat.index(3)
    with pytest.raises(ValueError):
        lat.index(-3)


def test_lattice_for_steps_is_the_light_cone():
    for steps in range(5):
        lat = Lattice.for_steps(steps)
        assert (lat.min_site, lat.max_site) == (-steps, steps) and lat.size == 2 * steps + 1
    with pytest.raises(ValueError):
        Lattice.for_steps(-1)


def test_coin_vector_norm_enforced():
    CoinVector(1.0, 0.0)
    CoinVector.symmetric()
    with pytest.raises(ValueError):
        CoinVector(1.0, 1.0)
    with pytest.raises(ValueError):
        CoinVector(0.0, 0.0)


def test_symmetric_coin_components():
    coin = CoinVector.symmetric()
    assert abs(coin.plus - 1.0 / math.sqrt(2.0)) < 1e-15
    assert abs(coin.minus - 1j / math.sqrt(2.0)) < 1e-15


def test_pure_state_validation():
    lat = Lattice(-1, 1)
    good = np.zeros((3, 2), dtype=complex)
    good[1, 0] = 1.0
    WalkerCoinPureState(lat, good)
    with pytest.raises(ValueError):
        WalkerCoinPureState(lat, 2.0 * good)
    with pytest.raises(ValueError):
        WalkerCoinPureState(lat, np.zeros((4, 2), dtype=complex))


def test_position_distribution_validation():
    lat = Lattice(-1, 1)
    with pytest.raises(ValueError, match="deviates from 1"):
        PositionDistribution(lat, np.array([[0.5, 0.6, 0.2]]))
    with pytest.raises(ValueError, match="outside"):
        PositionDistribution(lat, np.array([[-0.1, 0.6, 0.5]]))
    with pytest.raises(ValueError, match="shape"):
        PositionDistribution(lat, np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError, match="outside"):
        PositionDistribution(lat, np.array([[math.nan, 1.0, 0.0]]))
    # a (T + 1, n) stack: every row is checked
    good = [0.25, 0.5, 0.25]
    assert PositionDistribution(lat, np.array([good, [0.0, 1.0, 0.0]])).probabilities.shape == (2, 3)
    assert PositionDistribution(lat, np.empty((0, 3))).probabilities.shape == (0, 3)
    for bad_row, message in (
        ([0.5, 0.5 + 1e-9, 0.0], "deviates from 1"),
        ([-0.1, 0.6, 0.5], "outside"),
        ([0.5, math.nan, 0.5], "outside"),
    ):
        with pytest.raises(ValueError, match=message):
            PositionDistribution(lat, np.array([good, bad_row, good]))
    # one distribution is a one-row stack: a 1-D row is refused
    for shape in ((2, 2), (2, 4), (1, 2, 3), (), (3,)):
        with pytest.raises(ValueError, match="shape"):
            PositionDistribution(lat, np.full(shape, 0.5))


def test_at_site_of_a_stack_is_the_column_of_its_rows():
    lat = Lattice(-3, 3)
    rng = np.random.default_rng(5)
    rows = rng.random((6, lat.size))
    rows /= rows.sum(axis=1, keepdims=True)
    stack = PositionDistribution(lat, rows)
    for site in lat.sites().tolist():
        per_row = [PositionDistribution(lat, row[None]).at_site(site) for row in rows]
        assert all(value.shape == (1,) for value in per_row)
        column = stack.at_site(site)
        assert column.shape == (6,)
        assert np.array_equal(column, np.concatenate(per_row))


def test_density_matrix_validation():
    # blocks on the sites -1 and 1 of [-1, 1]; index 2 * u + coin below
    lat = Lattice(-1, 1)
    good = np.zeros((4, 4), dtype=complex)
    good[0, 0] = good[3, 3] = 0.5
    state = WalkerCoinDensityMatrix(lat, block_of(good))
    assert state.block.shape == (2, 2, 2, 2)
    assert state.matrix[0, 0] == state.matrix[5, 5] == 0.5 and np.count_nonzero(state.matrix) == 2
    # on [-1, 2] too the block holds the sites -1 and 1: the class from min_site, (n + 1) // 2 sites
    wider = WalkerCoinDensityMatrix(Lattice(-1, 2), block_of(good)).matrix
    assert wider.shape == (8, 8) and wider[0, 0] == wider[5, 5] == 0.5 and np.count_nonzero(wider) == 2
    with pytest.raises(ValueError, match="trace"):
        WalkerCoinDensityMatrix(lat, block_of(np.eye(4)))  # trace 4, not 1
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 0] = 1.0
    skew[0, 1] = 1.0
    with pytest.raises(ValueError, match="not Hermitian"):
        WalkerCoinDensityMatrix(lat, block_of(skew))
    # rho[3, 1] != 0 = rho[1, 3], and rows and columns 1 and 3 hold nothing else:
    # every entry counts, a lone one below the diagonal too
    one_sided = np.zeros((4, 4), dtype=complex)
    one_sided[0, 0] = one_sided[2, 2] = 0.5
    one_sided[3, 1] = 1e-3
    with pytest.raises(ValueError, match=r"not Hermitian \(defect 1.000e-03\)"):
        WalkerCoinDensityMatrix(lat, block_of(one_sided))
    negative = np.zeros((4, 4), dtype=complex)
    negative[0, 0] = 1.5
    negative[1, 1] = -0.5
    with pytest.raises(ValueError, match="negative eigenvalue"):
        WalkerCoinDensityMatrix(lat, block_of(negative))
    # NaN fails every bound, on the diagonal and off it
    for entry in ((3, 3), (0, 1)):
        poisoned = good.copy()
        poisoned[entry] = math.nan
        with pytest.raises(ValueError):
            WalkerCoinDensityMatrix(lat, block_of(poisoned))
    for shape in ((2, 2, 2, 3), (2, 2, 4), (4, 4), (1, 1, 2, 2), (2, 2, 0, 0), (2, 3, 2, 2), (2, 2, 1, 1)):
        with pytest.raises(ValueError, match="block shape"):
            WalkerCoinDensityMatrix(lat, np.zeros(shape, dtype=complex))
    # the block holds exactly the lattice's class sites: two on [-1, 1], three on [-2, 2]
    for lattice in (Lattice(-2, 2), Lattice(0, 0), Lattice(-3, 1)):
        with pytest.raises(ValueError, match="block shape"):
            WalkerCoinDensityMatrix(lattice, block_of(good))


@given(st.integers(min_value=0, max_value=10_000))
def test_reduced_coin_routes_agree(seed):
    lat = Lattice(-3 + seed % 2, 3)  # the class of the odd sites of [-3, 3], or of the even ones
    state = random_class_state(lat, seed)
    from_pure = reduced_coin_state(state)
    from_density = reduced_coin_state(block_from_pure(state))
    assert np.max(np.abs(from_pure - from_density)) < 1e-12


@given(st.integers(min_value=0, max_value=10_000))
def test_reduced_states_are_valid_densities(seed):
    lat = Lattice(-3, 3)
    state = random_pure_state(lat, seed)
    rho = reduced_coin_state(state)
    assert abs(np.trace(rho) - 1.0) < 1e-10
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert float(np.min(np.linalg.eigvalsh(rho))) > -1e-10


@given(st.integers(min_value=0, max_value=10_000))
def test_coin_purity_range(seed):
    lat = Lattice(-3, 3)
    state = random_pure_state(lat, seed)
    rho = reduced_coin_state(state)
    value = float(np.real(np.trace(rho @ rho)))
    assert 0.5 - 1e-10 <= value <= 1.0 + 1e-10


def test_reduced_coin_state_of_product_and_entangled_states():
    # the product on the sites -2, 0, 2 of [-2, 2], the entangled state on -1, 1 of [-1, 1]
    coin = CoinVector.symmetric().as_array()
    product_amps = np.zeros((5, 2), dtype=complex)
    product_amps[2] = coin
    product = WalkerCoinPureState(Lattice(-2, 2), product_amps)
    lat = Lattice(-1, 1)
    entangled_amps = np.zeros((lat.size, 2), dtype=complex)
    entangled_amps[lat.index(-1), 0] = entangled_amps[lat.index(1), 1] = 1 / math.sqrt(2)
    entangled = WalkerCoinPureState(lat, entangled_amps)
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
    lat = Lattice(-3, 3)
    state = random_pure_state(lat, seed)
    rho = reduced_coin_state(state)
    value = _overlap(rho, CoinVector.symmetric())
    assert -1e-10 <= value <= 1.0 + 1e-10


def test_coin_overlap_pure_case():
    coin = CoinVector.symmetric()
    lat = Lattice(-1, 1)
    amps = np.zeros((lat.size, 2), dtype=complex)
    amps[lat.index(0)] = coin.as_array()
    rho = reduced_coin_state(WalkerCoinPureState(lat, amps))
    assert _overlap(rho, coin) == pytest.approx(1.0, abs=1e-12)
    orthogonal = CoinVector(1.0 / math.sqrt(2.0), -1j / math.sqrt(2.0))
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
    reach = seed % 25
    lattice = Lattice(-reach, reach)
    rho = density_from_pure(random_pure_state(lattice, seed))
    assert psd_check_accepts(rho) and eigvalsh_accepts(rho)


def test_psd_check_rejects_nan():
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    for entry in ((2, 2), (1, 2)):
        poisoned = rho.copy()
        poisoned[entry] = math.nan
        assert not psd_check_accepts(poisoned)
