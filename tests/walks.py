"""Helpers the tests share for the library's walks and states; unlike `oracles`, they call the library."""

import numpy as np

from rampwalk import evolution
from rampwalk.analysis import classify
from rampwalk.states import CoinVector, Lattice, PositionDistribution, WalkerCoinPureState


def walk(schedule):
    """(distributions, final) of the walk `classify` summarises: pure at visibility 1, dephased below."""
    report = classify(schedule)
    return report.distributions, report.final


def ring(coins, starts=np.zeros((2, 0)), slots=2):
    """A zeroed ring of `slots` for `evolution._origin_walk(coins, ring, starts)`: (S, 2, 2T + 1, G + K)."""
    count = coins.shape[1] if coins.ndim == 4 else 1
    return np.zeros((slots, 2, 2 * len(coins) + 1, count + starts.shape[1]), dtype=np.complex128)


def origin_walk(coins, starts=np.zeros((2, 0)), slots=2):
    """Every amplitude array `evolution._origin_walk` yields, the start first, each copied out of its ring."""
    return [amps.copy() for amps in evolution._origin_walk(coins, ring(coins, starts, slots), starts)]


BASIS_1 = np.eye(2)[:, 1:]  # basis coin 1 as a start column (2, 1)


def mirror(amps):
    """The walks from basis coin 1 that mirror walks `amps` (2, m, G) from basis coin 0, each on the sites -k..k.

    e1[0, x] = -conj(e0[1, -x]) and e1[1, x] = conj(e0[0, -x]).
    """
    return np.stack((-np.conj(amps[1, ::-1]), np.conj(amps[0, ::-1])))


def origin_blocks(coins):
    """The blocks (G, 2T + 1, 2, 2) after the last step of `evolution._origin_walk`, read as its callers read them.

    One walk's (T, 2, 2) stack walks basis coin 1 as a start column, as `classify` does; a (T, G, 2, 2)
    stack's walks from basis coin 1 are the mirror of its walks from basis coin 0, as the scan reads them.
    """
    if coins.ndim == 3:
        for amps in evolution._origin_walk(coins, ring(coins, BASIS_1), BASIS_1):
            pass
        return evolution._blocks(np.stack((amps[..., :1], amps[..., 1:])))
    for amps in evolution._origin_walk(coins, ring(coins)):
        pass
    return evolution._blocks(np.stack((amps, mirror(amps))))


def grown_step(entries, amps):
    """`evolution._coin_and_shift` into a fresh zeroed window one site wider each way: (..., 2, m + 2, G)."""
    out = np.zeros((*amps.shape[:-2], amps.shape[-2] + 2, amps.shape[-1]), dtype=np.complex128)
    evolution._coin_and_shift(entries, amps, out)
    return out


def fresh_step(entries, amps):
    """A frozen copy of the growing-window step that allocated its own zeroed output, (..., 2, m + 2, G).

    The ring walk must yield its windows bit for bit, signed zeros included.
    """
    c00, c01, c10, c11 = entries
    plus, minus = amps[..., 0, :, :], amps[..., 1, :, :]
    out = np.zeros((*amps.shape[:-2], amps.shape[-2] + 2, amps.shape[-1]), dtype=np.complex128)
    up, down = out[..., 0, 2:, :], out[..., 1, :-2, :]
    np.multiply(c00, plus, out=up)
    up += c01 * minus
    np.multiply(c10, plus, out=down)
    down += c11 * minus
    return out


def start_state(steps, coin=CoinVector.symmetric()):
    """The pure state of `coin` at the origin of `Lattice.for_steps(steps)`."""
    lattice = Lattice.for_steps(steps)
    amps = np.zeros((lattice.size, 2), dtype=np.complex128)
    amps[lattice.index(0)] = coin.as_array()
    return WalkerCoinPureState(lattice, amps)


def distribution(state):
    """The position distribution of a pure state or a density matrix, the coin traced out, as a one-row stack."""
    if isinstance(state, WalkerCoinPureState):
        probs = np.sum(np.abs(state.amplitudes) ** 2, axis=1)
    else:
        probs = np.real(np.diag(state.matrix)).reshape(-1, 2).sum(axis=1)
    return PositionDistribution(state.lattice, probs[None])


def scatter(lattice, block):
    """A frozen copy of the dense (2n, 2n) matrix the dephased walk once built from its class block.

    Step k's block (2, 2, k + 1, k + 1) holds the light cone's sites -k, -k + 2, ..., k, written at
    stride 2, rows and columns alike, flattened index 2 * site_index + coin; zero elsewhere.
    """
    n, origin, k = lattice.size, lattice.index(0), block.shape[2] - 1
    matrix = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    cone = slice(origin - k, origin + k + 1, 2)
    matrix.reshape(n, 2, n, 2)[cone, :, cone, :] = block.transpose(2, 0, 3, 1)
    return matrix


def dense_reduced_coin(matrix):
    """A frozen copy of the reduced coin state once traced from the whole (2n, 2n) matrix."""
    n = len(matrix) // 2
    return np.einsum("xixj->ij", matrix.reshape(n, 2, n, 2))


def same_bits(a, b):
    """Equal shapes, dtypes and bits in every entry, so signed zeros and NaN count."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a.view(np.uint8), b.view(np.uint8))


def full_lattice_step(entries, amps):
    """A frozen copy of the fixed-lattice coin-and-shift step: (..., 2, n, G) in, (..., 2, n, G) out.

    What it shifts past either edge is dropped, and the two rows nothing shifts
    into (plus at the first site, minus at the last) are zero. It is the growing
    window's step cropped by one site at each end, bit for bit.
    """
    c00, c01, c10, c11 = entries
    plus, minus = amps[..., 0, :, :], amps[..., 1, :, :]
    out = np.empty_like(amps)
    up, down = out[..., 0, 1:, :], out[..., 1, :-1, :]
    np.multiply(c00, plus[..., :-1, :], out=up)
    up += c01 * minus[..., :-1, :]
    np.multiply(c10, plus[..., 1:, :], out=down)
    down += c11 * minus[..., 1:, :]
    out[..., 0, 0, :] = out[..., 1, -1, :] = 0.0
    return out
