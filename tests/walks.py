"""Helpers the tests share for the library's walks and states; unlike `oracles`, they call the library."""

import numpy as np

from rampwalk import evolution
from rampwalk.analysis import classify
from rampwalk.states import CoinVector, Lattice, PositionDistribution, WalkerCoinPureState


def walk(schedule):
    """(distributions, final) of the walk `classify` summarises: pure at visibility 1, dephased below."""
    report = classify(schedule)
    return report.distributions, report.final


def origin_blocks(coins):
    """The blocks (G, 2T + 1, 2, 2) of `evolution._origin_walk(coins)` after its last step."""
    for amps in evolution._origin_walk(coins):
        pass
    return evolution._blocks(amps)


def start_state(steps, coin=CoinVector.symmetric()):
    """The pure state of `coin` at the origin of `Lattice.for_steps(steps)`."""
    lattice = Lattice.for_steps(steps)
    amps = np.zeros((lattice.size, 2), dtype=np.complex128)
    amps[lattice.index(0)] = coin.as_array()
    return WalkerCoinPureState(lattice, amps)


def distribution(state):
    """The position distribution of a pure state or a density matrix, the coin traced out."""
    if isinstance(state, WalkerCoinPureState):
        probs = np.sum(np.abs(state.amplitudes) ** 2, axis=1)
    else:
        probs = np.real(np.diag(state.matrix)).reshape(-1, 2).sum(axis=1)
    return PositionDistribution(state.lattice, probs)


def same_bits(a, b):
    """Equal shapes, dtypes and bits in every entry, so signed zeros and NaN count."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a.view(np.uint8), b.view(np.uint8))
