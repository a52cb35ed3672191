"""Walker-coin states of a T-step walk from the origin, on its light cone.

Every walk starts from ``START_COIN``, the read-only symmetric coin
(|plus> + i|minus>) / sqrt(2), at the origin. Every step moves the
walker one site, so a T-step walk lives on the n = 2T + 1 sites -T..T,
and each state reads T from its array's shape, refusing any shape that
is not a light cone. A pure state stores one
complex amplitude per (site, coin) pair in an array of shape
``(2T + 1, 2)``. A density matrix stores the one parity class it lights,
a ``(2, 2, T + 1, T + 1)`` block on the sites -T, -T + 2, ..., T, and
builds the dense ``(2n, 2n)`` operator only when asked. A walk's
position distributions are one ``(T + 1, 2T + 1)`` stack, row t the
walk after t steps, from which the origin probability and the distance
from the start are read per row. Coin basis ordering is ``[plus, minus]``
throughout.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

STATE_NORM_TOL = 1e-10
DENSITY_TOL = 1e-10
PSD_TOL = 1e-8
DISTANCE_BLOCK_SITES = 12_800  # rows times sites of the one temporary of a distance series, at least one row
START_COIN = np.array([1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0)])
START_COIN.flags.writeable = False


@dataclass(frozen=True)
class WalkerCoinPureState:
    """Pure state: amplitude array of shape (2T + 1, 2) on the sites -T..T, unit norm."""

    amplitudes: NDArray[np.complex128]

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 2 or amps.shape[1] != 2 or amps.shape[0] % 2 != 1:
            raise ValueError(f"amplitude shape {amps.shape} is not (2T + 1, 2)")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if not math.isfinite(norm_sq) or abs(norm_sq - 1.0) > STATE_NORM_TOL:
            raise ValueError(f"state norm^2 deviates from 1 by {abs(norm_sq - 1.0):.3e}")


@dataclass(frozen=True)
class WalkerCoinDensityMatrix:
    """Mixed state zero off one parity class: ``block[i, j, u, v]`` is rho[(2u - T, i), (2v - T, j)].

    Its (2, 2, T + 1, T + 1) block holds the sites -T, -T + 2, ..., T, the
    class every dephased T-step walk from the origin lights; it is checked
    as one (2(T + 1), 2(T + 1)) matrix.
    """

    block: NDArray[np.complex128]

    def __post_init__(self) -> None:
        block = np.asarray(self.block, dtype=np.complex128)
        object.__setattr__(self, "block", block)
        if block.ndim != 4 or block.shape[:2] != (2, 2) or block.shape[2] != block.shape[3] or block.shape[2] < 1:
            raise ValueError(f"block shape {block.shape} is not (2, 2, T + 1, T + 1)")
        m = block.shape[2]
        _check_density(block.transpose(2, 0, 3, 1).reshape(2 * m, 2 * m), "density block")

    @property
    def matrix(self) -> NDArray[np.complex128]:
        """The dense (2n, 2n) operator on the n = 2T + 1 sites -T..T, index ``2 * (site + T) + coin``, built on each call."""
        n = 2 * self.block.shape[2] - 1
        dense = np.zeros((2 * n, 2 * n), dtype=np.complex128)
        dense.reshape(n, 2, n, 2)[::2, :, ::2, :] = self.block.transpose(2, 0, 3, 1)
        return dense


WalkerState = WalkerCoinPureState | WalkerCoinDensityMatrix


@dataclass(frozen=True)
class PositionDistribution:
    """Walker probability at each site -T..T after each step: shape (T + 1, 2T + 1), row t the walk after t steps."""

    probabilities: NDArray[np.float64]

    def __post_init__(self) -> None:
        probs = np.asarray(self.probabilities, dtype=np.float64)
        object.__setattr__(self, "probabilities", probs)
        if probs.ndim != 2 or probs.shape[1] != 2 * len(probs) - 1:
            raise ValueError(f"shape {probs.shape} is not (T + 1, 2T + 1)")
        if not np.all((probs >= -1e-12) & (probs <= 1.0 + 1e-12)):
            raise ValueError("probabilities outside [0, 1]")
        worst = float(np.max(np.abs(np.sum(probs, axis=-1) - 1.0), initial=0.0))
        if not worst <= STATE_NORM_TOL:
            raise ValueError(f"probabilities sum deviates from 1 by {worst:.3e}")

    def at_site(self, site: int) -> NDArray[np.float64]:
        """The (T + 1,) probabilities at the integer `site` of -T..T, one per row."""
        try:
            site = operator.index(site)
        except TypeError:
            raise ValueError(f"site {site!r} is not an integer") from None
        steps = len(self.probabilities) - 1
        if not abs(site) <= steps:
            raise ValueError(f"site {site} outside the light cone [{-steps}, {steps}]")
        return self.probabilities[:, site + steps]

    def tv_from_start(self) -> NDArray[np.float64]:
        """The (T + 1,) total variation distance ``0.5 * sum |row - row 0|`` of each row from the start.

        Blocks of ``DISTANCE_BLOCK_SITES // n`` rows share one temporary, so
        a long walk holds no second stack; each row's sum is the broadcast's.
        """
        rows = self.probabilities
        distance = np.empty(len(rows))
        block = max(1, DISTANCE_BLOCK_SITES // rows.shape[1])
        for i in range(0, len(rows), block):
            diff = rows[i : i + block] - rows[:1]
            np.sum(np.abs(diff, out=diff), axis=-1, out=distance[i : i + block])
        distance *= 0.5
        return distance


def reduced_coin_state(state: WalkerState) -> NDArray[np.complex128]:
    """2x2 coin density matrix after tracing out the walker position."""
    if isinstance(state, WalkerCoinDensityMatrix):
        rho = np.einsum("ijxx->ij", state.block)  # the class block's site diagonal
    else:
        rho = state.amplitudes.T @ state.amplitudes.conj()
    _check_density(rho, "reduced coin state")
    return rho


def _overlap(rho: NDArray[np.complex128], psi: NDArray[np.complex128]) -> float:
    """Expectation <psi| rho |psi> of a 2x2 coin density matrix ``reduced_coin_state`` has checked.

    ``psi`` is a unit (2,) coin: ``START_COIN`` or ``classify``'s normalised predicted coin.
    """
    return float(np.real(psi.conj() @ rho @ psi))


def _check_density(rho: NDArray[np.complex128], label: str) -> None:
    # A class block or a 2x2 coin state: its own support but for a few zero rows. One temporary
    # holds rho - rho^dagger, then H = (rho + rho^dagger) / 2 plus PSD_TOL * I, PSD down to
    # -PSD_TOL when it has a Cholesky factor, up to rounding of order n * eps; eigvalsh,
    # about 3x the cost, runs only to decide and name the eigenvalue when that fails
    buf = np.conjugate(rho.T, order="C")
    np.subtract(rho, buf, out=buf)
    herm = float(np.max(np.abs(buf), initial=0.0))
    if not herm <= DENSITY_TOL:
        raise ValueError(f"{label} not Hermitian (defect {herm:.3e})")
    trace = complex(np.trace(rho))
    if not abs(trace - 1.0) <= DENSITY_TOL:
        raise ValueError(f"{label} trace deviates from 1 by {abs(trace - 1.0):.3e}")
    np.add(rho, np.conjugate(rho.T, out=buf), out=buf)
    buf *= 0.5
    buf.flat[:: len(buf) + 1] += PSD_TOL
    try:
        np.linalg.cholesky(buf)
    except np.linalg.LinAlgError:
        lowest = float(np.min(np.linalg.eigvalsh(buf))) - PSD_TOL
        if not lowest >= -PSD_TOL:
            raise ValueError(f"{label} has negative eigenvalue {lowest:.3e}") from None
