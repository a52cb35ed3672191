"""Walker-coin states on a finite integer lattice.

A pure state stores one complex amplitude per (site, coin) pair in an
array of shape ``(n_sites, 2)``. A density matrix stores the one parity
class it lights, a ``(2, 2, m, m)`` block, and builds the dense ``(2n, 2n)``
operator only when asked. A walk's position distributions are one
``(T + 1, n)`` stack, row t the walk after t steps, from which the
origin probability and the distance from the start are read per row.
Coin basis ordering is ``[plus, minus]`` throughout.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

STATE_NORM_TOL = 1e-10
COIN_NORM_TOL = 1e-12
DENSITY_TOL = 1e-10
PSD_TOL = 1e-8
GUARD_BAND = 2
DISTANCE_BLOCK_SITES = 12_800  # rows times sites of the one temporary of a distance series, at least one row


@dataclass(frozen=True)
class Lattice:
    """Closed range of sites [min_site, max_site] containing the origin."""

    min_site: int
    max_site: int

    def __post_init__(self) -> None:
        if not (self.min_site <= 0 <= self.max_site):
            raise ValueError(
                f"lattice [{self.min_site}, {self.max_site}] must contain the origin"
            )

    @classmethod
    def for_steps(cls, steps: int) -> "Lattice":
        """Symmetric lattice [-(steps + 2), steps + 2] for `steps` steps from the origin.

        The ``GUARD_BAND`` of 2 extra sites on each side stays empty: walks
        hold only their light cone, so it only lays out the public states.
        """
        if steps < 0:
            raise ValueError(f"steps must be non-negative, got {steps}")
        reach = steps + GUARD_BAND
        return cls(-reach, reach)

    @property
    def size(self) -> int:
        return self.max_site - self.min_site + 1

    def index(self, site: int) -> int:
        """Array index of a site; raises if the site is outside the lattice."""
        if not (self.min_site <= site <= self.max_site):
            raise ValueError(
                f"site {site} outside lattice [{self.min_site}, {self.max_site}]"
            )
        return site - self.min_site

    def sites(self) -> NDArray[np.int64]:
        return np.arange(self.min_site, self.max_site + 1, dtype=np.int64)


@dataclass(frozen=True)
class CoinVector:
    """Unit-norm coin state with amplitudes on the (plus, minus) basis."""

    plus: complex
    minus: complex

    def __post_init__(self) -> None:
        norm_sq = abs(self.plus) ** 2 + abs(self.minus) ** 2
        if not math.isfinite(norm_sq) or abs(norm_sq - 1.0) > COIN_NORM_TOL:
            raise ValueError(f"coin amplitudes must have unit norm, got |.|^2 = {norm_sq!r}")

    @classmethod
    def symmetric(cls) -> "CoinVector":
        """The balanced coin (|plus> + i|minus>) / sqrt(2)."""
        inv = 1.0 / math.sqrt(2.0)
        return cls(inv, 1j * inv)

    def as_array(self) -> NDArray[np.complex128]:
        return np.array([self.plus, self.minus], dtype=np.complex128)


@dataclass(frozen=True)
class WalkerCoinPureState:
    """Pure state: amplitude array of shape (lattice.size, 2), unit norm."""

    lattice: Lattice
    amplitudes: NDArray[np.complex128]

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        object.__setattr__(self, "amplitudes", amps)
        expected = (self.lattice.size, 2)
        if amps.shape != expected:
            raise ValueError(f"amplitude shape {amps.shape} != {expected}")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if not math.isfinite(norm_sq) or abs(norm_sq - 1.0) > STATE_NORM_TOL:
            raise ValueError(f"state norm^2 deviates from 1 by {abs(norm_sq - 1.0):.3e}")


@dataclass(frozen=True)
class WalkerCoinDensityMatrix:
    """Mixed state zero off one parity class: ``block[i, j, u, v]`` is rho[(base + 2u, i), (base + 2v, j)].

    Its m sites base, ..., base + 2(m - 1) lie on the lattice; it is checked as one (2m, 2m) matrix.
    """

    lattice: Lattice
    block: NDArray[np.complex128]
    base: int

    def __post_init__(self) -> None:
        block = np.asarray(self.block, dtype=np.complex128)
        object.__setattr__(self, "block", block)
        m = block.shape[-1] if block.ndim == 4 else 0
        if m == 0 or block.shape != (2, 2, m, m):
            raise ValueError(f"block shape {block.shape} is not (2, 2, m, m) with m >= 1")
        self.lattice.index(operator.index(self.base))
        self.lattice.index(self.base + 2 * (m - 1))
        _check_density(block.transpose(2, 0, 3, 1).reshape(2 * m, 2 * m), "density block")

    @property
    def matrix(self) -> NDArray[np.complex128]:
        """The dense (2n, 2n) operator, flattened index ``2 * site_index + coin``, built on each call."""
        n, m, start = self.lattice.size, self.block.shape[2], self.lattice.index(self.base)
        sites = slice(start, start + 2 * m - 1, 2)
        dense = np.zeros((2 * n, 2 * n), dtype=np.complex128)
        dense.reshape(n, 2, n, 2)[sites, :, sites, :] = self.block.transpose(2, 0, 3, 1)
        return dense


WalkerState = WalkerCoinPureState | WalkerCoinDensityMatrix


@dataclass(frozen=True)
class PositionDistribution:
    """Walker probability at each lattice site after each step: shape (T + 1, n), row t the walk after t steps."""

    lattice: Lattice
    probabilities: NDArray[np.float64]

    def __post_init__(self) -> None:
        probs = np.asarray(self.probabilities, dtype=np.float64)
        object.__setattr__(self, "probabilities", probs)
        n = self.lattice.size
        if probs.ndim != 2 or probs.shape[1] != n:
            raise ValueError(f"shape {probs.shape} is not (T + 1, {n})")
        if not np.all((probs >= -1e-12) & (probs <= 1.0 + 1e-12)):
            raise ValueError("probabilities outside [0, 1]")
        worst = float(np.max(np.abs(np.sum(probs, axis=-1) - 1.0), initial=0.0))
        if not worst <= STATE_NORM_TOL:
            raise ValueError(f"probabilities sum deviates from 1 by {worst:.3e}")

    def at_site(self, site: int) -> NDArray[np.float64]:
        """The (T + 1,) probabilities at `site`, one per row."""
        return self.probabilities[:, self.lattice.index(site)]

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


def _overlap(rho: NDArray[np.complex128], psi: CoinVector) -> float:
    """Expectation <psi| rho |psi> of a 2x2 coin density matrix ``reduced_coin_state`` has checked."""
    vec = psi.as_array()
    return float(np.real(vec.conj() @ rho @ vec))


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
