"""Walker-coin states on a finite integer lattice.

A pure state stores one complex amplitude per (site, coin) pair in an
array of shape ``(n_sites, 2)``. A density matrix stores the full
``(2n, 2n)`` operator with flattened index ``2 * site_index + coin``.
Coin basis ordering is ``[plus, minus]`` throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

STATE_NORM_TOL = 1e-10
COIN_NORM_TOL = 1e-12
DENSITY_TOL = 1e-10
PSD_TOL = 1e-8
GUARD_BAND = 2


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

        The ``GUARD_BAND`` of 2 extra sites on each side stays empty; a
        walk step drops what it shifts past an edge, so it needs at least one.
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
    """Mixed state on (site x coin); flattened index is 2 * site_index + coin."""

    lattice: Lattice
    matrix: NDArray[np.complex128]

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.complex128)
        object.__setattr__(self, "matrix", m)
        dim = 2 * self.lattice.size
        if m.shape != (dim, dim):
            raise ValueError(f"matrix shape {m.shape} != {(dim, dim)}")
        _check_density(m, "matrix")


WalkerState = WalkerCoinPureState | WalkerCoinDensityMatrix


@dataclass(frozen=True)
class PositionDistribution:
    """Walker probability at each lattice site: shape (n,), or (T, n) with one row per step."""

    lattice: Lattice
    probabilities: NDArray[np.float64]

    def __post_init__(self) -> None:
        probs = np.asarray(self.probabilities, dtype=np.float64)
        object.__setattr__(self, "probabilities", probs)
        n = self.lattice.size
        if probs.ndim not in (1, 2) or probs.shape[-1] != n:
            raise ValueError(f"shape {probs.shape} is neither {(n,)} nor (T, {n})")
        if not np.all((probs >= -1e-12) & (probs <= 1.0 + 1e-12)):
            raise ValueError("probabilities outside [0, 1]")
        worst = float(np.max(np.abs(np.sum(probs, axis=-1) - 1.0), initial=0.0))
        if not worst <= STATE_NORM_TOL:
            raise ValueError(f"probabilities sum deviates from 1 by {worst:.3e}")

    def at_site(self, site: int) -> float | NDArray[np.float64]:
        """The probability at `site`: a float, or the (T,) column of a stack."""
        column = self.probabilities[..., self.lattice.index(site)]
        return float(column) if column.ndim == 0 else column


def reduced_coin_state(state: WalkerState) -> NDArray[np.complex128]:
    """2x2 coin density matrix after tracing out the walker position."""
    if isinstance(state, WalkerCoinPureState):
        amps = state.amplitudes
        rho = amps.T @ amps.conj()
    else:
        n = state.lattice.size
        blocks = state.matrix.reshape(n, 2, n, 2)
        rho = np.einsum("xixj->ij", blocks)
    _check_density(rho, "reduced coin state")
    return rho


def coin_overlap(rho: NDArray[np.complex128], psi: CoinVector) -> float:
    """Expectation <psi| rho |psi> of a 2x2 coin density matrix."""
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 coin density matrix, got shape {rho.shape}")
    _check_density(rho, "coin overlap input")
    vec = psi.as_array()
    return float(np.real(vec.conj() @ rho @ vec))


def _check_density(rho: NDArray[np.complex128], label: str) -> None:
    # rho and rho^dagger both vanish off the rows and columns where rho holds a
    # non-zero entry, so every check decides on that support block alone.
    # H is PSD down to -PSD_TOL when H + PSD_TOL * I has a Cholesky factor, up to
    # rounding of order n * eps; eigvalsh, about 3x the cost, runs only to decide
    # and name the eigenvalue when the factorisation fails
    support = np.flatnonzero(rho.any(axis=0) | rho.any(axis=1))
    if support.size < len(rho):
        rho = rho[np.ix_(support, support)]
    dagger = rho.conj().T
    herm = float(np.max(np.abs(rho - dagger), initial=0.0))
    if not herm <= DENSITY_TOL:
        raise ValueError(f"{label} not Hermitian (defect {herm:.3e})")
    trace = complex(np.trace(rho))
    if not abs(trace - 1.0) <= DENSITY_TOL:
        raise ValueError(f"{label} trace deviates from 1 by {abs(trace - 1.0):.3e}")
    herm_part = 0.5 * (rho + dagger)
    try:
        np.linalg.cholesky(herm_part + PSD_TOL * np.eye(len(herm_part)))
    except np.linalg.LinAlgError:
        lowest = float(np.min(np.linalg.eigvalsh(herm_part)))
        if not lowest >= -PSD_TOL:
            raise ValueError(f"{label} has negative eigenvalue {lowest:.3e}") from None
