"""Coin-and-shift walk for the ramped-coin walk, pure and dephased.

One step applies the step-dependent coin and then the conditional
shift: the plus component moves one site up, the minus component one
site down. A walk of T steps applies steps in increasing index order.
The coin is the same on every site, so the T-step walk is translation
invariant: one column of 2x2 blocks ``W_T[d]``, the map from the coin
at any site x to the coin at x + d, describes it completely (see
:func:`propagator_blocks`).

Every walk in the package runs through one batched step routine,
:func:`_coin_and_shift`, under the coin stack of :meth:`WalkSchedule.coins`,
built once per walk. Pure states evolve through :func:`evolve`.
Mixed states evolve through :func:`evolve_density`, which follows each
unitary step with a coin dephasing channel of strength set by the
schedule visibility:

    rho -> (1 + v)/2 * rho + (1 - v)/2 * (I x Z) rho (I x Z)

with Z diagonal on the coin. Visibility 1 reproduces unitary evolution;
visibility 0 removes all coin coherence after every step. Step k of a
dephased walk updates only the block of rho on the sites within k of
the start's exact non-zero support (its forward light cone); a
thresholded support would drop tiny entries that the full-lattice walk
keeps, and the result would no longer match that walk bit for bit.
:func:`run_walk` returns only the distribution after each step and the
final state, so it keeps no trajectory. The probes of
:func:`bisect_visibility` need only the final origin probability, so
they step the same density step on the smaller part of the light cone
that can still reach the origin.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .coins import StepConvention, coin_at_step
from .states import (
    Lattice,
    PositionDistribution,
    WalkerCoinDensityMatrix,
    WalkerCoinPureState,
    WalkerState,
    _site_distribution,
    density_from_pure,
    position_distribution,
)

BOUNDARY_LEAK_TOL = 1e-14
BISECT_MAX_ROUNDS = 200


class BoundaryOverflowError(RuntimeError):
    """Amplitude would leave the lattice; use a wider lattice instead."""


@dataclass(frozen=True)
class WalkSchedule:
    """One walk configuration: coin biases, step count, indexing, visibility.

    ``theta`` is the fixed bias angle, ``omega`` the ramp rate per step,
    and ``visibility`` the per-step dephasing parameter (1 means unitary).
    """

    theta: float
    omega: float
    steps: int
    convention: StepConvention = StepConvention.ONE_BASED
    visibility: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.theta) or not math.isfinite(self.omega):
            raise ValueError("theta and omega must be finite")
        if self.steps < 0:
            raise ValueError(f"steps must be non-negative, got {self.steps}")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility must lie in [0, 1], got {self.visibility}")

    def step_indices(self) -> range:
        return self.convention.step_indices(self.steps)

    def coins(self) -> NDArray[np.complex128]:
        """The coins of all steps in step order, shape (steps, 2, 2)."""
        return coin_at_step(self.theta, self.omega, np.array(self.step_indices()), self.convention)

    def with_visibility(self, visibility: float) -> "WalkSchedule":
        return replace(self, visibility=visibility)


def _coin_and_shift(
    coins: NDArray[np.complex128], amps: NDArray[np.complex128]
) -> NDArray[np.complex128]:
    """One walk step on a batch: coin ``coins[g]`` on walk ``amps[g]``, then the shift.

    ``amps`` has shape (G, n, 2). ``coins`` is a (G, 2, 2) stack, one
    coin per walk, or a single (2, 2) coin for the whole batch. Coin and
    shift are fused: the plus component of site x is written straight
    from the coined amplitudes of site x - 1, and the minus component
    from those of site x + 1, each as ``c0 * plus + c1 * minus`` with
    ``c0, c1`` one row of the coin. Amplitude shifted past either edge
    is dropped, and the two entries nothing shifts into (plus at the
    first site, minus at the last) are zero, so callers keep the support
    one site inside the lattice (see :func:`_check_reach`).
    """
    c = coins[..., None, :, :]  # (G, 1, 2, 2) or (1, 2, 2): broadcasts over the sites
    below, above = amps[:, :-1], amps[:, 1:]
    out = np.empty_like(amps)
    out[:, 1:, 0] = c[..., 0, 0] * below[..., 0] + c[..., 0, 1] * below[..., 1]
    out[:, :-1, 1] = c[..., 1, 0] * above[..., 0] + c[..., 1, 1] * above[..., 1]
    out[:, 0, 0] = out[:, -1, 1] = 0.0
    return out


def _check_reach(lattice: Lattice, populations: NDArray[np.float64], steps: int) -> None:
    """Raise unless the occupied sites plus `steps` stay one site inside the lattice."""
    occupied = np.nonzero(populations > BOUNDARY_LEAK_TOL)[0]
    lowest = highest = 0
    if occupied.size:
        sites = lattice.sites()
        lowest, highest = int(sites[occupied[0]]), int(sites[occupied[-1]])
    if highest + steps > lattice.max_site - 1 or lowest - steps < lattice.min_site + 1:
        raise BoundaryOverflowError(
            f"support [{lowest}, {highest}] plus {steps} steps exceeds "
            f"lattice [{lattice.min_site}, {lattice.max_site}]"
        )


def evolve(state: WalkerCoinPureState, schedule: WalkSchedule) -> list[WalkerCoinPureState]:
    """All intermediate pure states, one per step, in step order.

    Requires visibility 1; dephased walks go through :func:`evolve_density`.
    The lattice must hold the initial support plus one site per step;
    otherwise a :class:`BoundaryOverflowError` is raised before any
    evolution.
    """
    if schedule.visibility != 1.0:
        raise ValueError(
            "pure-state evolution requires visibility 1; use evolve_density"
        )
    return [WalkerCoinPureState(state.lattice, amps) for amps in _trajectory(state, schedule)]


def propagator_blocks(schedule: WalkSchedule) -> NDArray[np.complex128]:
    """The blocks ``W_T[d]`` of the noiseless T-step walk, shape (2T + 1, 2, 2).

    Entry ``d + T`` is the 2x2 map from the coin at any site x to the
    coin at site x + d after all T steps, for d in [-T, T]. The walk is
    a revival when every block but ``W_T[0]`` vanishes, and ``W_T[0]``
    is then its effective coin. With zero steps the single block is the
    identity. The schedule visibility is ignored.
    """
    reach = schedule.steps + 1
    amps = np.zeros((2, 2 * reach + 1, 2), dtype=np.complex128)
    amps[0, reach, 0] = 1.0
    amps[1, reach, 1] = 1.0
    for coin in schedule.coins():
        amps = _coin_and_shift(coin, amps)
    # amps[j, x, i] is entry (i, j) of the block at site x
    return amps[:, 1:-1, :].transpose(1, 2, 0)


def evolve_density(
    rho: WalkerCoinDensityMatrix, schedule: WalkSchedule
) -> list[WalkerCoinDensityMatrix]:
    """All intermediate density matrices, one per step, in step order.

    Each step is the unitary walk step followed by the coin dephasing
    channel at the schedule visibility. The lattice must be wide enough
    to hold the initial support plus one site per step; otherwise a
    :class:`BoundaryOverflowError` is raised before any evolution.
    """
    return [WalkerCoinDensityMatrix(rho.lattice, m.copy()) for m in _trajectory(rho, schedule)]


def _trajectory(start: WalkerState, schedule: WalkSchedule) -> Iterator[NDArray[np.complex128]]:
    """Unvalidated amplitudes (pure start) or density matrix after each step.

    The boundary check runs before the first step, even with no steps.
    A pure start ignores the schedule visibility. A density start is
    stepped only inside its forward light cone (see :func:`_light_cone`
    and :func:`_density_steps`).
    """
    _check_reach(start.lattice, position_distribution(start).probabilities, schedule.steps)
    if isinstance(start, WalkerCoinPureState):
        amps = start.amplitudes[None]
        for coin in schedule.coins():
            amps = _coin_and_shift(coin, amps)
            yield amps[0]
        return
    yield from _density_steps(start, schedule, _light_cone(start, schedule.steps))


def _light_cone(rho: WalkerCoinDensityMatrix, steps: int) -> list[tuple[int, int]]:
    """Site indices [a, b) of the forward light cone of rho after each of its steps.

    Step k reaches the sites within k of rho's support, clipped to the
    lattice. The support is exact (every site with a non-zero entry in
    its rows or columns), not thresholded as in :func:`_check_reach`;
    a thresholded support would drop tiny entries that the full-lattice
    walk keeps.
    """
    rows, cols = np.nonzero(rho.matrix)
    occupied = np.concatenate((rows, cols)) // 2
    lo, hi = int(occupied.min()), int(occupied.max())
    n = rho.lattice.size
    return [(max(lo - k, 0), min(hi + k + 1, n)) for k in range(1, steps + 1)]


def _density_steps(
    rho: WalkerCoinDensityMatrix, schedule: WalkSchedule, windows: list[tuple[int, int]]
) -> Iterator[NDArray[np.complex128]]:
    """The dephased walk of rho, one window of sites per step, in one copy of its matrix.

    Step k replaces the block of the copy on the sites ``windows[k - 1]``
    (indices [a, b), not empty) by its dephased ``U block U^dagger`` and
    yields the copy; entries outside the window are left as they are.
    The window's edge sites miss what flows in from outside it, so a
    window must hold every site whose entries are read later. Each entry
    goes through the same products in the same order as on the full
    lattice, so every entry a window keeps correct is bit-identical to
    the full-lattice walk. :func:`_trajectory` passes the light cone,
    outside which the copy stays zero as the full-lattice walk does;
    :func:`_probe_origin_probability` passes the part of it that can
    still reach the origin.
    """
    v = schedule.visibility
    signs = np.tile(np.array([1.0, -1.0]), rho.lattice.size)
    dephase_mask = np.outer(signs, signs)
    matrix = rho.matrix.copy()
    for coin, (a, b) in zip(schedule.coins(), windows):
        w = slice(2 * a, 2 * b)
        dim = w.stop - w.start
        # Each row of a batch is one column stepped by U. `half` is
        # (U rho^dagger)^T; the rows of conj(half).T are the columns of
        # rho U^dagger, and stepping them gives the columns of U rho U^dagger.
        half = _coin_and_shift(coin, matrix[w, w].conj().reshape(dim, -1, 2)).reshape(dim, dim)
        block = _coin_and_shift(coin, half.conj().T.reshape(dim, -1, 2)).reshape(dim, dim).T
        matrix[w, w] = 0.5 * (1.0 + v) * block + 0.5 * (1.0 - v) * (dephase_mask[w, w] * block)
        yield matrix


def _probe_origin_probability(rho: WalkerCoinDensityMatrix, schedule: WalkSchedule) -> float:
    """Final origin probability of the dephased walk of rho, unvalidated.

    Step k of T updates only the sites of the light cone within
    T - k + 1 of the origin: those that can still reach it in the T - k
    steps left, plus one ring whose entries go wrong at the window edge
    and are never read again. This diamond holds about a quarter of the
    light cone's entries. The origin entries are those of the
    full-lattice walk bit for bit, so the result equals the final p0 of
    :func:`run_walk`. A start that cannot reach the origin empties the
    diamond, and p0 is 0. The caller checks the reach.
    """
    steps = schedule.steps
    origin = rho.lattice.index(0)
    diamond = [
        (max(a, origin - (steps - k + 1)), min(b, origin + steps - k + 2))
        for k, (a, b) in enumerate(_light_cone(rho, steps), start=1)
    ]
    if any(a >= b for a, b in diamond):
        return 0.0
    matrix = rho.matrix  # with no steps, p0 is the start's
    for matrix in _density_steps(rho, schedule, diamond):
        pass
    plus, minus = 2 * origin, 2 * origin + 1
    return float(matrix[plus, plus].real + matrix[minus, minus].real)


def run_walk(
    start: WalkerState, schedule: WalkSchedule
) -> tuple[list[PositionDistribution], WalkerState]:
    """The position distribution after each step, and the final state.

    A pure start becomes its density matrix when the visibility is
    below 1. Only the returned objects are built and validated, so no
    intermediate state is kept. With zero steps the final state is the
    start. Raises :class:`BoundaryOverflowError` before any step.
    """
    if isinstance(start, WalkerCoinPureState) and schedule.visibility != 1.0:
        start = density_from_pure(start)
    pure = isinstance(start, WalkerCoinPureState)
    distributions = []
    raw = None
    for raw in _trajectory(start, schedule):
        distributions.append(_site_distribution(start.lattice, raw, pure))
    final = start if raw is None else type(start)(start.lattice, raw)
    return distributions, final


def bisect_visibility(
    schedule: WalkSchedule,
    initial: WalkerCoinDensityMatrix,
    target_origin_probability: float,
    tol: float = 1e-4,
) -> tuple[float, float]:
    """Visibility whose final origin probability matches the target within tol.

    Bisects on the visibility interval [0, 1] for at most
    ``BISECT_MAX_ROUNDS`` rounds; the origin probability after the last
    step must be monotone in the visibility and straddle the target
    between 0 and 1. Each probe reads p0 from
    :func:`_probe_origin_probability`, which steps only the sites that
    can still reach the origin and validates nothing. The chosen
    visibility, an end point included, is then walked once by
    :func:`run_walk`, which validates the final state; its p0 must equal
    the probe's (else RuntimeError) and is the one returned. Returns
    (visibility, origin probability). Raises
    :class:`BoundaryOverflowError` before any probe.
    """
    _check_reach(initial.lattice, position_distribution(initial).probabilities, schedule.steps)
    lo, hi = 0.0, 1.0

    def p0_at(v: float) -> float:
        return _probe_origin_probability(initial, schedule.with_visibility(v))

    def validated(v: float, probed: float) -> tuple[float, float]:
        _, final = run_walk(initial, schedule.with_visibility(v))
        p0 = position_distribution(final).at_site(0)
        if p0 != probed:
            raise RuntimeError(f"probe p0 {probed!r} differs from the walk's {p0!r} at visibility {v!r}")
        return v, p0

    p_lo = p0_at(lo)
    p_hi = p0_at(hi)
    if abs(p_lo - target_origin_probability) <= tol:
        return validated(lo, p_lo)
    if abs(p_hi - target_origin_probability) <= tol:
        return validated(hi, p_hi)
    if not min(p_lo, p_hi) < target_origin_probability < max(p_lo, p_hi):
        raise ValueError(
            f"target {target_origin_probability} not bracketed: "
            f"p0({lo}) = {p_lo:.6f}, p0({hi}) = {p_hi:.6f}"
        )
    increasing = p_hi > p_lo
    for _ in range(BISECT_MAX_ROUNDS):
        mid = 0.5 * (lo + hi)
        p_mid = p0_at(mid)
        if abs(p_mid - target_origin_probability) <= tol:
            return validated(mid, p_mid)
        if (p_mid < target_origin_probability) == increasing:
            lo = mid
        else:
            hi = mid
    raise RuntimeError(f"bisection did not converge within {BISECT_MAX_ROUNDS} iterations")
