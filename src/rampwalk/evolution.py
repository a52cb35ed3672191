"""Coin-and-shift walk for the ramped-coin walk, pure and dephased.

One step applies the step-dependent coin and then the conditional
shift: the plus component moves one site up, the minus component one
site down. A walk of T steps applies steps in increasing index order.
The coin is the same on every site, so the T-step walk is translation
invariant: one column of 2x2 blocks ``W_T[d]``, the map from the coin
at any site x to the coin at x + d, describes it completely (see
:func:`propagator_blocks`).

Every pure walk in the package runs through one batched step routine,
:func:`_coin_and_shift`, on coin-major amplitudes of shape
(..., 2, n, G) (coin, site, then a batch of G walks) under the coin
stack of :meth:`WalkSchedule.coins`, built once per walk. The dephased
walk runs through one density step, :func:`_density_steps`, which
applies the coin pair to a window of rho in one pass and then shifts
it, with the same products as :func:`_coin_and_shift` on the window's
rows and then its columns. Every walk of a start state goes through
:func:`run_walk`. A density matrix, or a pure state below visibility 1,
follows each unitary step with a coin dephasing channel of strength set
by the schedule visibility:

    rho -> (1 + v)/2 * rho + (1 - v)/2 * (I x Z) rho (I x Z)

with Z diagonal on the coin. The channel keeps the coin-diagonal
blocks of rho and scales the coin-off-diagonal ones by v, so
visibility 1 reproduces unitary evolution and visibility 0 removes all
coin coherence after every step. The dephased walk steps its working
copy ``R[i, x, j, y]`` = rho[(x, i), (y, j)] in place and builds the
public (2n, 2n) matrix only for the final state. Step k of a
dephased walk updates only the block of rho on the sites within k of
the start's exact non-zero support (its forward light cone); a
thresholded support would drop tiny entries that the full-lattice walk
keeps, and the result would no longer match that walk bit for bit.
:func:`run_walk` returns only the distribution after each step and the
final state, so it keeps no trajectory; the state after step k is the
final state of the k-step walk. The probes of
:func:`bisect_visibility`, a bracketing regula falsi on the visibility,
need only the final origin probability, so they step the same density
step on the smaller part of the light cone that can still reach the
origin.
"""

from __future__ import annotations

import math
import numbers
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
    density_from_pure,
    position_distribution,
)

BOUNDARY_LEAK_TOL = 1e-14
BISECT_MAX_ROUNDS = 200
PROBE_MARGIN = 0.02


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
        if isinstance(self.steps, bool) or not isinstance(self.steps, numbers.Integral):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 0:
            raise ValueError(f"steps must be non-negative, got {self.steps}")
        if not isinstance(self.convention, StepConvention):
            raise ValueError(f"convention must be a StepConvention, got {self.convention!r}")
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
    """One walk step on a batch of coin-major amplitudes: the coin, then the shift.

    ``amps`` has shape (..., 2, n, G): coin, site, then a batch of G
    walks; leading axes are batch too. ``coins`` is a (G, 2, 2) stack,
    coin ``coins[g]`` for walk g, or a single (2, 2) coin for the whole
    batch. Coin and shift are fused: the plus component of site x is
    written straight from the coined amplitudes of site x - 1, and the
    minus component from those of site x + 1, each as
    ``c0 * plus + c1 * minus`` with ``c0, c1`` one row of the coin. Every
    operand is a run of whole site rows, so no multiply reads a strided
    coin axis. Amplitude shifted past either edge is dropped, and the
    two rows nothing shifts into (plus at the first site, minus at the
    last) are zero, so callers keep the support one site inside the
    lattice (see :func:`_check_reach`).
    """
    # (G,) per entry for a stack, a scalar for one coin: broadcasts over (..., n, G)
    c00, c01, c10, c11 = coins.reshape(*coins.shape[:-2], 4).T
    plus, minus = amps[..., 0, :, :], amps[..., 1, :, :]
    out = np.empty_like(amps)
    up, down = out[..., 0, 1:, :], out[..., 1, :-1, :]
    # the coin entry goes first: numpy's vectorised complex product can
    # round the last bit differently when its operands are swapped
    np.multiply(c00, plus[..., :-1, :], out=up)
    up += c01 * minus[..., :-1, :]
    np.multiply(c10, plus[..., 1:, :], out=down)
    down += c11 * minus[..., 1:, :]
    out[..., 0, 0, :] = out[..., 1, -1, :] = 0.0
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


def _origin_walk(
    coins: NDArray[np.complex128], starts: NDArray[np.complex128]
) -> NDArray[np.complex128]:
    """Final coin-major amplitudes (2, 2T + 3, G) of G walks from the origin, site T + 1.

    ``starts`` (2, G) holds their start coins; ``coins`` is a (T, 2, 2)
    stack shared by the batch or a (T, G, 2, 2) stack, one coin per walk.
    Every step updates the whole lattice, which the walks never leave.
    """
    reach = coins.shape[0] + 1
    amps = np.zeros((2, 2 * reach + 1, starts.shape[1]), dtype=np.complex128)
    amps[:, reach] = starts
    for coin in coins:
        amps = _coin_and_shift(coin, amps)
    return amps


def _blocks(amps: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Blocks (2T + 1, 2, 2) from the final ``amps[i, x, j]`` of walks from basis coins j."""
    return amps[:, 1:-1, :].transpose(1, 0, 2)


def propagator_blocks(schedule: WalkSchedule) -> NDArray[np.complex128]:
    """The blocks ``W_T[d]`` of the noiseless T-step walk, shape (2T + 1, 2, 2).

    Entry ``d + T`` is the 2x2 map from the coin at any site x to the
    coin at site x + d after all T steps, for d in [-T, T]. The walk is
    a revival when every block but ``W_T[0]`` vanishes, and ``W_T[0]``
    is then its effective coin. With zero steps the single block is the
    identity. The schedule visibility is ignored. The two basis coins
    take one :func:`_origin_walk`, the walk the scan batches.
    """
    return _blocks(_origin_walk(schedule.coins(), np.eye(2)))


def _coin_major(matrix: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """A new array ``R[i, x, j, y]`` = matrix[(x, i), (y, j)] of a (2n, 2n) density matrix."""
    n = matrix.shape[0] // 2
    return matrix.reshape(n, 2, n, 2).transpose(1, 0, 3, 2).copy()


def _public(raw: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """A new array in the state classes' layout: (n, 2) amplitudes or the (2n, 2n) matrix."""
    if raw.ndim == 2:
        return np.ascontiguousarray(raw.T)
    n = raw.shape[1]
    return raw.transpose(1, 0, 3, 2).reshape(2 * n, 2 * n)


def _distribution(lattice: Lattice, raw: NDArray[np.complex128]) -> PositionDistribution:
    """Site probabilities of coin-major amplitudes (2, n) or of ``R`` (2, n, 2, n)."""
    if raw.ndim == 2:
        probs = np.abs(raw[0]) ** 2 + np.abs(raw[1]) ** 2
    else:
        diagonal = raw.diagonal(axis1=1, axis2=3)  # diagonal[i, j, x] = R[i, x, j, x]
        probs = diagonal[0, 0].real + diagonal[1, 1].real
    return PositionDistribution(lattice, probs)


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
    r: NDArray[np.complex128], schedule: WalkSchedule, windows: list[tuple[int, int]]
) -> Iterator[NDArray[np.complex128]]:
    """The dephased walk of ``R[i, x, j, y]``, one window of sites per step, in place.

    Step k replaces the block of ``r`` on the sites ``windows[k - 1]``
    (indices [a, b), not empty) by its dephased ``U block U^dagger`` and
    yields ``r``; entries outside the window are left as they are. One
    step applies the coin pair to the whole block, with no shift yet:
    the right product ``h[i, j, x, y]`` takes the conjugate coin on the
    column coin j (the shift is real, so that is ``rho U^dagger``), and
    the left product ``p[i, j, x, y]`` the coin on the row coin i.
    Dephasing scales the coin-off-diagonal blocks ``p[0, 1]`` and
    ``p[1, 0]`` by the visibility, the channel's exact action. The shift
    then writes each of the four coin blocks of ``p`` back into the
    window one site up or down in x and in y, and zeroes the edge rows
    and columns nothing shifts into. The window's edge sites miss what
    flows in from outside it, so a window must hold every site whose
    entries are read later.

    Every entry goes through the products of :func:`_coin_and_shift`
    applied to the rows and then the columns: the coin entry as the
    first operand, term 0 added before term 1. So every entry a window
    keeps correct is bit-identical to that two-pass step on the full
    lattice. The products are plain broadcast multiplies, not
    ``matmul``, ``einsum`` or ``tensordot``: a BLAS ``(4, 4) @ (4, m^2)``
    step sums in its own order, and probe and walk, whose windows
    differ, then round differently. :func:`run_walk` passes the light
    cone, outside which ``r`` stays zero as the full-lattice walk does;
    :func:`_probe_origin_probability` passes the part of it that can
    still reach the origin.
    """
    v = schedule.visibility
    coins = schedule.coins()
    rc = coins.conj()[:, None, :, :, None, None]  # rc[t, 0, j', j] = conj(coin[j', j])
    lc = coins[:, :, None, :, None, None]  # lc[t, i', 0, i] = coin[i', i]
    for right, left, (a, b) in zip(rc, lc, windows):
        block = r[:, a:b, :, a:b]
        f = block.transpose(0, 2, 1, 3)[:, None]  # f[i, 0, j, x, y], a view
        h = right[:, :, 0] * f[:, :, 0]
        h += right[:, :, 1] * f[:, :, 1]
        p = left[:, :, 0] * h[None, 0]
        p += left[:, :, 1] * h[None, 1]
        p[0, 1] *= v
        p[1, 0] *= v
        # plus moves one site up, minus one site down, in x for i and in y for j
        block[0, 0] = block[1, -1] = 0.0
        block[:, :, 0, 0] = block[:, :, 1, -1] = 0.0
        block[0, 1:, 0, 1:] = p[0, 0, :-1, :-1]
        block[0, 1:, 1, :-1] = p[0, 1, :-1, 1:]
        block[1, :-1, 0, 1:] = p[1, 0, 1:, :-1]
        block[1, :-1, 1, :-1] = p[1, 1, 1:, 1:]
        yield r


def _diamond(rho: WalkerCoinDensityMatrix, steps: int) -> list[tuple[int, int]] | None:
    """The probe windows of :func:`_probe_origin_probability`; None when rho cannot reach the origin.

    Step k of T keeps the sites of the light cone within T - k + 1 of
    the origin: those that can still reach it in the T - k steps left,
    plus one ring whose entries go wrong at the window edge and are
    never read again. This diamond holds about a quarter of the light
    cone's entries.
    """
    origin = rho.lattice.index(0)
    diamond = [
        (max(a, origin - (steps - k + 1)), min(b, origin + steps - k + 2))
        for k, (a, b) in enumerate(_light_cone(rho, steps), start=1)
    ]
    return None if any(a >= b for a, b in diamond) else diamond


def _probe_origin_probability(
    rho: WalkerCoinDensityMatrix, schedule: WalkSchedule, diamond: list[tuple[int, int]] | None
) -> float:
    """Final origin probability of the dephased walk of rho, unvalidated.

    Steps only the windows ``diamond`` of :func:`_diamond` for rho and
    the schedule's steps. The origin entries are those of the
    full-lattice walk bit for bit, so the result equals the final p0 of
    :func:`run_walk`. A start that cannot reach the origin (no diamond)
    has p0 0. The caller checks the reach.
    """
    if diamond is None:
        return 0.0
    r = _coin_major(rho.matrix)  # with no steps, p0 is the start's
    for _ in _density_steps(r, schedule, diamond):
        pass
    origin = rho.lattice.index(0)
    return float(r[0, origin, 0, origin].real + r[1, origin, 1, origin].real)


def run_walk(
    start: WalkerState, schedule: WalkSchedule
) -> tuple[list[PositionDistribution], WalkerState]:
    """The position distribution after each step, and the final state.

    A pure start becomes its density matrix when the visibility is
    below 1. A pure walk steps coin-major amplitudes ``a[i, x]`` of
    shape (2, n); a dephased walk steps the working copy
    ``R[i, x, j, y]`` = rho[(x, i), (y, j)] in place, only inside its
    forward light cone (see :func:`_density_steps` and
    :func:`_light_cone`). Only the returned objects are built and
    validated, so no intermediate state is kept. With zero steps the
    final state is the start. Raises :class:`BoundaryOverflowError`
    before any step.
    """
    if isinstance(start, WalkerCoinPureState) and schedule.visibility != 1.0:
        start = density_from_pure(start)
    _check_reach(start.lattice, position_distribution(start).probabilities, schedule.steps)
    distributions = []
    raw = None
    if isinstance(start, WalkerCoinPureState):
        amps = np.ascontiguousarray(start.amplitudes.T)[..., None]
        for coin in schedule.coins():
            amps = _coin_and_shift(coin, amps)
            raw = amps[..., 0]
            distributions.append(_distribution(start.lattice, raw))
    else:
        windows = _light_cone(start, schedule.steps)
        for raw in _density_steps(_coin_major(start.matrix), schedule, windows):
            distributions.append(_distribution(start.lattice, raw))
    final = start if raw is None else type(start)(start.lattice, _public(raw))
    return distributions, final


def bisect_visibility(
    schedule: WalkSchedule,
    initial: WalkerCoinDensityMatrix,
    target_origin_probability: float,
    tol: float = 1e-4,
) -> tuple[float, float]:
    """Visibility whose final origin probability matches the target within tol.

    The final origin probability p0, a polynomial in the visibility,
    must straddle the target between visibilities 0 and 1. The search
    keeps a bracket across which p0 - target changes sign, for at most
    ``BISECT_MAX_ROUNDS`` probes, each at the regula falsi point of the
    bracket with the Anderson-Bjorck correction (BIT 13, 253, 1973):
    when a probe lands on the side of the previous one, the value kept
    at the far end is scaled by ``1 - f_new / f_previous`` (by 1/2 if
    that is not positive). A probe stays ``PROBE_MARGIN`` of the bracket
    width inside either end. Each probe reads p0 from
    :func:`_probe_origin_probability` on one diamond built up front,
    and validates nothing. The chosen visibility, an end point
    included, is then walked once by :func:`run_walk`, which validates
    the final state; its p0 must equal the probe's (else RuntimeError)
    and is the one returned. Returns (visibility, origin probability).
    Raises :class:`BoundaryOverflowError` before any probe.
    """
    _check_reach(initial.lattice, position_distribution(initial).probabilities, schedule.steps)
    diamond = _diamond(initial, schedule.steps)
    target = target_origin_probability

    def p0_at(v: float) -> float:
        return _probe_origin_probability(initial, schedule.with_visibility(v), diamond)

    def validated(v: float, probed: float) -> tuple[float, float]:
        _, final = run_walk(initial, schedule.with_visibility(v))
        p0 = position_distribution(final).at_site(0)
        if p0 != probed:
            raise RuntimeError(f"probe p0 {probed!r} differs from the walk's {p0!r} at visibility {v!r}")
        return v, p0

    p_lo = p0_at(0.0)
    p_hi = p0_at(1.0)
    if abs(p_lo - target) <= tol:
        return validated(0.0, p_lo)
    if abs(p_hi - target) <= tol:
        return validated(1.0, p_hi)
    if not min(p_lo, p_hi) < target < max(p_lo, p_hi):
        raise ValueError(
            f"target {target} not bracketed: p0(0.0) = {p_lo:.6f}, p0(1.0) = {p_hi:.6f}"
        )
    # the bracket's ends: `far` kept from before, `near` the latest probe
    far, f_far = 0.0, p_lo - target
    near, f_near = 1.0, p_hi - target
    for _ in range(BISECT_MAX_ROUNDS):
        lo, hi = min(far, near), max(far, near)
        margin = PROBE_MARGIN * (hi - lo)
        v = near - f_near * (near - far) / (f_near - f_far)
        v = min(max(v, lo + margin), hi - margin)
        p = p0_at(v)
        f = p - target
        if abs(f) <= tol:
            return validated(v, p)
        if (f > 0.0) == (f_near > 0.0):
            scale = 1.0 - f / f_near
            f_far *= scale if scale > 0.0 else 0.5
        else:
            far, f_far = near, f_near
        near, f_near = v, f
    raise RuntimeError(f"calibration did not converge within {BISECT_MAX_ROUNDS} probes")
