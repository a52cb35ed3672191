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
walk runs through one density step, :func:`_class_steps`, which
applies the coin pair to each parity class of rho in one pass and then
shifts it, with the same products as :func:`_coin_and_shift` on the
rows and then the columns. Every walk of a start state goes through
:func:`run_walk`. A density matrix, or a pure state below visibility 1,
follows each unitary step with a coin dephasing channel of strength set
by the schedule visibility:

    rho -> (1 + v)/2 * rho + (1 - v)/2 * (I x Z) rho (I x Z)

with Z diagonal on the coin. The channel keeps the coin-diagonal
blocks of rho and scales the coin-off-diagonal ones by v, so
visibility 1 reproduces unitary evolution and visibility 0 removes all
coin coherence after every step. Every step moves the walker by
exactly one site, so entry rho[(x, i), (y, j)] of parity class
(x mod 2, y mod 2) moves to class (1 - x mod 2, 1 - y mod 2): the
classes never mix, and a walk from one site lights only one of them,
a quarter of its light cone. The dephased walk steps each class of
the start that holds a non-zero entry as one compact block on its
own light cone, and builds the public (2n, 2n) matrix only for the
final state. The classes are cropped to the start's exact non-zero
support; a thresholded support would drop tiny entries that the
full-lattice walk keeps, and the result would no longer match that
walk bit for bit. :func:`run_walk` returns only the (T, n) stack of
distributions and the final state, so it keeps no trajectory; the
state after step k is the final state of the k-step walk.
:func:`bisect_visibility`, a bracketing regula falsi on the visibility,
calibrates the walk that ``classify`` summarises, from
:func:`symmetric_start`. Its probes need only the final origin
probability, so they step the same density step on the start's coin
block at the origin, cropped after every step to the sites that can
still reach it.
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
    CoinVector,
    Lattice,
    PositionDistribution,
    WalkerCoinDensityMatrix,
    WalkerCoinPureState,
    WalkerState,
    density_from_pure,
    initial_state,
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


def _origin_walk(coins: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """The blocks (G, 2T + 1, 2, 2) of G T-step walks from the origin, each from both basis coins.

    ``coins`` is a (T, 2, 2) stack for one walk (G = 1), kept as one
    (2, 2) coin per step, or a (T, G, 2, 2) stack with one coin per walk,
    which each step applies to both of its starts. The amplitudes are
    coin-major, (2, 2T + 3, 2G) over the full lattice, which the walks
    never leave; column ``jG + g`` walks g from basis coin j, and block
    ``[g, d + T, i, j]`` is its final amplitude of coin i at site d.
    """
    steps, count = coins.shape[0], coins.shape[1] if coins.ndim == 4 else 1
    amps = np.zeros((2, 2 * steps + 3, 2 * count), dtype=np.complex128)
    amps[0, steps + 1, :count] = amps[1, steps + 1, count:] = 1.0
    for coin in coins:
        amps = _coin_and_shift(coin if coin.ndim == 2 else np.concatenate((coin, coin)), amps)
    return amps[:, 1:-1].reshape(2, 2 * steps + 1, 2, count).transpose(3, 1, 0, 2)


def propagator_blocks(schedule: WalkSchedule) -> NDArray[np.complex128]:
    """The blocks ``W_T[d]`` of the noiseless T-step walk, shape (2T + 1, 2, 2).

    Entry ``d + T`` is the 2x2 map from the coin at any site x to the
    coin at site x + d after all T steps, for d in [-T, T]. The walk is
    a revival when every block but ``W_T[0]`` vanishes, and ``W_T[0]``
    is then its effective coin. With zero steps the single block is the
    identity. The schedule visibility is ignored. This is one
    :func:`_origin_walk`, the walk the scan batches over its ramp rates.
    """
    return _origin_walk(schedule.coins())[0]


ParityClass = tuple[NDArray[np.complex128], int, int]  # (w, bx, by), see _classes


def _classes(rho: WalkerCoinDensityMatrix) -> list[ParityClass]:
    """The parity classes of rho that hold a non-zero entry, as ``(w, bx, by)``.

    Entry rho[(x, i), (y, j)] belongs to class (x mod 2, y mod 2) of the
    site indices. A class is the new contiguous block
    ``w[i, j, u, v]`` = rho[(bx + 2u, i), (by + 2v, j)], cropped to the
    rows and columns of the class that hold a non-zero entry. The
    support is exact, not thresholded as in :func:`_check_reach`: a
    thresholded support would drop tiny entries that the full-lattice
    walk keeps.
    """
    n = rho.lattice.size
    r = rho.matrix.reshape(n, 2, n, 2)
    classes = []
    for p in (0, 1):
        for q in (0, 1):
            w = r[p::2, :, q::2, :].transpose(1, 3, 0, 2)
            rows, cols = np.flatnonzero(w.any(axis=(0, 1, 3))), np.flatnonzero(w.any(axis=(0, 1, 2)))
            if rows.size:
                block = np.ascontiguousarray(w[:, :, rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1])
                classes.append((block, p + 2 * int(rows[0]), q + 2 * int(cols[0])))
    return classes


def _crop(w: NDArray[np.complex128], bx: int, by: int, lo: int, hi: int) -> ParityClass:
    """The class ``(w, bx, by)`` on the site indices [lo, hi] only, rows and columns alike."""
    a, b = max((lo - bx + 1) // 2, 0), max((hi - bx) // 2 + 1, 0)
    c, d = max((lo - by + 1) // 2, 0), max((hi - by) // 2 + 1, 0)
    return w[:, :, a:b, c:d], bx + 2 * a, by + 2 * c


def _class_steps(
    classes: list[ParityClass], schedule: WalkSchedule, crops: list[tuple[int, int]]
) -> Iterator[list[ParityClass]]:
    """The dephased walk of the parity classes of :func:`_classes`, one list per step.

    One step maps class (p, q) to (1 - p, 1 - q), so the classes never
    mix and each walks alone. Step k yields the new classes cropped to
    the site indices ``crops[k - 1]`` = (lo, hi). One class step applies
    the coin pair to the whole block, with no shift yet: the right
    product ``h[i, j, u, v]`` takes the conjugate coin on the column coin
    j (the shift is real, so that is ``rho U^dagger``), and the left
    product ``p[i, j, u, v]`` the coin on the row coin i. Dephasing
    multiplies ``p`` by ``[[1, v], [v, 1]]`` over the coins, the
    channel's exact action (``x * 1.0 == x``). The shift then writes the
    four coin blocks of ``p`` into a new zeroed block one row and one
    column longer, whose bases sit one site lower: plus rows move up one
    compact index and minus rows stay, and columns alike. For a walk the
    crop drops what left the lattice, as the full-lattice walk does; for
    a probe it keeps only what can still reach the origin.

    Every entry goes through the products of :func:`_coin_and_shift`
    applied to the rows and then the columns: the coin entry as the
    first operand, term 0 added before term 1. So every entry is
    bit-identical to that two-pass step on the full lattice. The
    products are plain broadcast multiplies, not ``matmul``, ``einsum``
    or ``tensordot``: a BLAS ``(4, 4) @ (4, m^2)`` step sums in its own
    order, and probe and walk, whose crops differ, then round
    differently.
    """
    v = schedule.visibility
    dephasing = np.array([[1.0, v], [v, 1.0]])[:, :, None, None]
    coins = schedule.coins()
    rc = coins.conj()[:, None, :, :, None, None]  # rc[t, 0, j', j] = conj(coin[j', j])
    lc = coins[:, :, None, :, None, None]  # lc[t, i', 0, i] = coin[i', i]
    for right, left, (lo, hi) in zip(rc, lc, crops):
        stepped = []
        for w, bx, by in classes:
            f = w[:, None]  # f[i, 0, j, u, v]
            h = right[:, :, 0] * f[:, :, 0]
            h += right[:, :, 1] * f[:, :, 1]
            p = left[:, :, 0] * h[None, 0]
            p += left[:, :, 1] * h[None, 1]
            p *= dephasing
            out = np.zeros((2, 2, w.shape[2] + 1, w.shape[3] + 1), dtype=np.complex128)
            out[0, 0, 1:, 1:] = p[0, 0]
            out[0, 1, 1:, :-1] = p[0, 1]
            out[1, 0, :-1, 1:] = p[1, 0]
            out[1, 1, :-1, :-1] = p[1, 1]
            stepped.append(_crop(out, bx - 1, by - 1, lo, hi))
        classes = stepped
        yield classes


def _probe_origin_probability(schedule: WalkSchedule, block: NDArray[np.complex128]) -> float:
    """Final origin probability of the dephased walk from a start at the origin alone, unvalidated.

    ``block`` is the start's (2, 2) coin block at the origin, its one
    parity class. Site indices count from the origin. A walk of
    odd T cannot return and has p0 0. Step k of T keeps only the sites
    within T - k of the origin, those that can still reach it, so the
    last step leaves only the origin's entry; this diamond lies within T
    of the origin, so on ``Lattice.for_steps(T)`` it never reaches the
    guard band. That entry is the full-lattice walk's bit for bit, so
    the result equals the final p0 of :func:`run_walk`.
    """
    steps = schedule.steps
    if steps % 2:
        return 0.0
    classes = [(block[:, :, None, None], 0, 0)]
    for classes in _class_steps(classes, schedule, [(k - steps, steps - k) for k in range(1, steps + 1)]):
        pass
    ((w, _, _),) = classes
    return float(w[0, 0, 0, 0].real + w[1, 1, 0, 0].real)


def run_walk(
    start: WalkerState, schedule: WalkSchedule
) -> tuple[PositionDistribution, WalkerState]:
    """The (T, n) stack of position distributions, one row per step, and the final state.

    A pure start becomes its density matrix when the visibility is
    below 1. A pure walk steps coin-major amplitudes ``a[i, x]`` of
    shape (2, n), a row being ``|a+|^2 + |a-|^2``; a dephased walk steps
    the non-zero parity classes of rho (see :func:`_classes` and
    :func:`_class_steps`), a row being the two coin diagonals of its
    diagonal classes summed, and the final classes are scattered into
    the (2n, 2n) matrix at stride 2. Only the returned objects are built
    and validated. With zero steps the stack has no rows and the final
    state is the start. Raises :class:`BoundaryOverflowError` before any
    step.
    """
    if isinstance(start, WalkerCoinPureState) and schedule.visibility != 1.0:
        start = density_from_pure(start)
    _check_reach(start.lattice, position_distribution(start).probabilities, schedule.steps)
    n = start.lattice.size
    probs = np.zeros((schedule.steps, n))
    if not schedule.steps:
        return PositionDistribution(start.lattice, probs), start
    if isinstance(start, WalkerCoinPureState):
        amps = np.ascontiguousarray(start.amplitudes.T)[..., None]
        for row, coin in zip(probs, schedule.coins()):
            amps = _coin_and_shift(coin, amps)
            row[:] = np.abs(amps[0, :, 0]) ** 2 + np.abs(amps[1, :, 0]) ** 2
        final = type(start)(start.lattice, np.ascontiguousarray(amps[..., 0].T))
        return PositionDistribution(start.lattice, probs), final
    for row, classes in zip(probs, _class_steps(_classes(start), schedule, [(0, n - 1)] * schedule.steps)):
        for w, bx, by in classes:
            if (bx - by) % 2 == 0:  # a diagonal class: row u and column u + d are one site
                d = (bx - by) // 2
                populations = w[0, 0].diagonal(d).real + w[1, 1].diagonal(d).real
                first = max(bx, by)
                row[first : first + 2 * len(populations) : 2] = populations
    matrix = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    r = matrix.reshape(n, 2, n, 2)
    for w, bx, by in classes:
        r[bx : bx + 2 * w.shape[2] : 2, :, by : by + 2 * w.shape[3] : 2, :] = w.transpose(2, 0, 3, 1)
    final = type(start)(start.lattice, matrix)
    return PositionDistribution(start.lattice, probs), final


def symmetric_start(steps: int) -> WalkerCoinPureState:
    """The symmetric coin at the origin of ``Lattice.for_steps(steps)``.

    The one start of ``analysis.classify`` and of :func:`bisect_visibility`.
    """
    return initial_state(Lattice.for_steps(steps), CoinVector.symmetric())


def bisect_visibility(
    schedule: WalkSchedule,
    target_origin_probability: float,
    tol: float = 1e-4,
) -> tuple[float, float]:
    """Visibility at which the walk from :func:`symmetric_start` returns with the target p0, within tol.

    The final origin probability p0, a polynomial in the visibility,
    must straddle the target between visibilities 0 and 1. The search
    keeps a bracket across which p0 - target changes sign, for at most
    ``BISECT_MAX_ROUNDS`` probes, each at the regula falsi point of the
    bracket with the Anderson-Bjorck correction (BIT 13, 253, 1973):
    when a probe lands on the side of the previous one, the value kept
    at the far end is scaled by ``1 - f_new / f_previous`` (by 1/2 if
    that is not positive). A probe stays ``PROBE_MARGIN`` of the bracket
    width inside either end. A probe after two that have not halved the
    bracket (those at 0 and 1 leave width 1) takes its midpoint, unscaled,
    which bounds the probes where p0 is flat over most of [0, 1]. The
    start and its density matrix are built once, before any probe, so a
    walk too large for memory fails at once. Each probe reads p0 from
    :func:`_probe_origin_probability` on the start's coin block at the
    origin and validates nothing. The chosen visibility, an end point
    included, is then walked once from the density matrix by
    :func:`run_walk`, which validates the final state; its final p0 must
    equal the probe's (else RuntimeError) and is the one returned.
    Returns (visibility, origin probability). Raises ValueError for a
    walk of no steps.
    """
    if schedule.steps < 1:
        raise ValueError(f"calibration needs at least one step, got {schedule.steps}")
    start = density_from_pure(symmetric_start(schedule.steps))
    origin = 2 * start.lattice.index(0)  # the row and column of the origin's plus coin
    block = start.matrix[origin : origin + 2, origin : origin + 2]
    target = target_origin_probability

    def p0_at(v: float) -> float:
        return _probe_origin_probability(schedule.with_visibility(v), block)

    def validated(v: float, probed: float) -> tuple[float, float]:
        distributions, _ = run_walk(start, schedule.with_visibility(v))
        p0 = float(distributions.at_site(0)[-1])
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
    widths = [1.0]  # the bracket's width after each probe, v = 0 counting as 1
    for _ in range(BISECT_MAX_ROUNDS):
        lo, hi = min(far, near), max(far, near)
        widths.append(hi - lo)
        midpoint = len(widths) > 2 and widths[-1] > 0.5 * widths[-3]
        margin = PROBE_MARGIN * (hi - lo)
        v = near - f_near * (near - far) / (f_near - f_far)
        v = 0.5 * (lo + hi) if midpoint else min(max(v, lo + margin), hi - margin)
        p = p0_at(v)
        f = p - target
        if abs(f) <= tol:
            return validated(v, p)
        if (f > 0.0) != (f_near > 0.0):
            far, f_far = near, f_near
        elif not midpoint:
            scale = 1.0 - f / f_near
            f_far *= scale if scale > 0.0 else 0.5
        near, f_near = v, f
    raise RuntimeError(f"calibration did not converge within {BISECT_MAX_ROUNDS} probes")
