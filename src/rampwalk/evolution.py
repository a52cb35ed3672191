"""Coin-and-shift walk for the ramped-coin walk, pure and dephased.

One step applies the step-dependent coin and then the conditional
shift: the plus component moves one site up, the minus component one
site down. A walk of T steps applies steps in increasing index order.
The coin is the same on every site, so the T-step walk is translation
invariant: one column of 2x2 blocks ``W_T[d]``, the map from the coin
at any site x to the coin at x + d, describes it completely (see
:func:`propagator_blocks`).

Every pure walk in the package is one :func:`_origin_walk`, the one
loop over the batched step :func:`_coin_and_shift`, on coin-major
amplitudes (..., 2, n, G) (coin, site, then a batch of G walks) under
the coin stack of :meth:`WalkSchedule.coins`, built once per walk. The
dephased walk runs through one density step, :func:`_class_steps`,
which applies the coin pair to one parity class of rho in one pass and
then shifts it, with the same products as :func:`_coin_and_shift` on
the rows and then the columns. Every walk of a state, the one
``analysis.classify`` summarises, starts from the symmetric coin at the
origin of ``Lattice.for_steps(T)``, and both loops yield that start
first, so the walk after t steps is row t of its (T + 1, n) stack of
distributions. Below visibility 1 the walk is dephased: each unitary step is followed by a
coin dephasing channel of strength set by the schedule visibility:

    rho -> (1 + v)/2 * rho + (1 - v)/2 * (I x Z) rho (I x Z)

with Z diagonal on the coin. The channel keeps the coin-diagonal
blocks of rho and scales the coin-off-diagonal ones by v, so
visibility 1 reproduces unitary evolution and visibility 0 removes all
coin coherence after every step. Every step moves the walker by
exactly one site, so entry rho[(x, i), (y, j)] of parity class
(x mod 2, y mod 2) moves to class (1 - x mod 2, 1 - y mod 2): the
classes never mix, and the walk from the origin lights only one of
them, a quarter of its light cone. The dephased walk steps that class
as one compact block and builds the public (2n, 2n) matrix only for
the final state. The light cone and the guard band of
``Lattice.for_steps(T)`` always fit the lattice, so no walk checks its
reach. :func:`_density_walk` returns only the (T + 1, n) stack of
distributions and the final state, so it keeps no trajectory; the
state after step k is the final state of the k-step walk.
:func:`bisect_visibility`, a bracketing regula falsi on the visibility,
calibrates the same walk. Its probes need only the final origin
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
)

BISECT_MAX_ROUNDS = 200
PROBE_MARGIN = 0.02


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

    def coins(self) -> NDArray[np.complex128]:
        """The coins of all steps in step order, shape (steps, 2, 2)."""
        indices = np.array(self.convention.step_indices(self.steps))
        return coin_at_step(self.theta, self.omega, indices, self.convention)

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
    lattice, as the guard band of ``Lattice.for_steps(T)`` does.
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


def _origin_walk(
    coins: NDArray[np.complex128], starts: NDArray[np.complex128] = np.zeros((2, 0))
) -> Iterator[NDArray[np.complex128]]:
    """The amplitudes of G walks from the origin, each from both basis coins: the start, then each step's.

    ``coins`` is a (T, 2, 2) stack for one walk (G = 1), kept as one
    (2, 2) coin per step, or a (T, G, 2, 2) stack with one coin per walk,
    which each step applies to both of its starts. The amplitudes are
    coin-major, (2, 2T + 3, 2G + K) over the full lattice, which the walks
    never leave; column ``jG + g`` walks g from basis coin j, and K start
    columns ``starts`` (2, K), which need one walk's stack, follow them.
    """
    steps, count = coins.shape[0], coins.shape[1] if coins.ndim == 4 else 1
    amps = np.zeros((2, 2 * steps + 3, 2 * count + starts.shape[1]), dtype=np.complex128)
    amps[0, steps + 1, :count] = amps[1, steps + 1, count : 2 * count] = 1.0
    amps[:, steps + 1, 2 * count :] = starts
    yield amps
    for coin in coins:
        amps = _coin_and_shift(coin if coin.ndim == 2 else np.concatenate((coin, coin)), amps)
        yield amps


def _blocks(amps: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """The blocks (G, 2T + 1, 2, 2) of basis columns (2, 2T + 3, 2G); ``[g, d + T, i, j]``: coin j to i at d."""
    return amps[:, 1:-1].reshape(2, amps.shape[1] - 2, 2, amps.shape[2] // 2).transpose(3, 1, 0, 2)


def propagator_blocks(schedule: WalkSchedule) -> NDArray[np.complex128]:
    """The blocks ``W_T[d]`` of the noiseless T-step walk, shape (2T + 1, 2, 2).

    Entry ``d + T`` is the 2x2 map from the coin at any site x to the
    coin at site x + d after all T steps, for d in [-T, T]. The walk is
    a revival when every block but ``W_T[0]`` vanishes, and ``W_T[0]``
    is then its effective coin. With zero steps the single block is the
    identity. The schedule visibility is ignored. This is the last step
    of :func:`_origin_walk`, the walk the scan batches over its rates.
    """
    for amps in _origin_walk(schedule.coins()):
        pass
    return _blocks(amps)[0]


def _class_steps(
    w: NDArray[np.complex128],
    coins: NDArray[np.complex128],
    visibility: float,
    diamond: bool = False,
) -> Iterator[NDArray[np.complex128]]:
    """The dephased walk of one parity class of rho from the origin: the start, then each step's block.

    ``coins`` is the (T, 2, 2) stack of the walk and ``visibility`` its
    dephasing. ``w[i, j, u, v]`` is rho[(b + 2u, i), (b + 2v, j)], on the
    sites of the class from b upwards, rows and columns alike; one step
    maps class (p, q) to (1 - p, 1 - q), so the class walks alone. One
    class step applies the coin pair to the whole block, with no shift
    yet: the right product ``h[i, j, u, v]`` takes the conjugate coin on
    the column coin j (the shift is real, so that is ``rho U^dagger``),
    and the left product ``p[i, j, u, v]`` the coin on the row coin i.
    Dephasing multiplies ``p`` by ``[[1, v], [v, 1]]`` over the coins,
    the channel's exact action (``x * 1.0 == x``). The shift then writes
    the four coin blocks of ``p`` into a new zeroed block one row and
    one column longer, whose base sits one site lower: plus rows move up
    one compact index and minus rows stay, and columns alike. From the
    origin's (2, 2, 1, 1) block, the k-th block yielded after the start
    holds the light cone's sites -k, -k + 2, ..., k. With ``diamond``,
    step k of T keeps only the sites within T - k of the origin, those
    that can still reach it: once the block is wider than that, one site
    goes from each end.

    Every entry goes through the products of :func:`_coin_and_shift`
    applied to the rows and then the columns: the coin entry as the
    first operand, term 0 added before term 1. So every entry is
    bit-identical to that two-pass step on the full lattice. The
    products are plain broadcast multiplies, not ``matmul``, ``einsum``
    or ``tensordot``: a BLAS ``(4, 4) @ (4, m^2)`` step sums in its own
    order, and probe and walk, whose crops differ, then round
    differently.
    """
    steps = len(coins)
    dephasing = np.array([[1.0, visibility], [visibility, 1.0]])[:, :, None, None]
    rc = coins.conj()[:, None, :, :, None, None]  # rc[t, 0, j', j] = conj(coin[j', j])
    lc = coins[:, :, None, :, None, None]  # lc[t, i', 0, i] = coin[i', i]
    yield w
    for k, (right, left) in enumerate(zip(rc, lc), start=1):
        f = w[:, None]  # f[i, 0, j, u, v]
        h = right[:, :, 0] * f[:, :, 0]
        h += right[:, :, 1] * f[:, :, 1]
        p = left[:, :, 0] * h[None, 0]
        p += left[:, :, 1] * h[None, 1]
        p *= dephasing
        m = w.shape[2] + 1
        w = np.zeros((2, 2, m, m), dtype=np.complex128)
        w[0, 0, 1:, 1:] = p[0, 0]
        w[0, 1, 1:, :-1] = p[0, 1]
        w[1, 0, :-1, 1:] = p[1, 0]
        w[1, 1, :-1, :-1] = p[1, 1]
        if diamond and m > steps - k + 1:
            w = w[:, :, 1:-1, 1:-1]
        yield w


def _origin_block() -> NDArray[np.complex128]:
    """The (2, 2) coin block ``c c^dagger`` of the symmetric coin c at the origin, its one parity class."""
    c = CoinVector.symmetric().as_array()
    return np.outer(c, c.conj())


def _probe_origin_probability(
    coins: NDArray[np.complex128], visibility: float, block: NDArray[np.complex128]
) -> float:
    """Final origin probability of the dephased walk from a start at the origin alone, unvalidated.

    ``coins`` is the walk's (T, 2, 2) stack, ``visibility`` its dephasing
    and ``block`` the start's (2, 2) coin block at the origin. A walk of
    odd T cannot return and has p0 0. The probe steps the block on the
    diamond of :func:`_class_steps`, so the last step leaves only the
    origin's entry. That entry is the light-cone walk's bit for bit, so
    the result equals the final p0 of :func:`_density_walk`.
    """
    if len(coins) % 2:
        return 0.0
    for w in _class_steps(block[:, :, None, None], coins, visibility, diamond=True):
        pass
    return float(w[0, 0, 0, 0].real + w[1, 1, 0, 0].real)


def _density_walk(schedule: WalkSchedule) -> tuple[PositionDistribution, WalkerCoinDensityMatrix]:
    """The dephased walk at any visibility, 1 included: its (T + 1, n) stack and final state.

    The walk steps :func:`_origin_block` with :func:`_class_steps` on
    ``Lattice.for_steps(T)``, building no start. Row k of the stack, the
    walk after k steps (row 0 the start), is the two coin diagonals of
    the k-th block, written at stride 2 on the light cone's sites -k,
    ..., k, and the final block is scattered into the (2n, 2n) matrix at
    stride 2, rows and columns alike. Only the returned objects are
    built and validated. ``analysis.classify`` takes it below visibility
    1, and :func:`bisect_visibility` at every visibility.
    """
    lattice = Lattice.for_steps(schedule.steps)
    n, origin, steps = lattice.size, lattice.index(0), schedule.steps
    probs = np.zeros((steps + 1, n))
    blocks = _class_steps(_origin_block()[:, :, None, None], schedule.coins(), schedule.visibility)
    for k, (row, w) in enumerate(zip(probs, blocks)):
        row[origin - k : origin + k + 1 : 2] = w[0, 0].diagonal().real + w[1, 1].diagonal().real
    matrix = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    cone = slice(origin - steps, origin + steps + 1, 2)
    matrix.reshape(n, 2, n, 2)[cone, :, cone, :] = w.transpose(2, 0, 3, 1)
    return PositionDistribution(lattice, probs), WalkerCoinDensityMatrix(lattice, matrix)


def bisect_visibility(
    schedule: WalkSchedule,
    target_origin_probability: float,
    tol: float = 1e-4,
) -> tuple[float, float]:
    """Visibility at which the walk ``analysis.classify`` summarises returns with the target p0, within tol.

    That walk starts from the symmetric coin at the origin. The final
    origin probability p0, a polynomial in the visibility, must straddle
    the target between visibilities 0 and 1. The search keeps a bracket
    across which p0 - target changes sign, for at most
    ``BISECT_MAX_ROUNDS`` probes, each at the regula falsi point of the
    bracket with the Anderson-Bjorck correction (BIT 13, 253, 1973):
    when a probe lands on the side of the previous one, the value kept
    at the far end is scaled by ``1 - f_new / f_previous`` (by 1/2 if
    that is not positive). A probe stays ``PROBE_MARGIN`` of the bracket
    width inside either end. A probe after two that have not halved the
    bracket (those at 0 and 1 leave width 1) takes its midpoint, unscaled,
    which bounds the probes where p0 is flat over most of [0, 1]. The
    start's (2T + 5, 2) amplitudes are allocated before any probe, only
    as a memory guard: a walk too large for memory fails at once, and no
    state of the start is built. The coin stack is built once, and each
    probe reads p0 from :func:`_probe_origin_probability` on it and on
    :func:`_origin_block`, the start's coin block ``c c^dagger`` at the
    origin, and validates nothing. The chosen visibility, an end point
    included, is then walked once by :func:`_density_walk`, the dephased
    walk ``analysis.classify`` takes, which validates the final state; its final
    p0 must equal the probe's (else RuntimeError) and is the one
    returned. At visibility 1 it stays on that density walk: the pure
    walk's p0 can differ from the probe's in the last bits. Returns
    (visibility, origin probability). Raises ValueError for a walk of no
    steps.
    """
    if schedule.steps < 1:
        raise ValueError(f"calibration needs at least one step, got {schedule.steps}")
    # the memory guard: a walk too large fails here, before any probe
    np.empty((2 * schedule.steps + 5, 2), dtype=np.complex128)
    coins, block = schedule.coins(), _origin_block()
    target = target_origin_probability

    def p0_at(v: float) -> float:
        return _probe_origin_probability(coins, v, block)

    def validated(v: float, probed: float) -> tuple[float, float]:
        distributions, _ = _density_walk(schedule.with_visibility(v))
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
