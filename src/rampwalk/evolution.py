"""Coin-and-shift walk for the ramped-coin walk, pure and dephased.

One step applies the step-dependent coin and then the conditional
shift: the plus component moves one site up, the minus component one
site down. A walk of T steps applies steps in increasing index order.
The coin is the same on every site, so the T-step walk is translation
invariant: one column of 2x2 blocks ``W_T[d]``, the map from the coin
at any site x to the coin at x + d, describes it completely (see
:func:`_blocks`).

Every pure walk in the package is one :func:`_origin_walk`, the one
loop over the batched step :func:`_coin_and_shift`, on coin-major
amplitudes (..., 2, n, G) (coin, site, then a batch of G walks) under
the coin stack of :meth:`WalkSchedule.coins`, which the caller builds
once and hands to every walk it runs. Every dephased walk runs through
one density loop, :func:`_class_steps`, which applies the coin pair to
one parity class of rho in one pass and then shifts it, with the same
products as :func:`_coin_and_shift` on the rows and then the columns,
for a batch of K visibilities at once. Every walk of a state, the one
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
as one compact block, with a trailing axis for a batch of
visibilities, and builds the public (2n, 2n) matrix only for the final
state. The light cone and the guard band of ``Lattice.for_steps(T)``
always fit the lattice, so no walk checks its reach.
:func:`_density_walk` returns only the (T + 1, n) stack of
distributions and the final state of one visibility, so it keeps no
trajectory; the state after step k is the final state of the k-step
walk. :func:`bisect_visibility` calibrates the same walk by rounds of
``PROBES_PER_WALK`` visibilities inside a sign-changing bracket. Its
probes need only the final origin probability, so each round steps
the same density loop on the start's coin block at the origin,
cropped after every step to the sites that can still reach it.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterator, Sequence
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
# visibilities per calibration probe walk: on the benchmark's 50 calibrations
# (seeds 1-10) 3, 4, 5, 6 and 7 took 4.3, 3.9, 3.0, 3.0 and 3.0 walks per
# calibration, and 5 the least time: a wider walk costs more per step
PROBES_PER_WALK = 5


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
        indices = self.convention.step_indices(self.steps)
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
    """The blocks ``W_T[d]`` (G, 2T + 1, 2, 2) of basis columns (2, 2T + 3, 2G) after T steps.

    ``[g, d + T, i, j]`` maps coin j at any site x to coin i at x + d in
    walk g, for d in [-T, T]. A walk is a revival when every block but
    ``W_T[0]``, then its effective coin, vanishes; zero steps give the identity.
    """
    return amps[:, 1:-1].reshape(2, amps.shape[1] - 2, 2, amps.shape[2] // 2).transpose(3, 1, 0, 2)


def _class_steps(
    block: NDArray[np.complex128],
    coins: NDArray[np.complex128],
    visibilities: Sequence[float],
    diamond: bool = False,
) -> Iterator[NDArray[np.complex128]]:
    """K dephased walks of one parity class of rho from the origin: the start, then each step's block.

    ``block`` is the start's (2, 2) coin block at the origin, ``coins``
    the (T, 2, 2) stack of the walk and ``visibilities`` the K
    dephasings, one walk each. ``w[i, j, u, v, k]`` is
    rho[(b + 2u, i), (b + 2v, j)] of walk k, on the sites of the class
    from b upwards, rows and columns alike; one step maps class (p, q)
    to (1 - p, 1 - q), so the class walks alone. One class step applies
    the coin pair to the whole block, with no shift yet: the right
    product ``h[i, j, u, v, k]`` takes the conjugate coin on the column
    coin j (the shift is real, so that is ``rho U^dagger``), and the
    left product ``p[i, j, u, v, k]`` the coin on the row coin i.
    Dephasing multiplies ``p`` by a (2, 2, 1, 1, K) factor, ``[[1, v],
    [v, 1]]`` over the coins for each walk's v, the channel's exact
    action (``x * 1.0 == x``). The shift then writes the four coin
    blocks of ``p`` into a new zeroed block one row and one column
    longer, whose base sits one site lower: plus rows move up one
    compact index and minus rows stay, and columns alike. From the
    origin, the k-th block yielded after the start holds the light
    cone's sites -k, -k + 2, ..., k. With ``diamond``, step k of T keeps
    only the sites within T - k of the origin, those that can still
    reach it: once the block is wider than that, one site goes from
    each end.

    Every entry goes through the products of :func:`_coin_and_shift`
    applied to the rows and then the columns: the coin entry as the
    first operand, term 0 added before term 1. So every entry is
    bit-identical to that two-pass step on the full lattice, and each
    column k to the walk of visibility k alone. The products are plain
    broadcast multiplies, not ``matmul``, ``einsum`` or ``tensordot``: a
    BLAS ``(4, 4) @ (4, m^2)`` step sums in its own order, and probe and
    walk, whose crops differ, then round differently.
    """
    steps, count = len(coins), len(visibilities)
    dephasing = np.ones((2, 2, 1, 1, count))
    dephasing[0, 1, 0, 0] = dephasing[1, 0, 0, 0] = visibilities
    rc = coins.conj()[:, None, :, :, None, None, None]  # rc[t, 0, j', j] = conj(coin[j', j])
    lc = coins[:, :, None, :, None, None, None]  # lc[t, i', 0, i] = coin[i', i]
    w = np.repeat(block[:, :, None, None, None], count, axis=4)
    yield w
    for k, (right, left) in enumerate(zip(rc, lc), start=1):
        f = w[:, None]  # f[i, 0, j, u, v, k]
        h = right[:, :, 0] * f[:, :, 0]
        h += right[:, :, 1] * f[:, :, 1]
        p = left[:, :, 0] * h[None, 0]
        p += left[:, :, 1] * h[None, 1]
        p *= dephasing
        m = w.shape[2] + 1
        w = np.zeros((2, 2, m, m, count), dtype=np.complex128)
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
    coins: NDArray[np.complex128], visibilities: Sequence[float], block: NDArray[np.complex128]
) -> NDArray[np.float64]:
    """Final origin probabilities (K,) of K dephased walks from a start at the origin alone, unvalidated.

    ``coins`` is the walks' (T, 2, 2) stack, ``visibilities`` their K
    dephasings and ``block`` the start's (2, 2) coin block at the
    origin. A walk of odd T cannot return and has p0 0. The probe steps
    the block on the diamond of :func:`_class_steps`, all K walks as one
    batch, so the last step leaves only the origin's entry of each. That
    entry is the light-cone walk's bit for bit, so each p0 equals the
    final p0 of :func:`_density_walk` at its visibility.
    """
    if len(coins) % 2:
        return np.zeros(len(visibilities))
    for w in _class_steps(block, coins, visibilities, diamond=True):
        pass
    return w[0, 0, 0, 0].real + w[1, 1, 0, 0].real


def _density_walk(
    coins: NDArray[np.complex128], visibility: float
) -> tuple[PositionDistribution, WalkerCoinDensityMatrix]:
    """The dephased walk at any visibility, 1 included: its (T + 1, n) stack and final state.

    ``coins`` is the walk's (T, 2, 2) stack, built by the caller, and
    ``visibility`` its dephasing. The walk steps :func:`_origin_block`
    with :func:`_class_steps`, as a batch of one visibility, on
    ``Lattice.for_steps(T)``, building no start. Row k of the stack, the
    walk after k steps (row 0 the start), is the two coin diagonals of
    the k-th block, written at stride 2 on the light cone's sites -k,
    ..., k, and the final block is scattered into the (2n, 2n) matrix at
    stride 2, rows and columns alike. The stack and the matrix are
    allocated before the first step, so a walk too large for memory
    fails there. Only the returned objects are built and validated.
    ``analysis.classify`` takes it for each visibility below 1, one walk
    at a time, and :func:`bisect_visibility` at its chosen visibility,
    each on the stack it has already built.
    """
    lattice = Lattice.for_steps(len(coins))
    n, origin, steps = lattice.size, lattice.index(0), len(coins)
    matrix = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    probs = np.zeros((steps + 1, n))
    blocks = _class_steps(_origin_block(), coins, [visibility])
    for k, (row, w) in enumerate(zip(probs, blocks)):
        row[origin - k : origin + k + 1 : 2] = w[0, 0, :, :, 0].diagonal().real + w[1, 1, :, :, 0].diagonal().real
    cone = slice(origin - steps, origin + steps + 1, 2)
    matrix.reshape(n, 2, n, 2)[cone, :, cone, :] = w[..., 0].transpose(2, 0, 3, 1)
    return PositionDistribution(lattice, probs), WalkerCoinDensityMatrix(lattice, matrix)


def _round_around_root(probes: dict[float, float], target: float, lo: float, hi: float) -> list[float]:
    """The visibilities of a probe round around the root of p0 - target in the bracket (lo, hi).

    ``probes`` maps every visibility probed so far to its p0. The root
    estimate r inverts the interpolating polynomial (v as a polynomial
    in p0, evaluated at the target) through the ``PROBES_PER_WALK``
    probes nearest the regula falsi point of the bracket, and r' through
    all but the farthest of them. The round is r and points
    ``r + s * (-1, 1, -2, 2, ...)`` with s = |r - r'| / 2, kept between
    1e-6 and ``1 / PROBES_PER_WALK`` of the bracket width. When r falls
    outside the bracket, or two of those probes share a p0, the regula
    falsi point stands in for it. Every point stays ``PROBE_MARGIN`` of
    the width inside the bracket.
    """
    width = hi - lo
    secant = lo - (probes[lo] - target) * width / (probes[hi] - probes[lo])
    near = sorted(probes, key=lambda v: abs(v - secant))[:PROBES_PER_WALK]

    def inverse(points: list[float]) -> float:
        f = [probes[v] - target for v in points]
        if len(set(f)) < len(f):
            return secant
        return sum(
            v * math.prod(-f[j] / (f[i] - f[j]) for j in range(len(f)) if j != i)
            for i, v in enumerate(points)
        )

    root, coarser = inverse(near), inverse(near[:-1])
    margin = PROBE_MARGIN * width
    if not lo + margin < root < hi - margin:
        root = min(max(secant, lo + margin), hi - margin)
    spread = min(max(0.5 * abs(root - coarser), 1e-6 * width), width / PROBES_PER_WALK)
    offsets = [(-1) ** j * ((j + 1) // 2) for j in range(PROBES_PER_WALK)]  # 0, -1, 1, -2, 2, ...
    return sorted({min(max(root + spread * c, lo + margin), hi - margin) for c in offsets})


def bisect_visibility(
    schedule: WalkSchedule,
    target_origin_probability: float,
    tol: float = 1e-4,
) -> tuple[float, float]:
    """Visibility at which the walk ``analysis.classify`` summarises returns with the target p0, within tol.

    That walk starts from the symmetric coin at the origin. The final
    origin probability p0, a polynomial in the visibility, must straddle
    the target between visibilities 0 and 1. The search probes
    ``PROBES_PER_WALK`` (K) visibilities per walk, in rounds, and keeps
    a bracket across which p0 - target changes sign: two neighbouring
    probes, the lowest such pair. The first round holds 0, 1 and the
    K - 2 interior Chebyshev-Lobatto nodes of [0, 1]. Each later round
    lies strictly inside the bracket the earlier rounds left: K points
    around the interpolated root (see :func:`_round_around_root`), or,
    after a round that has not halved the bracket, K equispaced interior
    points, which bounds the worst case. At most ``BISECT_MAX_ROUNDS``
    rounds follow the first. The probe nearest the target in a round
    ends the search when it is within tol, the ends of [0, 1] first.
    Two memory guards are allocated before anything else: the start's
    (2T + 5, 2) amplitudes, which name the walk's size, and the probe
    batch's widest block, (2, 2, T/2 + 2, T/2 + 2, K). So a calibration
    too large for memory fails at once, and no state is built. The coin
    stack is built once, and each round reads its p0s from one
    :func:`_probe_origin_probability` walk on it and on
    :func:`_origin_block`, the start's coin block ``c c^dagger`` at the
    origin, and validates nothing. The chosen visibility, an end point
    included, is then walked once on the same stack by
    :func:`_density_walk`, the dephased walk ``analysis.classify`` takes,
    which validates the final state; its final p0 must equal the probe's
    (else RuntimeError) and is the one returned. At visibility 1 it
    stays on that density walk: the pure walk's p0 can differ from the
    probe's in the last bits. Returns (visibility, origin probability).
    Raises ValueError for a walk of no steps.
    """
    if schedule.steps < 1:
        raise ValueError(f"calibration needs at least one step, got {schedule.steps}")
    # the memory guards: a calibration too large fails here, before any probe; the
    # start's amplitudes name the walk's size, and the probe batch's widest block
    # holds the batch
    np.empty((2 * schedule.steps + 5, 2), dtype=np.complex128)
    widest = schedule.steps // 2 + 2
    np.empty((2, 2, widest, widest, PROBES_PER_WALK), dtype=np.complex128)
    coins, block = schedule.coins(), _origin_block()
    target = target_origin_probability
    probes: dict[float, float] = {}  # every visibility probed so far, and its p0

    def probe(visibilities: list[float]) -> list[float]:
        probes.update(zip(visibilities, _probe_origin_probability(coins, visibilities, block).tolist()))
        return visibilities

    def validated(v: float) -> tuple[float, float]:
        distributions, _ = _density_walk(coins, v)
        p0 = float(distributions.at_site(0)[-1])
        if p0 != probes[v]:
            raise RuntimeError(f"probe p0 {probes[v]!r} differs from the walk's {p0!r} at visibility {v!r}")
        return v, p0

    nodes = [0.5 - 0.5 * math.cos(math.pi * j / (PROBES_PER_WALK - 1)) for j in range(1, PROBES_PER_WALK - 1)]
    latest = probe([0.0, 1.0, *nodes])
    p_lo, p_hi = probes[0.0], probes[1.0]
    if abs(p_lo - target) <= tol:
        return validated(0.0)
    if abs(p_hi - target) <= tol:
        return validated(1.0)
    if not min(p_lo, p_hi) < target < max(p_lo, p_hi):
        raise ValueError(
            f"target {target} not bracketed: p0(0.0) = {p_lo:.6f}, p0(1.0) = {p_hi:.6f}"
        )
    width = 1.0  # the bracket's width before the latest round
    for _ in range(BISECT_MAX_ROUNDS):
        best = min(latest, key=lambda v: abs(probes[v] - target))
        if abs(probes[best] - target) <= tol:
            return validated(best)
        known = sorted(probes)
        lo, hi = next((a, b) for a, b in zip(known, known[1:]) if (probes[a] > target) != (probes[b] > target))
        if hi - lo > 0.5 * width:
            points = [lo + (hi - lo) * j / (PROBES_PER_WALK + 1) for j in range(1, PROBES_PER_WALK + 1)]
        else:
            points = _round_around_root(probes, target, lo, hi)
        width = hi - lo
        latest = probe(points)
    raise RuntimeError(f"calibration did not converge within {BISECT_MAX_ROUNDS} probe rounds")
