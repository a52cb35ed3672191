"""Coin-and-shift walk for the ramped-coin walk, pure and dephased.

One step applies the step-dependent coin and then the conditional
shift: the plus component moves one site up, the minus component one
site down. A walk of T steps applies steps in increasing index order.
The coin is the same on every site, so the T-step walk is translation
invariant: one column of 2x2 blocks ``W_T[d]``, the map from the coin
at any site x to the coin at x + d, describes it completely (see
:func:`_blocks`).

Every pure walk in the package is one :func:`_origin_walk`, the one loop
over the batched step :func:`_coin_and_shift`, on coin-major amplitudes
(..., 2, m, G) (coin, site, then a batch of G walks) on the light cone,
a window one site wider each way per step, under the coin stack of
:meth:`WalkSchedule.coins`, which the caller builds once and hands to
every walk it runs. Each step writes into a ring of slots its caller
allocates once, and yields a view valid until the ring wraps. Every
dephased walk runs through one density loop, :func:`_class_steps`, which
applies the coin pair to one parity class of rho in one pass and then
shifts it, with the same products as :func:`_coin_and_shift` on the rows
and then the columns, for a batch of K visibilities at once. Every walk
of a state, the one ``analysis.classify`` summarises, starts from the
symmetric coin at the origin of ``Lattice.for_steps(T)``, and both loops
yield that start first, so the walk after t steps is row t of its
(T + 1, n) stack of distributions. Below visibility 1 the walk is
dephased: each unitary step is followed by a coin dephasing channel of
strength set by the schedule visibility:

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
visibilities, and its last block is the final state as it is. Every walk
holds only its light cone, which is ``Lattice.for_steps(T)`` itself, so
no walk checks its reach.
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


def _coin_and_shift(entries: Sequence, amps: NDArray[np.complex128], out: NDArray[np.complex128]) -> None:
    """One walk step on a batch of coin-major amplitudes, written into ``out``, one site wider each way.

    ``amps`` has shape (..., 2, m, G): coin, a window of m sites, then a
    batch of G walks; leading axes are batch too. ``entries`` are the
    coin's four entries ``(c00, c01, c10, c11)``: Python complex numbers
    for one coin shared by the whole batch, or (G,) arrays, entry ``[g]``
    for walk g, for a stack. Coin and shift are fused into the caller's
    (..., 2, m + 2, G) ``out``, allocating only a product temporary: site
    i writes its plus component to index i + 2 and its minus component to
    index i, each as ``c0 * plus + c1 * minus`` with ``c0, c1`` one row of
    the coin, so nothing is dropped; the plus entries of the first two
    sites and the minus entries of the last two stay the caller's zeros.
    Every operand is a run of whole site rows, so no multiply reads a
    strided coin axis. ``out[..., 1:-1, :]`` is the fixed-lattice step on
    m sites, which drops what it shifts past an edge.
    """
    c00, c01, c10, c11 = entries  # (G,) or scalars: each broadcasts over (..., m, G)
    plus, minus = amps[..., 0, :, :], amps[..., 1, :, :]
    up, down = out[..., 0, 2:, :], out[..., 1, :-2, :]
    # the coin entry goes first: numpy's vectorised complex product can
    # round the last bit differently when its operands are swapped
    np.multiply(c00, plus, out=up)
    up += c01 * minus
    np.multiply(c10, plus, out=down)
    down += c11 * minus


def _origin_walk(coins: NDArray[np.complex128], ring: NDArray[np.complex128]) -> Iterator[NDArray[np.complex128]]:
    """The amplitudes of G walks from the origin, stepped into ``ring`` from the starts its caller wrote.

    ``coins`` is a (T, 2, 2) stack shared by all G walks, whose entries
    are unpacked once as Python complex numbers and the stack dropped, or
    a (T, G, 2, 2) stack with one coin per walk, read as a (T, 4, G) view.
    ``ring`` is a (S, 2, 2T + 1, G) array of S >= 2 slots on the sites
    -T..T, zero but for the (2, G) start coins the caller writes at the
    origin, ``ring[0, :, T]``: step t (the start is step 0) writes slot
    ``t % S`` on its light cone, the window [T - t, T + t + 1), and yields
    that view, valid until the ring wraps, S - 1 steps later. A slot's
    window only grows, so what a step leaves unwritten is still the
    ring's zeros. The walks from basis coin 1 are start columns, or the
    mirror of the walks from basis coin 0 (see :func:`_blocks`).
    """
    steps = coins.shape[0]
    if coins.ndim == 3:
        entries = coins.reshape(steps, 4).tolist()
    else:
        entries = coins.reshape(steps, coins.shape[1], 4).transpose(0, 2, 1)
    del coins
    amps = ring[0, :, steps : steps + 1]
    yield amps
    for t, step in enumerate(entries, start=1):
        amps, previous = ring[t % len(ring), :, steps - t : steps + t + 1], amps
        _coin_and_shift(step, previous, amps)
        yield amps


def _blocks(walks: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """The blocks ``W_T[d]`` (G, 2T + 1, 2, 2) of G walks (2, 2, 2T + 1, G) after T steps, a view.

    ``walks[j]`` holds the amplitudes (2, 2T + 1, G) of the G walks from
    basis coin j. ``[g, d + T, i, j]`` of the blocks maps coin j at any
    site x to coin i at x + d in walk g, for d in [-T, T]. A walk is a
    revival when every block but ``W_T[0]``, then its effective coin,
    vanishes; zero steps give the identity.

    Every coin has the form ``[[a, b], [-b*, a*]]``, and
    :func:`coins.coin_at_step` writes ``c11 == conj(c00)`` and ``c10 ==
    -conj(c01)`` bit for bit. So the walk from basis coin 1 is the mirror
    of the walk from basis coin 0, ``e1[0, x] = -conj(e0[1, -x])`` and
    ``e1[1, x] = conj(e0[0, -x])``, that is ``W_T[d] = sigma_y
    conj(W_T[-d]) sigma_y``. The rule is exact in every value: conjugation
    passes exactly through complex products, and each mirrored step adds
    the same two products in swapped order, which IEEE addition does not
    change. Only the signs of zeros can differ. In code: ``m = e0[::-1,
    ::-1].conj(); m[0] *= -1``. The scan reads its walks from basis coin 1
    so; ``classify`` walks its own, which keeps its signed zeros.
    """
    return walks.transpose(3, 2, 1, 0)


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

    Every entry goes through the products of :func:`_coin_and_shift` applied
    to the rows and then the columns: the coin entry as the first operand,
    term 0 added before term 1. So every entry is bit-identical to that
    two-pass step on all of rho, cropped to the lattice, and each column k
    to the walk of visibility k alone. The products are plain broadcast
    multiplies, not ``matmul``, ``einsum`` or ``tensordot``: a BLAS
    ``(4, 4) @ (4, m^2)`` step sums in its own order, and probe and walk,
    whose crops differ, then round differently.
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
    ..., k, and the final state is the last block, on the sites -T, ...,
    T. A block of its shape and the stack are allocated before the first
    step, so a walk too large for memory fails there, and the class walk
    runs to its end, which frees its temporaries before the final state
    is validated. ``analysis.classify`` takes it for each visibility
    below 1, one walk at a time, and :func:`bisect_visibility` at its
    chosen visibility, each on the stack it has already built.
    """
    steps = len(coins)
    lattice = Lattice.for_steps(steps)
    np.empty((2, 2, steps + 1, steps + 1), dtype=np.complex128)  # the memory guard
    probs = np.zeros((steps + 1, lattice.size))
    for k, w in enumerate(_class_steps(_origin_block(), coins, [visibility])):  # the origin is index T
        probs[k, steps - k : steps + k + 1 : 2] = w[0, 0, :, :, 0].diagonal().real + w[1, 1, :, :, 0].diagonal().real
    return PositionDistribution(lattice, probs), WalkerCoinDensityMatrix(lattice, w[..., 0])


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
    (2T + 1, 2) amplitudes, which name the walk's size, and the probe
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
    Raises ValueError for a walk of no steps, a target outside [0, 1] or
    a tol that is negative or NaN.
    """
    if schedule.steps < 1:
        raise ValueError(f"calibration needs at least one step, got {schedule.steps}")
    target = target_origin_probability
    if not 0.0 <= target <= 1.0:  # NaN too: refused before the guards, the coin stack and any probe
        raise ValueError(f"target origin probability {target} lies outside [0, 1]")
    if not tol >= 0.0:  # NaN too, which no probe would ever meet
        raise ValueError(f"tolerance {tol} is not a non-negative number")
    # the memory guards: a calibration too large fails here, before any probe; the
    # start's amplitudes name the walk's size, and the probe batch's widest block
    # holds the batch
    np.empty((2 * schedule.steps + 1, 2), dtype=np.complex128)
    widest = schedule.steps // 2 + 2
    np.empty((2, 2, widest, widest, PROBES_PER_WALK), dtype=np.complex128)
    coins, block = schedule.coins(), _origin_block()
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
