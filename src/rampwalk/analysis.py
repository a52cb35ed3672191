"""Revival diagnostics: return probabilities, distances from the start, effective coins.

A schedule exhibits a revival after T steps when the T-step walk acts
as identity on position times a fixed coin rotation, so any state that
starts at the origin returns there with certainty. The walk is
translation invariant, so this holds exactly when every propagator
block ``W_T[d]`` with d != 0 vanishes; ``W_T[0]`` is then the effective
coin. The revival is complete when that residual coin rotation is the
identity up to a global phase, making the full initial state recur.
A report reads its origin probability, its distance from the start and
its Polya number from the walk's one (T + 1, n) distribution stack.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .evolution import WalkSchedule, _blocks, _density_walk, _origin_walk
from .states import (
    CoinVector,
    Lattice,
    PositionDistribution,
    WalkerCoinPureState,
    WalkerState,
    _overlap,
    reduced_coin_state,
)

REVIVAL_TOL = 1e-10
PREDICTED_STATE_NORM_TOL = 1e-12
ROW_BLOCK = 8  # ring slots of classify's pure walk, squared and summed into rows at once


def polya_number(p0_series) -> float:
    """Probability of at least one return to the origin within the series.

    Computed as ``1 - prod(1 - p0(t))`` over the per-step origin
    probability series; a shorter horizon is a slice of it.
    """
    probs = np.asarray(p0_series, dtype=np.float64)
    if probs.ndim != 1:
        raise ValueError(f"expected a 1d series, got shape {probs.shape}")
    if probs.size and not (float(probs.min()) >= -1e-9 and float(probs.max()) <= 1.0 + 1e-9):
        raise ValueError("series contains values outside [0, 1]")
    clipped = np.clip(probs, 0.0, 1.0)
    return float(1.0 - np.prod(1.0 - clipped))


def effective_coin_balanced_strings(schedule: WalkSchedule) -> NDArray[np.complex128]:
    """Origin-to-origin coin map summed over balanced branch strings.

    Each step contributes either the plus row or the minus row of its
    coin; a walker beginning and ending at the origin takes each branch
    exactly T/2 times, so summing the ordered projected products over
    all balanced strings gives the effective coin after T steps.

    The strings are summed grouped by plus-branch count: ``paths[u]``
    holds the summed products of every prefix with u plus branches, so
    any even T costs O(T^2) 2x2 products and O(T) memory.
    """
    total_steps = schedule.steps
    if total_steps % 2 != 0:
        raise ValueError(
            f"walker returns to the origin only after an even number of steps, got {total_steps}"
        )
    coins = schedule.coins()
    plus_branch = np.where([[True], [False]], coins, 0)
    minus_branch = np.where([[False], [True]], coins, 0)
    paths = np.zeros((total_steps // 2 + 1, 2, 2), dtype=np.complex128)
    paths[0] = np.eye(2)
    for plus, minus in zip(plus_branch, minus_branch):
        paths[1:] = plus @ paths[:-1] + minus @ paths[1:]
        paths[0] = minus @ paths[0]
    return paths[-1]


def _verdict(blocks: NDArray[np.complex128]) -> tuple[NDArray[np.bool_], NDArray[np.bool_]]:
    """(revival, complete) boolean arrays for blocks ``W_T[-T..T]`` of shape (..., 2T + 1, 2, 2).

    Both have the leading shape: one call judges a scan row's whole batch.
    One tolerance ``tol = max(REVIVAL_TOL, T^2 eps)`` (eps of float64, so
    ``REVIVAL_TOL`` below T = 671) decides both. A revival: no off-origin
    block entry exceeds ``tol``. Complete: a revival with T even whose
    |W01|, |W10| and |W00 - W11| of ``W_T[0]`` are at most ``tol``.
    Rounding grows like T^2 eps; an incomplete revival's ``W_T[0] = lam
    rx(s T omega / 2)`` keeps a defect |sin T omega| of about 2 pi / T or
    more, so the rule holds up to T of about 3e5.
    """
    steps = blocks.shape[-3] // 2
    tol = max(REVIVAL_TOL, steps * steps * np.finfo(np.float64).eps)
    magnitudes = np.abs(blocks)
    magnitudes[..., steps, :, :] = 0.0
    revival = magnitudes.max(axis=(-3, -2, -1)) <= tol
    origin = blocks[..., steps, :, :]
    defect = np.abs(origin - origin[..., :1, :1] * np.eye(2)).max(axis=(-2, -1))
    return revival, revival & (steps % 2 == 0) & (defect <= tol)


@dataclass(frozen=True)
class RevivalReport:
    """Diagnostics for one schedule started from the symmetric coin at the origin.

    ``distributions`` stacks the position distributions in T + 1 rows,
    row t the walk after t steps and row 0 the start, and ``final`` is
    the last state. ``origin_probability`` is the last entry of
    ``distributions.at_site(0)``, ``tv_distance`` that of
    ``distributions.tv_from_start()``, and ``polya_truncated`` the Polya
    number of the origin probabilities of rows 1..T. ``overlap_initial``
    is the overlap of the final reduced coin state with the start coin;
    ``overlap_predicted`` uses the coin predicted by the effective coin
    map and is NaN when that prediction has vanishing norm.
    Operator-level fields describe the noiseless walk even when the
    schedule carries a visibility below 1.
    """

    origin_probability: float
    tv_distance: float
    polya_truncated: float
    effective_coin: NDArray[np.complex128] | None
    is_revival: bool
    is_complete: bool
    overlap_initial: float
    overlap_predicted: float
    distributions: PositionDistribution
    final: WalkerState


def classify(schedule: WalkSchedule) -> RevivalReport:
    """Walk from the symmetric coin at the origin and assemble the revival diagnosis.

    State-dependent quantities follow the schedule visibility (pure
    evolution at visibility 1, dephased otherwise); the revival and
    completeness verdicts always refer to the noiseless operator, as
    :func:`_verdict` gives them. At each revival of the closed-form law (see
    the README) the effective coin is ``lam rx(s T omega / 2)``: complete
    exactly when q | T, for omega / pi = k/q, with ``overlap_initial``
    cos^2(T omega). It builds the coin stack once and hands it to every
    walk. At visibility 1 one walk gives both: the blocks from its basis
    columns, the rows and the final state from its start column, sites -t..t
    after step t; below it the dephased walk gives the rows and the final
    state, and the basis columns alone the blocks. Every walk writes each
    state it yields, the start first, as one row of the (T + 1, n) stack,
    and the report reads p0, the distance and the Polya number from it
    (see :class:`RevivalReport`), as ``walk --json-out`` reads its two
    series. The CLI and the demo script format this report rather than
    walk; ``noise-sweep`` takes the reports of :func:`_classify_each`,
    which gives this one for one visibility.
    """
    [report] = _classify_each(schedule, [schedule.visibility])
    return report


def _classify_each(schedule: WalkSchedule, visibilities: Sequence[float]) -> Iterator[RevivalReport]:
    """The :func:`classify` report of ``schedule.with_visibility(v)`` for each v, in order, one at a time.

    Each v must be a visibility ``WalkSchedule`` accepts, in [0, 1]: the
    caller checks it (``classify`` passes the schedule's own, and
    ``noise-sweep`` checks its input first). An empty sequence walks
    nothing. The pure walk's (T + 1, n) rows, the shape of every
    report's rows, are allocated first, so a sweep too large for memory
    fails at once, before the coin stack. The coin stack is built once
    and the noiseless walk runs once, before the first report: with 1
    among the visibilities as the three-column walk, otherwise on the
    basis columns alone, for the blocks and the verdicts the reports
    share, into a ring of two slots, or of ``ROW_BLOCK`` at visibility 1,
    whose start column it squares and sums into a block of rows at once:
    the per-step ``|a+|^2 + |a-|^2`` bit for bit, with no more than the
    ring and a block of magnitudes held beside the rows. The final
    state is the start column written into zeroed amplitudes. Each
    visibility below 1 then takes its own dephased walk when its report
    is asked for, so a caller that keeps only numbers from each report
    holds one dephased state at a time, as one ``classify`` call per
    visibility would. Each report checks its reduced coin state once,
    and both overlaps read it unchecked.
    """
    if not visibilities:
        return
    initial_coin = CoinVector.symmetric()
    lattice = Lattice.for_steps(schedule.steps)
    # the pure walk's rows, the shape of every report's: a sweep too large for
    # memory fails here, before the coin stack is built or the noiseless walk steps
    probs = np.zeros((schedule.steps + 1, lattice.size))
    coins = schedule.coins()
    # basis coin 1 walks as a start column, not as the mirror of basis coin 0, so the blocks keep their signed zeros
    basis1 = np.eye(2)[:, 1:]
    if 1.0 in visibilities:
        # each slot holds its step on the sites -T..T, zero off the light cone, so a row is a whole slot
        ring = np.zeros((ROW_BLOCK, 2, 2 * schedule.steps + 1, 3), dtype=np.complex128)
        for t, amps in enumerate(_origin_walk(coins, ring, np.hstack((basis1, initial_coin.as_array()[:, None])))):
            slot = t % ROW_BLOCK
            if slot == ROW_BLOCK - 1 or t == schedule.steps:
                block = np.abs(ring[: slot + 1, :, :, 2])
                np.square(block, out=block)
                np.add(block[:, 0], block[:, 1], out=probs[t - slot : t + 1, 2:-2])
        amplitudes = np.zeros((lattice.size, 2), dtype=np.complex128)
        amplitudes[2:-2] = amps[:, :, 2].T
        pure = PositionDistribution(lattice, probs), WalkerCoinPureState(lattice, amplitudes)
    else:
        for amps in _origin_walk(coins, np.zeros((2, 2, 2 * schedule.steps + 1, 2), dtype=np.complex128), basis1):
            pass
    blocks = _blocks(amps[:, :, :2].transpose(2, 0, 1)[..., None])[0]
    effective = blocks[schedule.steps].copy() if schedule.steps % 2 == 0 else None
    revival, complete = _verdict(blocks)
    predicted_coin = None
    if effective is not None:
        predicted = effective @ initial_coin.as_array()
        norm = float(np.linalg.norm(predicted))
        if norm > PREDICTED_STATE_NORM_TOL:
            predicted = predicted / norm
            predicted_coin = CoinVector(complex(predicted[0]), complex(predicted[1]))

    for visibility in visibilities:
        distributions, final = pure if visibility == 1.0 else _density_walk(coins, visibility)
        p0 = distributions.at_site(0)
        coin_rho = reduced_coin_state(final)
        yield RevivalReport(
            origin_probability=float(p0[-1]),
            tv_distance=float(distributions.tv_from_start()[-1]),
            polya_truncated=polya_number(p0[1:]),
            effective_coin=effective,
            is_revival=bool(revival),
            is_complete=bool(complete),
            overlap_initial=_overlap(coin_rho, initial_coin),
            overlap_predicted=math.nan if predicted_coin is None else _overlap(coin_rho, predicted_coin),
            distributions=distributions,
            final=final,
        )
