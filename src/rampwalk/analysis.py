"""Revival diagnostics: distances, return probabilities, effective coins.

A schedule exhibits a revival after T steps when the T-step walk acts
as identity on position times a fixed coin rotation, so any state that
starts at the origin returns there with certainty. The walk is
translation invariant, so this holds exactly when every propagator
block ``W_T[d]`` with d != 0 vanishes; ``W_T[0]`` is then the effective
coin. The revival is complete when that residual coin rotation is the
identity up to a global phase, making the full initial state recur.
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
    coin_overlap,
    reduced_coin_state,
)

REVIVAL_TOL = 1e-10
PHASE_EQUAL_TOL = 1e-8
PREDICTED_STATE_NORM_TOL = 1e-12


def tv_distance(p: PositionDistribution, q: PositionDistribution) -> float | NDArray[np.float64]:
    """Total variation distance on one lattice: a float, or (T,) distances when `p` is a stack."""
    if p.lattice != q.lattice:
        raise ValueError(f"lattice mismatch: {p.lattice} vs {q.lattice}")
    distance = 0.5 * np.sum(np.abs(p.probabilities - q.probabilities), axis=-1)
    return float(distance) if distance.ndim == 0 else distance


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
    A revival: no entry of any block off the origin exceeds ``REVIVAL_TOL``
    in magnitude. Complete: a revival with T even and ``W_T[0]`` within
    ``PHASE_EQUAL_TOL`` of ``lam I``, lam the phase of ``W_T[0][0, 0]``; a
    zero ``W_T[0][0, 0]`` is never complete.
    """
    steps = blocks.shape[-3] // 2
    magnitudes = np.abs(blocks)
    magnitudes[..., steps, :, :] = 0.0
    revival = magnitudes.max(axis=(-3, -2, -1)) <= REVIVAL_TOL
    pivot = blocks[..., steps, 0, 0]
    # hypot: abs() of one complex, which np.abs of an array can miss by an ulp
    with np.errstate(all="ignore"):  # a zero or subnormal pivot: a NaN residual, never complete
        phase = (pivot / np.hypot(pivot.real, pivot.imag))[..., None, None]
        residual = np.abs(blocks[..., steps, :, :] - phase * np.eye(2)).max(axis=(-2, -1))
        complete = revival & (steps % 2 == 0) & (residual <= PHASE_EQUAL_TOL)
    return revival, complete


@dataclass(frozen=True)
class RevivalReport:
    """Diagnostics for one schedule started from the symmetric coin at the origin.

    ``distributions`` stacks the position distributions in T + 1 rows,
    row t the walk after t steps and row 0 the start, and ``final`` is
    the last state. ``overlap_initial`` is the overlap of the final
    reduced coin state with the start coin; ``overlap_predicted`` uses
    the coin predicted by the effective coin map and is NaN when that
    prediction has vanishing norm. Operator-level fields describe the
    noiseless walk even when the schedule carries a visibility below 1.
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
    :func:`_verdict` gives them. It builds the coin stack once and hands
    it to every walk. At visibility 1 one walk gives both: the blocks
    from its basis columns, the rows and the final state from its start
    column on the inner 2T + 3 sites of ``Lattice.for_steps(T)``; below
    it the dephased walk gives the rows and the final state, and the
    basis columns alone the blocks. Every walk writes each state it
    yields, the start first, as one row of the (T + 1, n) stack: p0 is
    its last row's, the distance the last of its distances from row 0
    (the series ``walk --json-out`` writes), and the Polya number comes
    from the p0 of rows 1..T. The CLI and the demo script format this
    report rather than walk; ``noise-sweep`` takes the reports of
    :func:`_classify_each`, which gives this one for one visibility.
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
    share. Each visibility below 1 then takes its own dephased walk
    when its report is asked for, so a caller that keeps only numbers
    from each report holds one dephased state at a time, as one
    ``classify`` call per visibility would.
    """
    if not visibilities:
        return
    initial_coin = CoinVector.symmetric()
    lattice = Lattice.for_steps(schedule.steps)
    # the pure walk's rows, the shape of every report's: a sweep too large for
    # memory fails here, before the coin stack is built or the noiseless walk steps
    probs = np.zeros((schedule.steps + 1, lattice.size))
    coins = schedule.coins()
    if 1.0 in visibilities:
        walk = _origin_walk(coins, initial_coin.as_array()[:, None])
        for row, amps in zip(probs, walk):
            row[1:-1] = np.abs(amps[0, :, 2]) ** 2 + np.abs(amps[1, :, 2]) ** 2
        pure = (
            PositionDistribution(lattice, probs),
            WalkerCoinPureState(lattice, np.pad(amps[:, :, 2].T, ((1, 1), (0, 0)))),
        )
    else:
        for amps in _origin_walk(coins):
            pass
    blocks = _blocks(amps[:, :, :2])[0]
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
        start = PositionDistribution(lattice, distributions.probabilities[0])
        coin_rho = reduced_coin_state(final)
        yield RevivalReport(
            origin_probability=float(distributions.at_site(0)[-1]),
            tv_distance=float(tv_distance(distributions, start)[-1]),
            polya_truncated=polya_number(distributions.at_site(0)[1:]),
            effective_coin=effective,
            is_revival=bool(revival),
            is_complete=bool(complete),
            overlap_initial=coin_overlap(coin_rho, initial_coin),
            overlap_predicted=math.nan if predicted_coin is None else coin_overlap(coin_rho, predicted_coin),
            distributions=distributions,
            final=final,
        )
