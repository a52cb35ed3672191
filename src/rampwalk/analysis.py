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
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .coins import equal_up_to_global_phase
from .evolution import WalkSchedule, propagator_blocks, run_walk, symmetric_start
from .states import (
    CoinVector,
    PositionDistribution,
    WalkerState,
    coin_overlap,
    position_distribution,
    reduced_coin_state,
)

REVIVAL_TOL = 1e-10
PREDICTED_STATE_NORM_TOL = 1e-12


def tv_distance(p: PositionDistribution, q: PositionDistribution) -> float | NDArray[np.float64]:
    """Total variation distance on one lattice: a float, or (T,) distances when `p` is a stack."""
    if p.lattice != q.lattice:
        raise ValueError(f"lattice mismatch: {p.lattice} vs {q.lattice}")
    distance = 0.5 * np.sum(np.abs(p.probabilities - q.probabilities), axis=-1)
    return float(distance) if distance.ndim == 0 else distance


def polya_number(p0_series, horizon: int | None = None) -> float:
    """Probability of at least one return to the origin within the horizon.

    Computed as ``1 - prod(1 - p0(t))`` over the first `horizon` entries
    of the per-step origin probability series.
    """
    probs = np.asarray(p0_series, dtype=np.float64)
    if probs.ndim != 1:
        raise ValueError(f"expected a 1d series, got shape {probs.shape}")
    if horizon is None:
        horizon = probs.size
    if not 0 <= horizon <= probs.size:
        raise ValueError(f"horizon {horizon} outside [0, {probs.size}]")
    if probs.size and not (float(probs.min()) >= -1e-9 and float(probs.max()) <= 1.0 + 1e-9):
        raise ValueError("series contains values outside [0, 1]")
    clipped = np.clip(probs[:horizon], 0.0, 1.0)
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


def _verdict(blocks: NDArray[np.complex128]) -> tuple[bool, bool]:
    """(revival, complete) for the propagator blocks ``W_T[-T..T]`` of a T-step walk.

    A revival: no entry of any block off the origin exceeds ``REVIVAL_TOL``
    in magnitude. Complete: a revival with T even and ``W_T[0]`` the
    identity up to a global phase.
    """
    steps = blocks.shape[0] // 2
    off_origin = np.delete(blocks, steps, axis=0)
    revival = float(np.abs(off_origin).max(initial=0.0)) <= REVIVAL_TOL
    complete = revival and steps % 2 == 0 and equal_up_to_global_phase(blocks[steps], np.eye(2))
    return revival, complete


@dataclass(frozen=True)
class RevivalReport:
    """Diagnostics for one schedule started from the symmetric coin at the origin.

    ``distributions`` stacks the position distributions, one row per step,
    and ``final`` is the last state. ``overlap_initial`` is the overlap of
    the final reduced coin state with the start coin; ``overlap_predicted``
    uses the coin predicted by the effective coin map and is NaN when that
    prediction has vanishing norm. Operator-level fields describe the noiseless walk
    even when the schedule carries a visibility below 1.
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
    :func:`_verdict` gives them. The CLI and the demo script format this
    report rather than walk themselves.
    """
    initial_coin = CoinVector.symmetric()
    start_distribution = position_distribution(symmetric_start(schedule.steps))
    distributions, final = run_walk(schedule)
    final_distribution = position_distribution(final)

    blocks = propagator_blocks(schedule)
    effective = blocks[schedule.steps].copy() if schedule.steps % 2 == 0 else None
    revival, complete = _verdict(blocks)

    coin_rho = reduced_coin_state(final)
    overlap_initial = coin_overlap(coin_rho, initial_coin)
    overlap_predicted = math.nan
    if effective is not None:
        predicted = effective @ initial_coin.as_array()
        norm = float(np.linalg.norm(predicted))
        if norm > PREDICTED_STATE_NORM_TOL:
            predicted = predicted / norm
            overlap_predicted = coin_overlap(
                coin_rho, CoinVector(complex(predicted[0]), complex(predicted[1]))
            )

    return RevivalReport(
        origin_probability=final_distribution.at_site(0),
        tv_distance=tv_distance(final_distribution, start_distribution),
        polya_truncated=polya_number(distributions.at_site(0)),
        effective_coin=effective,
        is_revival=revival,
        is_complete=complete,
        overlap_initial=overlap_initial,
        overlap_predicted=overlap_predicted,
        distributions=distributions,
        final=final,
    )
