"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single `criterion N (...): PASS|FAIL [...]` line, so
running this module with `pytest tests/test_acceptance.py -s` doubles
as a release checklist.
"""

import math
import time
from dataclasses import replace

import numpy as np

from rampwalk.analysis import classify, effective_coin_balanced_strings, tv_distance
from rampwalk.coins import coin_at_step
from rampwalk import evolution
from rampwalk.evolution import WalkSchedule, bisect_visibility
from rampwalk.search import SearchConfig, load_reference_catalog, scan, verify_table
from rampwalk.states import CoinVector, Lattice

import oracles
from walks import distribution, origin_blocks, start_state, walk


def _report(number: int, label: str, ok: bool, detail: str) -> bool:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({label}): {verdict} [{detail}]")
    return ok


def _random_angle(rng) -> float:
    return float(rng.uniform(0.0, math.pi / 2))


def _unitarity_defect(m) -> float:
    return float(np.max(np.abs(m.conj().T @ m - np.eye(2))))


def test_criterion_1_revival_table_reproduced():
    started = time.perf_counter()
    candidates = scan(SearchConfig())
    elapsed = time.perf_counter() - started
    diff = verify_table(candidates)
    worst = max((c.residual for c in candidates), default=math.inf)
    all_rational = all(c.omega_rational is not None for c in candidates)
    ok = (
        diff.ok
        and len(candidates) == len(load_reference_catalog())
        and all_rational
        and worst <= 1e-10
        and elapsed < 60.0
    )
    detail = (
        f"{len(candidates)}/{len(load_reference_catalog())} entries, "
        f"worst residual {worst:.2e}, {elapsed:.2f}s"
    )
    assert _report(1, "revival table", ok, detail)


def test_criterion_2_certain_return_at_flagship_point():
    schedule = WalkSchedule(0.0, math.pi / 8, 16)
    p0 = walk(schedule)[0].at_site(0)
    ok = abs(p0[8] - 1.0) <= 1e-10 and abs(p0[16] - 1.0) <= 1e-10
    detail = f"p0(8) = {p0[8]:.12f}, p0(16) = {p0[16]:.12f}"
    assert _report(2, "certain return", ok, detail)


def test_criterion_3_predicted_coin_state():
    schedule = WalkSchedule(math.pi / 4, math.pi / 10, 8)
    lattice = Lattice.for_steps(8)
    _, final = walk(schedule)
    coin_amps = final.amplitudes[lattice.index(0)]
    target = np.array([0.988, 0.156j])
    pivot = int(np.argmax(np.abs(target)))
    lam = coin_amps[pivot] / target[pivot]
    lam = lam / abs(lam)
    worst_amp = float(np.max(np.abs(coin_amps - lam * target)))
    report = classify(schedule)
    ok = worst_amp <= 1e-3 and abs(report.overlap_predicted - 1.0) <= 1e-10
    detail = (
        f"amplitude error {worst_amp:.2e}, "
        f"predicted-state overlap {report.overlap_predicted:.12f}"
    )
    assert _report(3, "predicted coin state", ok, detail)


def test_criterion_4_tv_identity_over_random_walks():
    rng = np.random.default_rng(20260819)
    worst = 0.0
    walks = 20
    for _ in range(walks):
        theta = _random_angle(rng)
        omega = _random_angle(rng)
        steps = int(rng.integers(1, 13))
        schedule = WalkSchedule(theta, omega, steps)
        reference = distribution(start_state(steps))
        distributions, _ = walk(schedule)
        gaps = np.abs(tv_distance(distributions, reference) - (1.0 - distributions.at_site(0)))
        worst = max(worst, float(gaps.max()))
    ok = worst <= 1e-12
    assert _report(4, "tv identity", ok, f"{walks} walks, worst gap {worst:.2e}")


def test_criterion_5_dual_effective_coin_constructions():
    rng = np.random.default_rng(515151)
    worst = 0.0
    pairs = 100
    for _ in range(pairs):
        theta = _random_angle(rng)
        omega = _random_angle(rng)
        steps = int(rng.choice([2, 4, 6, 8, 10, 12]))
        schedule = WalkSchedule(theta, omega, steps)
        gap = float(
            np.max(
                np.abs(
                    effective_coin_balanced_strings(schedule)
                    - origin_blocks(schedule.coins())[0][schedule.steps]
                )
            )
        )
        worst = max(worst, gap)

    psi = CoinVector.symmetric().as_array()
    worst_norm = 0.0
    for entry in load_reference_catalog():
        schedule = WalkSchedule(
            float(entry.theta_pi) * math.pi, float(entry.omega_pi) * math.pi, entry.steps
        )
        effective = origin_blocks(schedule.coins())[0][schedule.steps]
        expectation = float(np.real(psi.conj() @ effective.conj().T @ effective @ psi))
        worst_norm = max(worst_norm, abs(expectation - 1.0))

    ok = worst <= 1e-10 and worst_norm <= 1e-10
    detail = (
        f"{pairs} random pairs, worst construction gap {worst:.2e}, "
        f"worst catalog norm defect {worst_norm:.2e}"
    )
    assert _report(5, "dual constructions", ok, detail)


def test_criterion_6_dephasing_model():
    schedule = WalkSchedule(0.0, math.pi / 8, 8)

    # the dephased walk at visibility 1, which the calibration validates its result with
    pure_distributions, _ = walk(schedule)
    mixed_distributions, _ = evolution._density_walk(schedule.coins(), schedule.visibility)
    assert pure_distributions.probabilities.shape == mixed_distributions.probabilities.shape
    match_gap = float(
        np.max(np.abs(pure_distributions.probabilities - mixed_distributions.probabilities))
    )

    visibilities = [1.0, 0.996, 0.99, 0.95, 0.9]
    p0_values = []
    for visibility in visibilities:
        _, final = walk(schedule.with_visibility(visibility))
        p0_values.append(distribution(final).at_site(0))
    monotone = all(a >= b - 1e-12 for a, b in zip(p0_values, p0_values[1:]))

    target = 0.918
    visibility_star, achieved = bisect_visibility(schedule, target)
    calibrated = abs(achieved - target) <= 1e-4

    ok = match_gap <= 1e-10 and monotone and calibrated
    detail = (
        f"unit-visibility gap {match_gap:.2e}, p0 ladder "
        + "/".join(f"{p:.4f}" for p in p0_values)
        + f", v* = {visibility_star:.5f} with p0 = {achieved:.5f}"
    )
    assert _report(6, "dephasing model", ok, detail)


def test_criterion_7_module_invariants_on_random_cases():
    rng = np.random.default_rng(8675309)

    coin_cases = 1000
    coin_ok = True
    for _ in range(coin_cases):
        theta = float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
        omega = float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
        t = int(rng.integers(1, 40))
        coin = coin_at_step(theta, omega, t)
        if _unitarity_defect(coin) > 1e-12:
            coin_ok = False
            break
        other = coin_at_step(omega, theta, max(1, t - 1))
        if _unitarity_defect(coin @ other) > 1e-12:
            coin_ok = False
            break

    evolution_cases = 100
    evolution_ok = True
    for _ in range(evolution_cases):
        theta = _random_angle(rng)
        omega = _random_angle(rng)
        steps = int(rng.integers(1, 7))
        schedule = WalkSchedule(theta, omega, steps)
        lattice = Lattice.for_steps(steps)
        # the state after step k is the final state of the k-step walk
        trajectory = [walk(replace(schedule, steps=k))[1] for k in range(1, steps + 1)]
        for state in trajectory:
            if abs(float(np.sum(np.abs(state.amplitudes) ** 2)) - 1.0) > 1e-12:
                evolution_ok = False
        reference = oracles.walk_states(theta, omega, steps)[-1]
        final = trajectory[-1]
        for site, (plus, minus) in reference.items():
            index = lattice.index(site)
            if abs(final.amplitudes[index, 0] - plus) > 1e-10:
                evolution_ok = False
            if abs(final.amplitudes[index, 1] - minus) > 1e-10:
                evolution_ok = False
        # the T-step operator on the line, sum_d W_T[d] exp(-i k d), is unitary at every k
        blocks = origin_blocks(schedule.coins())[0]
        displacements = np.arange(-steps, steps + 1)
        for k in np.linspace(-math.pi, math.pi, 7):
            symbol = np.tensordot(np.exp(-1j * k * displacements), blocks, axes=1)
            if float(np.max(np.abs(symbol.conj().T @ symbol - np.eye(2)))) > 1e-10:
                evolution_ok = False
        if not evolution_ok:
            break

    ok = coin_ok and evolution_ok
    detail = f"{coin_cases} coin cases, {evolution_cases} evolution cases"
    assert _report(7, "module invariants", ok, detail)
