import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import exact
import oracles
from walks import BASIS_1, grown_step, origin_blocks, origin_walk, start_state
from rampwalk import evolution, search
from rampwalk.analysis import _verdict
from rampwalk.coins import StepConvention, coin_at_step
from rampwalk.evolution import WalkSchedule
from rampwalk.states import CoinVector
from rampwalk.search import (
    CatalogEntry,
    RevivalCandidate,
    SearchConfig,
    angle_fraction,
    load_reference_catalog,
    parse_catalog,
    scan,
    typed_field,
    verify_table,
)


def make_candidate(steps, theta_pi, omega_pi, complete):
    return RevivalCandidate(
        steps=steps,
        theta=float(Fraction(theta_pi)) * math.pi,
        omega=float(Fraction(omega_pi)) * math.pi,
        omega_rational=(
            Fraction(omega_pi).numerator,
            Fraction(omega_pi).denominator,
        ),
        complete=complete,
        residual=0.0,
    )


def test_search_config_validation():
    SearchConfig()
    with pytest.raises(ValueError):
        SearchConfig(step_counts=())
    with pytest.raises(ValueError, match="theta_values must not be empty"):
        SearchConfig(theta_values=())
    for convention in ("one-based", "zero-based", None):
        with pytest.raises(ValueError, match="StepConvention"):
            SearchConfig(convention=convention)
    with pytest.raises(ValueError):
        SearchConfig(step_counts=(3,))
    with pytest.raises(ValueError):
        SearchConfig(step_counts=(0,))
    with pytest.raises(ValueError, match=r"must lie inside \[0, pi/2\]"):
        SearchConfig(omega_grid=(0.0, 2.0 * math.pi))
    with pytest.raises(ValueError, match=r"must lie inside \[0, pi/2\]"):
        SearchConfig(omega_grid=(-0.1, 0.5))
    for lo, hi in ((0.5, 0.1), (math.pi / 4, math.pi / 4)):
        with pytest.raises(ValueError, match="min .* must be below omega max"):
            SearchConfig(omega_grid=(lo, hi))


@pytest.mark.parametrize("steps", [4.0, 2.5, True, "4", None])
def test_search_config_rejects_non_integer_step_counts(steps):
    with pytest.raises(ValueError, match="integers"):
        SearchConfig(step_counts=(2, steps))


def test_search_config_takes_numpy_step_counts():
    config = SearchConfig(step_counts=(np.int64(4),), theta_values=(0.0,))
    assert type(config.step_counts[0]) is int
    assert scan(config) == scan(SearchConfig(step_counts=(4,), theta_values=(0.0,)))


def test_angle_fraction():
    assert angle_fraction(math.pi / 4) == Fraction(1, 4)
    assert angle_fraction(0.0) == Fraction(0)
    assert angle_fraction(0.3) is None
    assert angle_fraction(math.pi / 8 + 1e-8) is None


def scan_residuals(monkeypatch, steps, theta, convention, points):
    """The scan row's residual at each of `points`, each taken as a candidate, at any T."""
    pairs = [point.as_integer_ratio() for point in points]
    monkeypatch.setattr(search, "_family", lambda *args: pairs)
    monkeypatch.setattr(
        search, "_verdict", lambda blocks: (np.ones(len(blocks), bool), np.zeros(len(blocks), bool))
    )
    found = search._scan_row(SearchConfig(convention=convention), steps, theta)
    assert [c.omega_rational for c in found] == pairs
    return [c.residual for c in found]


# rates off the family of every row tested here, next to the family's own
OFF_FAMILY = [Fraction(3, 77), Fraction(1, 3000), Fraction(5, 11)]


def one_column_walk(coins, start):
    """Each step's amplitudes (n, 2) of one start coin on ``Lattice.for_steps(T)``, stepped alone."""
    amps = np.ascontiguousarray(start_state(len(coins), start).amplitudes.T)[..., None]
    for coin in coins:
        # the growing window cropped to the fixed lattice
        amps = grown_step(coin.reshape(4).tolist(), amps)[..., 1:-1, :]
        yield amps[..., 0].T


@pytest.mark.parametrize("start", [CoinVector.symmetric(), CoinVector(0.6, -0.8j)])
@pytest.mark.parametrize("convention", list(StepConvention))
@pytest.mark.parametrize("theta", [0.0, math.pi / 4, 0.37])
@pytest.mark.parametrize("steps", [2, 8, 16, 24])
def test_origin_walk_does_not_depend_on_the_batch(monkeypatch, steps, theta, convention, start):
    # the scan walks all family points of a row from basis coin 0 as one batch and mirrors
    # them; classify walks one point from basis coin 0 and two start columns, basis coin 1 and c
    points = [Fraction(k, 32) for k in range(17)] + OFF_FAMILY
    omegas = np.array([math.pi * p.numerator / p.denominator for p in points])
    t = np.array(convention.step_indices(steps))
    blocks = origin_blocks(coin_at_step(theta, omegas, t[:, None], convention))
    revival, complete = _verdict(blocks)
    residuals = scan_residuals(monkeypatch, steps, theta, convention, points)
    for k, (point, omega) in enumerate(zip(points, omegas)):
        coins = coin_at_step(theta, omega, t, convention)
        (alone,) = origin_blocks(coins)
        assert np.array_equal(blocks[k], alone)
        # the row's one verdict call gives each point its own call's answer
        assert (revival[k], complete[k]) == _verdict(alone)
        assert residuals[k] == scan_residuals(monkeypatch, steps, theta, convention, [point])[0]
        # a start column leaves the basis blocks as they were, and walks as a walk of its own
        walked = origin_walk(coins, np.hstack((BASIS_1, start.as_array()[:, None])))
        assert len(walked) == steps + 1
        basis = np.stack((walked[-1][..., :1], walked[-1][..., 1:2]))
        assert np.array_equal(evolution._blocks(basis), blocks[k : k + 1])
        for k, (amps, expected) in enumerate(zip(walked[1:], one_column_walk(coins, start), strict=True), 1):
            # step k's 2k + 1 sites are the sites -k..k of Lattice.for_steps(T), and nothing lies outside them
            cone = slice(steps + 2 - k, steps + 3 + k)
            assert np.array_equal(amps[..., 2].T, expected[cone])
            assert not np.delete(expected, np.arange(expected.shape[0])[cone], axis=0).any()


def test_scan_of_one_revival_equals_its_row():
    row = scan(SearchConfig(step_counts=(24,), theta_values=(math.pi / 4,)))
    revival = row[len(row) // 2]
    narrow = (revival.omega - 5e-10, revival.omega + 5e-10)
    config = SearchConfig(step_counts=(24,), theta_values=(math.pi / 4,), omega_grid=narrow)
    assert scan(config) == [revival]


@pytest.mark.parametrize("convention", list(StepConvention))
@pytest.mark.parametrize("steps", range(1, 11))
def test_scan_residual_matches_dict_oracle(monkeypatch, steps, convention):
    # odd steps and off-family rates too: the residual is the complement of
    # the symmetric start's p0
    points = [Fraction(0), Fraction(1, 8), Fraction(1, 10), Fraction(3, 31), Fraction(8, 23)]
    one_based = convention is StepConvention.ONE_BASED
    for theta in (0.0, math.pi / 4, 0.37):
        residuals = scan_residuals(monkeypatch, steps, theta, convention, points)
        for point, residual in zip(points, residuals):
            omega = math.pi * point.numerator / point.denominator
            expected = oracles.p0_series(theta, omega, steps, one_based=one_based)[-1]
            assert abs((1.0 - residual) - expected) <= 1e-12


@pytest.mark.parametrize("one_based", [True, False])
def test_origin_probability_does_not_depend_on_the_start_coin(one_based):
    # so the scan's residual, read for the symmetric coin, holds for every start coin
    rng = np.random.default_rng(41)
    for _ in range(60):
        theta, omega = rng.uniform(-3.0, 3.0, 2)
        steps = int(rng.integers(1, 25))
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        z /= np.linalg.norm(z)
        coins = [(1.0, 0.0), (0.0, 1.0), oracles.SYMMETRIC, (complex(z[0]), complex(z[1]))]
        series = [oracles.p0_series(theta, omega, steps, coin, one_based) for coin in coins]
        assert np.max(np.abs(np.array(series[1:]) - series[0])) <= 1e-12


@pytest.mark.parametrize(
    "theta, expected",
    [
        (
            0.0,
            [
                ((1, 36), False), ((1, 16), True), ((1, 12), False), ((1, 8), True),
                ((5, 36), False), ((3, 16), True), ((7, 36), False), ((1, 4), True),
                ((11, 36), False), ((5, 16), True), ((13, 36), False), ((3, 8), True),
                ((5, 12), False), ((7, 16), True), ((17, 36), False),
            ],
        ),
        (
            math.pi / 4,
            [
                ((0, 1), True), ((1, 18), False), ((1, 16), True), ((1, 9), False),
                ((1, 8), True), ((1, 6), False), ((3, 16), True), ((2, 9), False),
                ((1, 4), True), ((5, 18), False), ((5, 16), True), ((1, 3), False),
                ((3, 8), True), ((7, 18), False), ((7, 16), True), ((4, 9), False),
                ((1, 2), True),
            ],
        ),
    ],
)
def test_scan_at_sixteen_steps(theta, expected):
    # beyond the T <= 8 catalog, whose walks never open a light cone this wide
    config = SearchConfig(step_counts=(16,), theta_values=(theta,))
    found = [(c.omega_rational, c.complete) for c in scan(config)]
    assert found == expected


def test_scan_single_row_without_bias():
    candidates = scan(SearchConfig(step_counts=(2,), theta_values=(0.0,)))
    assert [c.omega_rational for c in candidates] == [(1, 8), (3, 8)]
    assert all(not c.complete for c in candidates)
    assert all(c.residual <= 1e-12 for c in candidates)


def test_scan_finds_endpoint_revivals():
    candidates = scan(SearchConfig(step_counts=(2,), theta_values=(math.pi / 4,)))
    assert [c.omega_rational for c in candidates] == [(0, 1), (1, 4), (1, 2)]
    assert [c.complete for c in candidates] == [True, False, True]


def test_scan_is_sorted_and_deduplicated():
    candidates = scan(SearchConfig(step_counts=(2, 4), theta_values=(0.0,)))
    # a repeated step count or theta is walked once
    repeated = SearchConfig(step_counts=(4, 2, 4, 2), theta_values=(0.0, 0.0))
    assert repeated.step_counts == (4, 2) and repeated.theta_values == (0.0,)
    assert scan(repeated) == candidates
    keys = [(c.steps, c.theta, c.omega) for c in candidates]
    assert keys == sorted(keys)
    for first, second in zip(candidates, candidates[1:]):
        if first.steps == second.steps and first.theta == second.theta:
            assert second.omega - first.omega > 1e-9


def test_scan_equals_union_of_one_row_scans():
    # each (steps, theta) row is scanned on its own, so one search over a
    # domain equals the sorted union of one-row searches over its rows
    config = SearchConfig(step_counts=(2, 4), theta_values=(0.0, math.pi / 4))
    rows = [
        candidate
        for steps in config.step_counts
        for theta in config.theta_values
        for candidate in scan(SearchConfig(step_counts=(steps,), theta_values=(theta,)))
    ]
    assert rows
    assert scan(config) == sorted(rows, key=lambda c: (c.steps, c.theta, c.omega))


def test_reference_catalog_shape():
    catalog = load_reference_catalog()
    assert len(catalog) == 40
    keys = [entry.key() for entry in catalog]
    assert len(set(keys)) == 40
    assert {entry.steps for entry in catalog} == {2, 4, 6, 8}
    assert {entry.theta_pi for entry in catalog} == {Fraction(0), Fraction(1, 4)}
    assert all(Fraction(0) <= entry.omega_pi <= Fraction(1, 2) for entry in catalog)
    assert sum(1 for entry in catalog if entry.complete) == 18
    # every zero-bias revival ramp has an even denominator
    for entry in catalog:
        if entry.theta_pi == 0:
            assert entry.omega_pi.denominator % 2 == 0


def test_parse_catalog_roundtrip():
    text = '{"entries": [{"steps": 2, "theta_pi": "1/4", "omega_pi": "1/2", "complete": true}]}'
    (entry,) = parse_catalog(text)
    assert entry == CatalogEntry(2, Fraction(1, 4), Fraction(1, 2), True)
    assert entry.to_dict() == {
        "steps": 2,
        "theta_pi": "1/4",
        "omega_pi": "1/2",
        "complete": True,
    }


def test_typed_field_requires_the_exact_json_type():
    raw = {"steps": 4, "complete": False, "bad_steps": 2.9, "flag_steps": True,
           "text_complete": "false", "int_complete": 0}
    assert typed_field(raw, "steps", int) == 4
    assert typed_field(raw, "complete", bool) is False
    for key, kind in (
        ("bad_steps", int),
        ("flag_steps", int),
        ("text_complete", bool),
        ("int_complete", bool),
    ):
        with pytest.raises(ValueError, match=key):
            typed_field(raw, key, kind)
    with pytest.raises(KeyError):
        typed_field(raw, "missing", int)


def test_verify_table_accepts_exact_match():
    reference = (
        CatalogEntry(2, Fraction(0), Fraction(1, 8), False),
        CatalogEntry(2, Fraction(0), Fraction(3, 8), False),
    )
    candidates = [
        make_candidate(2, "0", "1/8", False),
        make_candidate(2, "0", "3/8", False),
    ]
    diff = verify_table(candidates, reference)
    assert diff.ok
    assert diff.to_dict() == {
        "ok": True,
        "missing": [],
        "extra": [],
        "misclassified": [],
    }


def test_verify_table_reports_missing_extra_and_misclassified():
    reference = (
        CatalogEntry(2, Fraction(0), Fraction(1, 8), False),
        CatalogEntry(2, Fraction(0), Fraction(3, 8), False),
        CatalogEntry(4, Fraction(1, 4), Fraction(1, 2), True),
    )
    candidates = [
        make_candidate(2, "0", "1/8", True),  # wrong flag
        make_candidate(2, "0", "1/6", False),  # not in the reference
        make_candidate(2, "0", "1/8", True),  # a repeat of a matched entry
        # (2, 0, 3/8) and (4, 1/4, 1/2) never found
    ]
    diff = verify_table(candidates, reference)
    assert not diff.ok
    assert {(e.steps, str(e.omega_pi)) for e in diff.missing} == {
        (2, "3/8"),
        (4, "1/2"),
    }
    assert [e["omega_pi"] for e in diff.extra] == ["1/6", "1/8"]
    assert diff.misclassified == (
        {
            "steps": 2,
            "theta_pi": "0",
            "omega_pi": "1/8",
            "expected_complete": False,
            "found_complete": True,
        },
    )


def test_verify_table_flags_unrationalized_candidates_as_extra():
    # a bias angle that is no fraction of pi can match no catalog entry
    reference = (CatalogEntry(2, Fraction(0), Fraction(1, 8), False),)
    stray = RevivalCandidate(
        steps=2,
        theta=0.3,
        omega=math.pi / 8,
        omega_rational=(1, 8),
        complete=False,
        residual=0.0,
    )
    diff = verify_table([stray], reference)
    assert not diff.ok
    assert diff.extra == (
        {"steps": 2, "theta_pi": repr(0.3), "omega_pi": "1/8", "complete": False},
    )
    assert len(diff.missing) == 1


GRID = np.linspace(0.0, math.pi / 2, 4001)


def _grid_residuals(steps, theta, omegas, one_based):
    """1 - p0 for each ramp rate: a batched walk on sites -T..T, apart from rampwalk."""
    plus = np.zeros((2 * steps + 1, omegas.size), dtype=complex)
    minus = np.zeros_like(plus)
    plus[steps], minus[steps] = oracles.SYMMETRIC
    cy, sy = math.cos(2 * theta), math.sin(2 * theta)
    for t in oracles.step_range(steps, one_based):
        cx, sx = np.cos(2 * omegas * t), np.sin(2 * omegas * t)
        up = (cx * cy + 1j * sx * sy) * plus + (1j * sx * cy - cx * sy) * minus
        down = (1j * sx * cy + cx * sy) * plus + (cx * cy - 1j * sx * sy) * minus
        # the support after step k is |x| <= k, so nothing wraps round
        plus, minus = np.roll(up, 1, axis=0), np.roll(down, -1, axis=0)
    return 1.0 - np.abs(plus[steps]) ** 2 - np.abs(minus[steps]) ** 2


def _brackets(residuals, below, omegas):
    """(minimum, omega) matrix: the bracket of each grid minimum below `below` holds omega."""
    low = residuals < below
    low[1:] &= residuals[1:] <= residuals[:-1]
    low[:-1] &= residuals[:-1] <= residuals[1:]
    i = np.flatnonzero(low)
    a, b = GRID[np.maximum(i - 1, 0), None], GRID[np.minimum(i + 1, GRID.size - 1), None]
    omegas = np.asarray(omegas, dtype=float)
    return (a <= omegas) & (omegas <= b)


@pytest.mark.parametrize("one_based", [True, False])
@pytest.mark.parametrize("theta", [0.0, math.pi / 4, 0.37])
def test_grid_residuals_match_the_dict_oracle(theta, one_based):
    omegas = np.array([0.0, 0.3, math.pi / 7, 1.2])
    for steps in (1, 2, 9, 10):
        got = _grid_residuals(steps, theta, omegas, one_based)
        for omega, residual in zip(omegas, got):
            expected = 1.0 - oracles.p0_series(theta, float(omega), steps, one_based=one_based)[-1]
            assert abs(residual - expected) <= 1e-12


@pytest.mark.parametrize("convention", list(StepConvention))
@pytest.mark.parametrize(
    "theta", [0.0, math.pi / 4, math.pi / 8, np.random.default_rng(0).uniform(0.0, math.pi / 2)]
)
@pytest.mark.parametrize("steps", [8, 16, 24])
def test_family_explains_every_grid_minimum(steps, theta, convention):
    # the scan walks only its family: on a dense grid every deep minimum of
    # 1 - p0 lies beside a family point, and every minimum at zero beside a
    # candidate; theta = pi/8 dips to about 5e-4 at T = 24 but never revives
    one_based = convention is StepConvention.ONE_BASED
    residuals = _grid_residuals(steps, theta, GRID, one_based)
    family = search._family(steps, convention, 0.0, math.pi / 2)
    found = scan(SearchConfig(step_counts=(steps,), theta_values=(theta,), convention=convention))
    family_omegas = [math.pi * k / m for k, m in family]
    candidate_omegas = [c.omega for c in found]
    assert _brackets(residuals, 1e-3, family_omegas).any(axis=1).all()
    assert _brackets(residuals, 1e-9, candidate_omegas).any(axis=1).all()
    if steps <= 16:
        # the grid is fine enough here to dip below 1e-3 beside every revival
        assert _brackets(residuals, 1e-3, candidate_omegas).any(axis=0).all()
    if theta == math.pi / 8:
        assert found == []


@pytest.mark.parametrize("convention", list(StepConvention))
@pytest.mark.parametrize("theta", [0.0, math.pi / 4, math.pi / 8])
@pytest.mark.parametrize("steps", [8, 16, 24])
def test_scan_verdicts_equal_single_walk_verdicts(monkeypatch, steps, theta, convention):
    # the scan judges the blocks of its one batched walk from basis coin 0 and their mirror;
    # they equal those of each schedule's own walk from both basis coins, the walk classify
    # judges, in value (only the signs of zeros may differ), so every verdict is classify's
    judged = []

    def recording(blocks):
        judged.append(blocks.copy())
        return _verdict(blocks)

    monkeypatch.setattr(search, "_verdict", recording)
    config = SearchConfig(step_counts=(steps,), theta_values=(theta,), convention=convention)
    found = scan(config)
    lo, hi = config.omega_grid
    family = search._family(steps, convention, lo, hi)
    (batched,) = judged
    assert len(batched) == len(family)
    revivals = []
    for (k, m), walked in zip(family, batched):
        blocks = origin_blocks(WalkSchedule(theta, math.pi * k / m, steps, convention).coins())[0]
        assert np.array_equal(walked, blocks)
        revival, complete = _verdict(blocks)
        if revival:
            revivals.append(((k, m), complete))
    assert [(c.omega_rational, c.complete) for c in found] == revivals
    assert all(c.residual <= 1e-14 for c in found)


def _oracle_truth_set(steps, theta, one_based):
    """Every reduced p/q in [0, 1/2] with q <= 4(T + 2) that revives, by the oracles alone."""
    points = {Fraction(p, q) for q in range(1, 4 * (steps + 2) + 1) for p in range(q // 2 + 1)}
    return {
        point
        for point in points
        if oracles.p0_series(theta, math.pi * point, steps, one_based=one_based)[-1] > 1 - 1e-9
        and oracles.is_revival_state_route(theta, math.pi * point, steps, one_based=one_based)
    }


@pytest.mark.parametrize("convention", list(StepConvention))
@pytest.mark.parametrize("theta", [0.0, math.pi / 4])
@pytest.mark.parametrize("steps", [8, 16, 24])
def test_scan_equals_the_oracle_truth_set(steps, theta, convention):
    one_based = convention is StepConvention.ONE_BASED
    config = SearchConfig(step_counts=(steps,), theta_values=(theta,), convention=convention)
    found = {Fraction(*c.omega_rational) for c in scan(config)}
    assert found == _oracle_truth_set(steps, theta, one_based)


@pytest.mark.parametrize("convention", list(StepConvention))
@pytest.mark.parametrize("theta_quarters", [0, 1])
@pytest.mark.parametrize("steps", [8, 16, 24, 32])
def test_scan_equals_the_certified_revival_set(steps, theta_quarters, convention):
    # the integer certificate proves the scanned points are the row's whole
    # revival set on [0, pi/2], with exact completeness flags
    config = SearchConfig(
        step_counts=(steps,), theta_values=(theta_quarters * math.pi / 4,), convention=convention
    )
    found = {Fraction(*c.omega_rational): c.complete for c in scan(config)}
    one_based = convention is StepConvention.ONE_BASED
    assert exact.certify(steps, theta_quarters, one_based, found) == found


@pytest.mark.parametrize("convention", list(StepConvention))
@pytest.mark.parametrize("theta_quarters", [0, 1, 2, 3])
def test_scan_follows_the_revival_law(theta_quarters, convention):
    # the candidate set and its completeness flags, not the residual digits; from
    # T = 96 on, whole rows of 97 to 301 family points, two to ten chunks of
    # SCAN_CHUNK_SITES // (2T + 1) points
    one_based = convention is StepConvention.ONE_BASED
    for steps in [*range(2, 49, 2), 64, 96, 128, 200]:
        config = SearchConfig(
            step_counts=(steps,), theta_values=(theta_quarters * math.pi / 4,), convention=convention
        )
        found = {Fraction(*c.omega_rational): c.complete for c in scan(config)}
        assert found == exact.revival_law(steps, theta_quarters, one_based), steps


def test_narrow_scan_at_large_step_count_follows_the_revival_law():
    # T = 1600: rounding leaves the incomplete revival 1601/3204 an off-origin entry of
    # 1.3e-10, above 1e-10 and below T^2 eps; the range holds four family points, and
    # only those are walked
    steps, lo, hi = 1600, Fraction(4993, 10000), Fraction(1, 2)
    config = SearchConfig(
        step_counts=(steps,), theta_values=(0.0,), omega_grid=(math.pi * lo, math.pi * hi)
    )
    assert len(search._family(steps, config.convention, *config.omega_grid)) == 4
    found = {Fraction(*c.omega_rational): c.complete for c in scan(config)}
    law = {p: c for p, c in exact.revival_law(steps, 0).items() if lo <= p <= hi}
    assert found == law == {Fraction(799, 1600): True, Fraction(1601, 3204): False}


@pytest.mark.parametrize("convention", list(StepConvention))
def test_family_pairs_equal_the_fraction_construction(convention):
    # the scan's reduced integer pairs (k, m), sorted by k / m, are the family built with
    # Fractions: k/m for m | T or m | 2(T + 2) one-based, m | 2T zero-based, k in [0, m/2],
    # kept when pi k / m lies in [lo, hi]; whole rows and random sub-ranges, even T up to 200
    moduli = (lambda T: (T, 2 * (T + 2))) if convention is StepConvention.ONE_BASED else (lambda T: (2 * T,))
    rng = np.random.default_rng(17)
    for steps in range(2, 201, 2):
        points = {Fraction(k, m) for m in moduli(steps) for k in range(m // 2 + 1)}
        ranges = [(0.0, math.pi / 2), *(sorted(rng.uniform(0.0, math.pi / 2, 2)) for _ in range(3))]
        for lo, hi in ranges:
            family = search._family(steps, convention, lo, hi)
            expected = sorted(p for p in points if lo <= math.pi * p.numerator / p.denominator <= hi)
            assert family == [(p.numerator, p.denominator) for p in expected], (steps, lo, hi)
            assert all(type(k) is int and type(m) is int for k, m in family)


def test_scan_row_memory_guard_counts_only_the_numerators_in_range():
    # per modulus m, floor(hi m / pi) - ceil(lo m / pi) + 3 numerators, at most 2T + 4 in all
    for steps in (2, 8, 24, 6400):
        for convention in StepConvention:
            for lo, hi in ((0.0, math.pi / 2), (0.3, 0.31), (1.5705, math.pi / 2 + 1e-12)):
                ranges = search._numerators(steps, convention, lo, hi)
                assert sum(len(ks) for _, ks in ranges) <= 2 * steps + 4
                family = search._family(steps, convention, lo, hi)
                points = {Fraction(k, m) for m, _ in ranges for k in range(m // 2 + 1)}
                every = {p for p in points if lo <= math.pi * p.numerator / p.denominator <= hi}
                assert family == [p.as_integer_ratio() for p in sorted(every)]
                for m, ks in ranges:
                    assert len(ks) <= math.floor(hi * m / math.pi) - math.ceil(lo * m / math.pi) + 3


def test_a_row_past_the_site_step_bound_is_refused_on_any_host(monkeypatch):
    # the bound is worked out from T and the range alone, before any allocation or fraction,
    # so a whole row at T = 10^6 (1.5e6 points) is refused wherever it runs
    with pytest.raises(ValueError, match="narrow the omega range"):
        scan(SearchConfig(step_counts=(10**6,), theta_values=(0.0,)))
    config = SearchConfig(step_counts=(8,), theta_values=(math.pi / 4,))
    count = sum(len(ks) for _, ks in search._numerators(8, config.convention, *config.omega_grid))
    found = scan(config)
    assert found
    monkeypatch.setattr(search, "MAX_ROW_SITE_STEPS", count * 8**2)
    assert scan(config) == found
    monkeypatch.setattr(search, "MAX_ROW_SITE_STEPS", count * 8**2 - 1)
    with pytest.raises(ValueError, match="T = 8"):
        scan(config)


def test_scan_row_memory_is_bounded_by_one_chunk_walk():
    # the row walks its family a chunk of SCAN_CHUNK_SITES // (2T + 1) points at a time and
    # keeps no chunk's arrays into the next walk, so a whole T = 200 row (301 points, ten
    # chunks of 31) peaks near a narrow scan of the same row whose range holds one chunk, and
    # below twice one chunk's two-slot ring (2, 2, 2T + 1, chunk) plus its (T, chunk, 2, 2)
    # coin stack: besides those the walk holds a product temporary and numpy's ufunc buffer,
    # each a quarter of the ring or less at this size, and the row's Python objects
    steps, theta = 200, math.pi / 4
    chunk = search.SCAN_CHUNK_SITES // (2 * steps + 1)
    ring = 2 * 2 * (2 * steps + 1) * chunk * 16
    coin_stack = steps * chunk * 4 * 16
    assert (2 * steps - 1) * chunk * 16 <= ring // 4 and np.getbufsize() * 16 <= ring // 4
    row = SearchConfig(step_counts=(steps,), theta_values=(theta,))
    family = search._family(steps, row.convention, *row.omega_grid)
    (k, m), (k_last, m_last) = family[100], family[100 + chunk - 1]
    narrow = SearchConfig(
        step_counts=(steps,), theta_values=(theta,), omega_grid=(math.pi * k / m, math.pi * k_last / m_last)
    )
    assert len(family) == 301 and chunk == 31 and len(search._family(steps, narrow.convention, *narrow.omega_grid)) == 31
    scan(SearchConfig(step_counts=(4,), theta_values=(theta,)))  # imports and caches outside the measurement
    peaks = []
    for config in (row, narrow):
        tracemalloc.start()
        try:
            found = scan(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert found
        peaks.append(peak)
    assert peaks[0] <= 1.25 * peaks[1]
    assert peaks[0] < 2 * ring + coin_stack


def _mirror(point):
    """omega / pi = k/m -> 1/2 - k/m = (m - 2k)/2m, reduced: the ramp rate pi/2 - omega."""
    k, m = point
    g = math.gcd(m - 2 * k, 2 * m)
    return (m - 2 * k) // g, 2 * m // g


@pytest.mark.parametrize("convention", list(StepConvention))
def test_conjugate_ramp_rate_mirrors_the_blocks(convention):
    # the coin at pi/2 - omega is (-1)^t conj of the coin at omega and the shift is real, so
    # W_T(pi/2 - omega)[d] = (-1)^(sum of the step indices) conj W_T(omega)[d], up to the
    # rounding of pi/2 - omega and of T steps: within 2 T^2 eps
    rng = np.random.default_rng(37)
    eps = np.finfo(np.float64).eps
    for steps in range(1, 49):
        sign = (-1) ** int(convention.step_indices(steps).sum())
        for theta in (0.0, math.pi / 4, 0.37):
            for omega in (*rng.uniform(0.0, math.pi / 2, 2), math.pi / 8, 3 * math.pi / (2 * steps)):
                blocks = origin_blocks(WalkSchedule(theta, omega, steps, convention).coins())[0]
                mirrored = origin_blocks(WalkSchedule(theta, math.pi / 2 - omega, steps, convention).coins())[0]
                assert np.abs(mirrored - sign * np.conj(blocks)).max() <= 2 * steps**2 * eps, (steps, theta, omega)


@pytest.mark.parametrize("convention", list(StepConvention))
def test_conjugate_ramp_rate_mirrors_the_dict_oracle(convention):
    # the oracle's own walk at pi/2 - omega, from each basis coin, is the mirror of the library's at omega
    one_based = convention is StepConvention.ONE_BASED
    eps = np.finfo(np.float64).eps
    for steps in range(1, 7):
        sign = (-1) ** int(convention.step_indices(steps).sum())
        for theta in (0.0, math.pi / 4, 0.37):
            for omega in (0.3, math.pi / 8, 1.1):
                blocks = origin_blocks(WalkSchedule(theta, omega, steps, convention).coins())[0]
                for column, basis in enumerate(((1.0, 0.0), (0.0, 1.0))):
                    final = oracles.walk_states(theta, math.pi / 2 - omega, steps, basis, one_based)[-1]
                    for d in range(-steps, steps + 1):
                        expected = sign * np.conj(blocks[d + steps, :, column])
                        assert np.abs(np.array(final.get(d, (0.0, 0.0))) - expected).max() <= 2 * steps**2 * eps


@pytest.mark.parametrize("convention", list(StepConvention))
def test_scan_rows_are_closed_under_the_conjugate_ramp_rate(convention):
    # each row's family maps onto itself under k/m -> (m - 2k)/2m, and so do its revivals,
    # with the same completeness: the mirror a scan may read instead of walking half its row
    steps_range = tuple(range(2, 49, 2))
    for steps in steps_range:
        family = search._family(steps, convention, 0.0, math.pi / 2)
        assert {_mirror(point) for point in family} == set(family)
    rows = {}
    config = SearchConfig(step_counts=steps_range, theta_values=(0.0, math.pi / 4, 0.37), convention=convention)
    for candidate in scan(config):
        rows.setdefault((candidate.steps, candidate.theta), {})[candidate.omega_rational] = candidate.complete
    assert len(rows) == 2 * len(steps_range)  # theta 0.37 revives nowhere on these rows, nor does its mirror
    for found in rows.values():
        assert {_mirror(point): complete for point, complete in found.items()} == found


@pytest.mark.parametrize("convention", list(StepConvention))
@pytest.mark.parametrize("theta", [0.0, math.pi / 4, 0.37])
@pytest.mark.parametrize("steps", [2, 4, 6, 8])
def test_oracle_revivals_are_closed_under_the_conjugate_ramp_rate(steps, theta, convention):
    # exactly, as Fractions: the oracles' own revival set p -> 1/2 - p, each point complete
    # when its balanced-string effective coin is a phase times the identity
    one_based = convention is StepConvention.ONE_BASED
    truth = {
        point: oracles.phase_equal(
            oracles.effective_coin_strings(theta, math.pi * point, steps, one_based), ((1.0, 0.0), (0.0, 1.0))
        )
        for point in _oracle_truth_set(steps, theta, one_based)
    }
    assert {Fraction(1, 2) - point: complete for point, complete in truth.items()} == truth
