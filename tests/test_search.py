import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import exact
import oracles
from walks import origin_blocks, start_state
from rampwalk import evolution, search
from rampwalk.analysis import _verdict
from rampwalk.coins import StepConvention, coin_at_step
from rampwalk.evolution import WalkSchedule, propagator_blocks
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
    monkeypatch.setattr(search, "_family", lambda *args: points)
    monkeypatch.setattr(
        search, "_verdict", lambda blocks: (np.ones(len(blocks), bool), np.zeros(len(blocks), bool))
    )
    found = search._scan_row(SearchConfig(convention=convention), steps, theta)
    assert [Fraction(*c.omega_rational) for c in found] == points
    return [c.residual for c in found]


# rates off the family of every row tested here, next to the family's own
OFF_FAMILY = [Fraction(3, 77), Fraction(1, 3000), Fraction(5, 11)]


def one_column_walk(coins, start):
    """Each step's amplitudes (n, 2) of one start coin on ``Lattice.for_steps(T)``, stepped alone."""
    amps = np.ascontiguousarray(start_state(len(coins), start).amplitudes.T)[..., None]
    for coin in coins:
        amps = evolution._coin_and_shift(coin, amps)
        yield amps[..., 0].T


@pytest.mark.parametrize("start", [CoinVector.symmetric(), CoinVector(0.6, -0.8j)])
@pytest.mark.parametrize("convention", list(StepConvention))
@pytest.mark.parametrize("theta", [0.0, math.pi / 4, 0.37])
@pytest.mark.parametrize("steps", [2, 8, 16, 24])
def test_origin_walk_does_not_depend_on_the_batch(monkeypatch, steps, theta, convention, start):
    # the scan walks all family points of a row, two starts each, as one batch;
    # classify walks one point from both basis coins and one start column
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
        walked = list(evolution._origin_walk(coins, start.as_array()[:, None]))
        assert len(walked) == steps + 1
        assert np.array_equal(evolution._blocks(walked[-1][..., :2]), blocks[k : k + 1])
        for amps, expected in zip(walked[1:], one_column_walk(coins, start), strict=True):
            # the walk's 2T + 3 sites are the inner sites of Lattice.for_steps(T)
            assert np.array_equal(amps[..., 2].T, expected[1:-1]) and not expected[[0, -1]].any()


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
    family_omegas = [math.pi * p.numerator / p.denominator for p in family]
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
def test_scan_verdicts_equal_propagator_blocks_verdicts(monkeypatch, steps, theta, convention):
    # the scan judges the blocks of its one batched walk; they are those of
    # propagator_blocks bit for bit, so every verdict is classify's
    walks = []

    def recording(coins):
        walks.append(origin_blocks(coins))
        return evolution._origin_walk(coins)

    monkeypatch.setattr(search, "_origin_walk", recording)
    config = SearchConfig(step_counts=(steps,), theta_values=(theta,), convention=convention)
    found = scan(config)
    lo, hi = config.omega_grid
    family = search._family(steps, convention, lo, hi)
    (batched,) = walks
    assert len(batched) == len(family)
    revivals = []
    for point, walked in zip(family, batched):
        omega = math.pi * point.numerator / point.denominator
        blocks = propagator_blocks(WalkSchedule(theta, omega, steps, convention))
        assert np.array_equal(walked, blocks)
        revival, complete = _verdict(blocks)
        if revival:
            revivals.append((point.as_integer_ratio(), complete))
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
    # the candidate set and its completeness flags, not the residual digits
    one_based = convention is StepConvention.ONE_BASED
    for steps in range(2, 49, 2):
        config = SearchConfig(
            step_counts=(steps,), theta_values=(theta_quarters * math.pi / 4,), convention=convention
        )
        found = {Fraction(*c.omega_rational): c.complete for c in scan(config)}
        assert found == exact.revival_law(steps, theta_quarters, one_based), steps


def test_scan_row_memory_is_bounded_by_the_two_start_walk():
    # the row's walk holds a coin stack no larger than the two-start (T, 2G, 2, 2)
    # and, while it steps, at most three amplitude arrays of shape (2, 2T + 3, 2G):
    # the current ones, the next step's and its product temporaries
    steps, theta = 96, math.pi / 4
    config = SearchConfig(step_counts=(steps,), theta_values=(theta,))
    count = len(search._family(steps, config.convention, *config.omega_grid))
    amplitudes = 2 * (2 * steps + 3) * 2 * count * 16
    coin_stack = steps * 2 * count * 4 * 16
    tracemalloc.start()
    try:
        found = scan(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found
    assert peak < 3 * amplitudes + coin_stack
