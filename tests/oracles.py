"""Independent reference implementations used to pin expected values.

Everything here is written in plain Python over dict-based states so
the package's vectorized numpy code is checked through a genuinely
separate route: explicit 2x2 entry formulas, sparse dictionaries keyed
by lattice site, and per-string products for the effective coin.
"""

from __future__ import annotations

import itertools
import math

SQRT_HALF = 1.0 / math.sqrt(2.0)
SYMMETRIC = (SQRT_HALF, 1j * SQRT_HALF)


def coin_matrix(theta: float, omega: float, t: int) -> tuple:
    """Entries of rx(omega * t) @ ry(theta) as nested tuples."""
    cx = math.cos(2.0 * omega * t)
    sx = math.sin(2.0 * omega * t)
    cy = math.cos(2.0 * theta)
    sy = math.sin(2.0 * theta)
    return (
        (cx * cy + 1j * sx * sy, -cx * sy + 1j * sx * cy),
        (1j * sx * cy + cx * sy, -1j * sx * sy + cx * cy),
    )


def step_range(steps: int, one_based: bool = True) -> range:
    return range(1, steps + 1) if one_based else range(0, steps)


def walk_states(
    theta: float,
    omega: float,
    steps: int,
    coin: tuple = SYMMETRIC,
    one_based: bool = True,
    start_site: int = 0,
) -> list[dict]:
    """Per-step sparse states {site: (plus, minus)} for a localized start."""
    state = {start_site: (coin[0], coin[1])}
    trajectory = []
    for t in step_range(steps, one_based):
        (a, b), (c, d) = coin_matrix(theta, omega, t)
        nxt: dict = {}
        for site, (plus, minus) in state.items():
            up = a * plus + b * minus
            down = c * plus + d * minus
            if up != 0:
                cur = nxt.get(site + 1, (0.0, 0.0))
                nxt[site + 1] = (cur[0] + up, cur[1])
            if down != 0:
                cur = nxt.get(site - 1, (0.0, 0.0))
                nxt[site - 1] = (cur[0], cur[1] + down)
        state = nxt
        trajectory.append(dict(state))
    return trajectory


def window_step(coin: tuple, amps: list) -> list:
    """One coin-and-shift step of a walk held on n sites as (plus, minus) pairs.

    Plus moves one site up and minus one site down; what moves past
    either end of the window is dropped.
    """
    (a, b), (c, d) = coin
    out = [[0j, 0j] for _ in amps]
    for x, (plus, minus) in enumerate(amps):
        if x + 1 < len(amps):
            out[x + 1][0] = a * plus + b * minus
        if x > 0:
            out[x - 1][1] = c * plus + d * minus
    return [tuple(pair) for pair in out]


def origin_probability(state: dict) -> float:
    plus, minus = state.get(0, (0.0, 0.0))
    return abs(plus) ** 2 + abs(minus) ** 2


def p0_series(
    theta: float,
    omega: float,
    steps: int,
    coin: tuple = SYMMETRIC,
    one_based: bool = True,
) -> list[float]:
    return [
        origin_probability(state)
        for state in walk_states(theta, omega, steps, coin, one_based)
    ]


def state_norm_sq(state: dict) -> float:
    return sum(abs(p) ** 2 + abs(m) ** 2 for p, m in state.values())


def _mat_mul(a, b):
    return (
        (
            a[0][0] * b[0][0] + a[0][1] * b[1][0],
            a[0][0] * b[0][1] + a[0][1] * b[1][1],
        ),
        (
            a[1][0] * b[0][0] + a[1][1] * b[1][0],
            a[1][0] * b[0][1] + a[1][1] * b[1][1],
        ),
    )


def effective_coin_strings(
    theta: float, omega: float, steps: int, one_based: bool = True
) -> tuple:
    """Effective origin-to-origin coin by explicit balanced-string products."""
    if steps % 2 != 0:
        raise ValueError("steps must be even")
    indices = list(step_range(steps, one_based))
    coins = [coin_matrix(theta, omega, t) for t in indices]
    total = [[0.0, 0.0], [0.0, 0.0]]
    for up_positions in itertools.combinations(range(steps), steps // 2):
        up_set = set(up_positions)
        product = ((1.0, 0.0), (0.0, 1.0))
        for k in range(steps):
            (a, b), (c, d) = coins[k]
            if k in up_set:
                branch = ((a, b), (0.0, 0.0))
            else:
                branch = ((0.0, 0.0), (c, d))
            product = _mat_mul(branch, product)
        for i in range(2):
            for j in range(2):
                total[i][j] += product[i][j]
    return (tuple(total[0]), tuple(total[1]))


def is_revival_state_route(
    theta: float,
    omega: float,
    steps: int,
    tol: float = 1e-10,
    one_based: bool = True,
) -> bool:
    """Revival check by walking basis coins from several start sites.

    Requires every start to return to its source site with certainty
    and to apply one common coin transformation there.
    """
    reference = None
    for start_site in (-2, -1, 0, 1, 2):
        columns = []
        for basis in ((1.0, 0.0), (0.0, 1.0)):
            final = walk_states(
                theta, omega, steps, basis, one_based, start_site
            )[-1]
            stay = final.get(start_site, (0.0, 0.0))
            leak = sum(
                abs(p) ** 2 + abs(m) ** 2
                for site, (p, m) in final.items()
                if site != start_site
            )
            if leak > tol:
                return False
            columns.append(stay)
        block = (
            (columns[0][0], columns[1][0]),
            (columns[0][1], columns[1][1]),
        )
        if reference is None:
            reference = block
        else:
            for i in range(2):
                for j in range(2):
                    if abs(block[i][j] - reference[i][j]) > tol:
                        return False
    return True


def phase_equal(a, b, tol: float = 1e-8) -> bool:
    """Entrywise equality of nested 2x2 tuples up to one global phase."""
    flat_a = [a[i][j] for i in range(2) for j in range(2)]
    flat_b = [b[i][j] for i in range(2) for j in range(2)]
    pivot = max(range(4), key=lambda k: abs(flat_b[k]))
    if abs(flat_b[pivot]) == 0.0:
        return max(abs(x) for x in flat_a) <= tol
    lam = flat_a[pivot] / flat_b[pivot]
    if abs(lam) == 0.0:
        return False
    lam /= abs(lam)
    return max(abs(x - lam * y) for x, y in zip(flat_a, flat_b)) <= tol


def density_walk(
    theta: float,
    omega: float,
    steps: int,
    visibility: float,
    coin: tuple = SYMMETRIC,
    one_based: bool = True,
) -> list[dict]:
    """Per-step density matrices as sparse dicts {((x, i), (y, j)): value}.

    Each step applies the coin and shift to both indices, then scales
    the coin-off-diagonal entries by the visibility, which is the same
    channel as mixing the identity with a coin-Z conjugation.
    """
    rho = {
        ((0, i), (0, j)): coin[i] * coin[j].conjugate()
        for i in (0, 1)
        for j in (0, 1)
    }
    trajectory = []
    for t in step_range(steps, one_based):
        matrix = coin_matrix(theta, omega, t)

        def images(site: int, index: int):
            return (
                (site + 1, 0, matrix[0][index]),
                (site - 1, 1, matrix[1][index]),
            )

        nxt: dict = {}
        for ((x, i), (y, j)), value in rho.items():
            if value == 0:
                continue
            for x2, i2, amp_ket in images(x, i):
                if amp_ket == 0:
                    continue
                for y2, j2, amp_bra in images(y, j):
                    if amp_bra == 0:
                        continue
                    key = ((x2, i2), (y2, j2))
                    nxt[key] = nxt.get(key, 0.0) + amp_ket * amp_bra.conjugate() * value
        for key in list(nxt):
            (_, i), (_, j) = key
            if i != j:
                nxt[key] = nxt[key] * visibility
        rho = nxt
        trajectory.append(dict(rho))
    return trajectory


def density_origin_probability(rho: dict) -> float:
    total = 0.0
    for i in (0, 1):
        total += rho.get(((0, i), (0, i)), 0.0).real
    return total


def density_p0_series(
    theta: float,
    omega: float,
    steps: int,
    visibility: float,
    coin: tuple = SYMMETRIC,
    one_based: bool = True,
) -> list[float]:
    return [
        density_origin_probability(rho)
        for rho in density_walk(theta, omega, steps, visibility, coin, one_based)
    ]


def density_reduced_coin(rho: dict) -> tuple:
    """2x2 coin matrix from a sparse density dict, tracing out the site."""
    entries = [[0.0, 0.0], [0.0, 0.0]]
    for ((x, i), (y, j)), value in rho.items():
        if x == y:
            entries[i][j] += value
    return (tuple(entries[0]), tuple(entries[1]))


def density_position_probabilities(rho: dict) -> dict:
    """Site probabilities from a sparse density dict."""
    out: dict = {}
    for ((x, i), (y, j)), value in rho.items():
        if x == y and i == j:
            out[x] = out.get(x, 0.0) + value.real
    return out
