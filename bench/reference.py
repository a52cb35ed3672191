"""Independent reference kernel for checking rampwalk outputs.

Written from the walk's definition alone; it imports nothing from the
package under test and nothing from its test suite.

Coin at step t (t = 1..T) is ``rx(omega t) @ ry(theta)`` with wave-plate
angles (entries hold twice the nominal angle), coin basis [plus, minus];
after the coin, plus moves one site up and minus one site down.

Pure walks: the coin does not depend on the site, so the T-step walk is
a convolution with 2x2 blocks ``W[d]`` for displacement d (the origin
block propagator). The walk revives when every block but ``W[0]``
vanishes, which is the same as ``W[0]`` being unitary; ``W[0]`` is then
the effective coin. Cost O(T^2) per schedule, batched over ramp rates.

Dephased walks: an explicit ``(n, 2, n, 2)`` density array, stepped by
coin on both indices, shift on both indices, then coin coherences
scaled by the visibility.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

LEAK_TOL = 1e-8  # origin block counts as unitary below this
COMPLETE_TOL = 1e-8  # effective coin counts as identity-up-to-phase below this
SYMMETRIC_COIN = np.array([1.0, 1j], dtype=np.complex128) / math.sqrt(2.0)


def coins(theta: float, omegas: np.ndarray, t: int) -> np.ndarray:
    """Batched step-t coins, shape (len(omegas), 2, 2)."""
    a = 2.0 * np.asarray(omegas, dtype=np.float64) * t
    c, s = np.cos(a), 1j * np.sin(a)
    cb, sb = math.cos(2.0 * theta), math.sin(2.0 * theta)
    out = np.empty((a.size, 2, 2), dtype=np.complex128)
    # [[c, s], [s, c]] @ [[cb, -sb], [sb, cb]]
    out[:, 0, 0] = c * cb + s * sb
    out[:, 0, 1] = -c * sb + s * cb
    out[:, 1, 0] = s * cb + c * sb
    out[:, 1, 1] = -s * sb + c * cb
    return out


def propagator(theta: float, omegas, steps: int) -> np.ndarray:
    """Blocks ``W[g, d + steps]`` of the T-step walk, shape (G, 2T+1, 2, 2)."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=np.float64))
    width = 2 * steps + 1
    w = np.zeros((omegas.size, width, 2, 2), dtype=np.complex128)
    w[:, steps] = np.eye(2)
    for t in range(1, steps + 1):
        c = coins(theta, omegas, t)[:, None, :, :, None]  # (G, 1, 2, 2, 1)
        up = c[:, :, 0, 0] * w[:, :, 0] + c[:, :, 0, 1] * w[:, :, 1]
        down = c[:, :, 1, 0] * w[:, :, 0] + c[:, :, 1, 1] * w[:, :, 1]
        w = np.zeros_like(w)
        w[:, 1:, 0] = up[:, :-1]
        w[:, :-1, 1] = down[:, 1:]
    return w


def origin_blocks(theta: float, omegas, steps: int) -> np.ndarray:
    """Origin-to-origin blocks W[0], shape (G, 2, 2)."""
    return propagator(theta, omegas, steps)[:, steps]


def leak(blocks: np.ndarray) -> np.ndarray:
    """Largest deviation of ``W0^H W0`` from the identity, per block."""
    gram = np.einsum("gji,gjk->gik", blocks.conj(), blocks)
    return np.abs(gram - np.eye(2)).max(axis=(1, 2))


def is_complete(block: np.ndarray) -> bool:
    """True when a unitary block is the identity up to a global phase."""
    pivot = block[0, 0]
    if abs(pivot) <= COMPLETE_TOL:
        return False
    phase = pivot / abs(pivot)
    return float(np.abs(block - phase * np.eye(2)).max()) <= COMPLETE_TOL


def origin_probability(block: np.ndarray) -> float:
    """Return probability from the symmetric coin, given the origin block."""
    return float(np.sum(np.abs(block @ SYMMETRIC_COIN) ** 2))


def fractions_up_to(max_denominator: int) -> list[Fraction]:
    """Every reduced p/q in [0, 1/2] with q <= max_denominator, sorted."""
    return sorted({Fraction(p, q) for q in range(1, max_denominator + 1) for p in range(q // 2 + 1)})


def revivals(theta: float, steps: int, omega_pis: list[Fraction]) -> dict[Fraction, bool]:
    """Map each omega/pi that gives a revival to its completeness flag."""
    if not omega_pis:
        return {}
    omegas = np.array([math.pi * float(f) for f in omega_pis])
    blocks = origin_blocks(theta, omegas, steps)
    leaks = leak(blocks)
    return {
        f: is_complete(blocks[g])
        for g, f in enumerate(omega_pis)
        if leaks[g] < LEAK_TOL
    }


def truth_set(theta: float, steps: int) -> dict[Fraction, bool]:
    """Revivals among every p/q in [0, 1/2] with q <= 4 (T + 2)."""
    return revivals(theta, steps, fractions_up_to(4 * (steps + 2)))


def dephased_origin_probability(
    theta: float, omega: float, steps: int, visibility: float
) -> float:
    """Final origin probability of the dephased walk from the symmetric coin."""
    reach = steps + 1
    n = 2 * reach + 1
    rho = np.zeros((n, 2, n, 2), dtype=np.complex128)
    rho[reach, :, reach, :] = np.outer(SYMMETRIC_COIN, SYMMETRIC_COIN.conj())
    coherence = np.array([[1.0, visibility], [visibility, 1.0]])
    for t in range(1, steps + 1):
        c = coins(theta, np.array([omega]), t)[0]
        rho = np.einsum("ij,xjyk,lk->xiyl", c, rho, c.conj())
        moved = np.zeros_like(rho)
        moved[1:, 0, 1:, 0] = rho[:-1, 0, :-1, 0]
        moved[1:, 0, :-1, 1] = rho[:-1, 0, 1:, 1]
        moved[:-1, 1, 1:, 0] = rho[1:, 1, :-1, 0]
        moved[:-1, 1, :-1, 1] = rho[1:, 1, 1:, 1]
        rho = moved * coherence[None, :, None, :]
    return float(np.real(rho[reach, 0, reach, 0] + rho[reach, 1, reach, 1]))


def load_catalog(path: Path) -> list[tuple[int, Fraction, Fraction, bool]]:
    """Catalog rows (steps, theta/pi, omega/pi, complete), read from the JSON file."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return [
        (int(e["steps"]), Fraction(e["theta_pi"]), Fraction(e["omega_pi"]), bool(e["complete"]))
        for e in doc["entries"]
    ]
