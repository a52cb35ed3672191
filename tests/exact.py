"""Exact revival sets of the ramped-coin walk, certified over the integers.

Independent of the package: no float, no tolerance, no shared code.

With z = exp(2i omega), the coin of step t satisfies
``z^t * 2 rx(omega t) = [[z^2t + 1, z^2t - 1], [z^2t - 1, z^2t + 1]]``,
and for theta / pi in Z/4 the bias ``ry(theta)`` has entries in
{0, +-1}. So the blocks of the T-step walk, scaled to ``2^T z^E W_T[d]``
with E the sum of the step indices, are integer polynomials in z, built
by shifts and adds alone. A ramp rate omega in [0, pi/2] is a revival
exactly when z is a common root of every off-origin entry, that is, a
root of their gcd G over Z.

:func:`certify` proves that given points omega / pi = p/q form a row's
whole revival set on [0, pi/2]:

- Exact part (Python ints). Every off-origin entry is 0 modulo the
  cyclotomic polynomial Phi_q, so each point's z = exp(2 pi i p/q), a
  primitive q-th root of unity, is a root of G.
- Modular part. G_P, the gcd modulo the prime P = 2^31 - 1 of two random
  combinations of the entries, divides every entry modulo P. G mod P
  divides G_P, and the leading coefficient of G divides that of an
  entry, which is below 2^T < P in magnitude, so deg G <= deg G_P.

The points and their complex conjugates are distinct roots of G: two
for a point inside (0, 1/2), one for omega = 0 or pi/2. When their
number equals deg G_P, G has no other root, so no other omega revives.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

P = 2**31 - 1
MAX_STEPS = 60  # every scaled coefficient is at most 2^T in magnitude, exact in int64
_SEED = 20131016


def scaled_blocks(steps: int, theta_quarters: int, one_based: bool = True) -> np.ndarray:
    """Coefficients of ``2^T z^E W_T[d]`` for theta = theta_quarters * pi / 4.

    The shape is (2T + 1, 2, 2, 2E + 1): site d + T, row i, column j,
    then the power of z from 0 up. Entry (i, j) of a block maps coin j
    at any site to coin i at the site d further on; the plus coin moves
    up one site per step and the minus coin down.
    """
    if not 0 <= steps <= MAX_STEPS:
        raise ValueError(f"steps must lie in [0, {MAX_STEPS}], got {steps}")
    cos2, sin2 = [(1, 0), (0, 1), (-1, 0), (0, -1)][theta_quarters % 4]
    indices = range(1, steps + 1) if one_based else range(steps)
    length = 2 * sum(indices) + 1
    # amps[j, x, i]: coin i at site x - T - 1, walked from coin j at the origin
    amps = np.zeros((2, 2 * steps + 3, 2, length), dtype=np.int64)
    amps[0, steps + 1, 0, 0] = amps[1, steps + 1, 1, 0] = 1
    for t in indices:
        plus = cos2 * amps[:, :, 0] - sin2 * amps[:, :, 1]
        minus = sin2 * amps[:, :, 0] + cos2 * amps[:, :, 1]
        raised = np.zeros_like(plus)
        raised[..., 2 * t :] = (plus + minus)[..., : length - 2 * t]
        difference = plus - minus
        amps = np.zeros_like(amps)
        amps[:, 1:, 0] = (raised + difference)[:, :-1]
        amps[:, :-1, 1] = (raised - difference)[:, 1:]
    return amps[:, 1:-1].transpose(1, 2, 0, 3)


def _divmod_monic(num: list[int], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of num by the monic den over Z, lowest power first."""
    rem = list(num)
    quotient = [0] * max(len(num) - len(den) + 1, 0)
    for k in range(len(quotient) - 1, -1, -1):
        lead = rem[k + len(den) - 1]
        if lead:
            quotient[k] = lead
            for i, c in enumerate(den):
                rem[k + i] -= lead * c
    return quotient, rem[: len(den) - 1]


@functools.cache
def cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, lowest power first: ``z^n - 1`` over Phi_d for d | n, d < n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, _ = _divmod_monic(poly, cyclotomic(d))
    return tuple(poly)


def vanishes_at_order(coeffs: list[int], n: int) -> bool:
    """True when the primitive n-th roots of unity are roots of the integer polynomial."""
    folded = [sum(coeffs[r::n]) for r in range(n)]  # modulo z^n - 1
    return not any(_divmod_monic(folded, cyclotomic(n))[1])


def _trim(poly: np.ndarray) -> np.ndarray:
    nonzero = np.flatnonzero(poly)
    return poly[: nonzero[-1] + 1] if nonzero.size else poly[:0]


def _monic(poly: np.ndarray) -> np.ndarray:
    return poly * pow(int(poly[-1]), -1, P) % P


def _remainders(rows: np.ndarray, divisor: np.ndarray) -> np.ndarray:
    """Remainders modulo P of each row by the monic divisor, all rows at once."""
    rows = rows % P
    d = divisor.size - 1
    for k in range(rows.shape[1] - 1, d - 1, -1):
        lead = rows[:, k : k + 1].copy()
        rows[:, k - d : k + 1] = (rows[:, k - d : k + 1] - lead * divisor) % P
    return rows[:, :d]


def _gcd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Monic gcd modulo P of two polynomials that are not both zero."""
    a, b = _trim(a % P), _trim(b % P)
    while b.size:
        b = _monic(b)
        a, b = b, _trim(_remainders(a[None], b)[0])
    return _monic(a)


def certify(
    steps: int, theta_quarters: int, one_based: bool, points
) -> dict[Fraction, bool]:
    """``{omega / pi: complete}`` over points proved to be the whole revival set.

    A walk is complete when ``W_T[0]`` is a phase times the identity.
    Raises AssertionError, naming the part of the certificate that
    fails, when a point is no revival or when the points miss a root.
    """
    points = sorted(Fraction(point) for point in points)
    if not all(0 <= point <= Fraction(1, 2) for point in points):
        raise ValueError(f"points must lie in [0, 1/2], got {points}")
    blocks = scaled_blocks(steps, theta_quarters, one_based)
    entries = np.delete(blocks, steps, axis=0).reshape(-1, blocks.shape[-1])
    entries = entries[entries.any(axis=1)]
    _require(entries.size, "every ramp rate revives")
    as_ints = [row.tolist() for row in entries]
    origin = blocks[steps].tolist()
    diagonal = (blocks[steps, 0, 0] - blocks[steps, 1, 1]).tolist()

    complete = {}
    for point in points:
        order = point.denominator
        _require(
            all(vanishes_at_order(entry, order) for entry in as_ints),
            f"omega = {point} pi is no revival",
        )
        complete[point] = steps % 2 == 0 and all(
            vanishes_at_order(entry, order) for entry in (origin[0][1], origin[1][0], diagonal)
        )

    # strip the factors of z, which have no root on the unit circle
    stripped = np.array([np.roll(row, -np.flatnonzero(row)[0]) for row in entries]) % P
    weights = np.random.default_rng(_SEED).integers(1, P, size=(2, len(stripped)))
    first, second = ((w[:, None] * stripped % P).sum(axis=0) % P for w in weights)
    divisor = _gcd(first, second)
    _require(not _remainders(stripped, divisor).any(), "G_P does not divide every entry")
    roots = sum(1 if point in (0, Fraction(1, 2)) else 2 for point in points)
    degree = divisor.size - 1
    _require(degree == roots, f"deg G_P = {degree}, but the points give {roots} roots")
    return complete


def revival_law(steps: int, theta_quarters: int, one_based: bool = True) -> dict[Fraction, bool]:
    """``{omega / pi: complete}`` of the row's revivals on [0, pi/2] by the closed-form law.

    For even T and theta = theta_quarters * pi / 4. Write omega / pi =
    k/q in lowest terms and M = 2(T + 2) one-based or 2T zero-based:

    - theta in (pi/2)Z: a revival needs 4 | q. It is complete when q | T,
      and incomplete when M/q is an odd integer.
    - theta in pi/4 + (pi/2)Z: it is complete when q | T. One-based only,
      it is incomplete when q | T + 2 and q does not divide T.

    ``ry(theta + pi/2) = -ry(theta)`` only flips the sign of every coin,
    so quarters 2 and 3 revive where quarters 0 and 1 do.
    """
    if steps < 2 or steps % 2:
        raise ValueError(f"steps must be even and positive, got {steps}")
    modulus = 2 * (steps + 2) if one_based else 2 * steps
    points = {Fraction(k, m) for m in (steps, modulus) for k in range(m // 2 + 1)}
    law = {}
    for point in points:
        q = point.denominator
        if theta_quarters % 2 == 0:
            complete = q % 4 == 0 and steps % q == 0
            incomplete = q % 4 == 0 and modulus // q % 2 == 1
        else:
            complete = steps % q == 0
            incomplete = one_based and (steps + 2) % q == 0
        if complete or incomplete:
            law[point] = complete
    return law


def _require(ok, message: str) -> None:
    # an assert statement would vanish under python -O
    if not ok:
        raise AssertionError(message)
