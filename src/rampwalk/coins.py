"""Two-level coin operators for the ramped-coin walk.

The coin applied at step t is a product of two wave-plate style
rotations: a fixed bias rotation about y and a rotation about x whose
angle grows linearly with the step index, ``rx(omega * t) @ ry(theta)``.
Angles follow the wave-plate convention, meaning the matrix entries
contain twice the nominal angle.

Coin basis ordering is ``[plus, minus]``: the plus component moves the
walker up, the minus component moves it down.

The coin is written only here. :func:`coin_at_step` also takes arrays
of step indices or of ramp rates and returns their ``(..., 2, 2)`` stack.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np
from numpy.typing import NDArray

_MAX_HALF_ANGLE = float(np.finfo(np.float64).max) / 2


class StepConvention(Enum):
    """Which step indices feed the ramped coin over a walk of T steps."""

    ONE_BASED = "one-based"  # t = 1..T; reproduces the revival catalog
    ZERO_BASED = "zero-based"  # t = 0..T-1; first coin has no ramp

    def step_indices(self, steps: int) -> NDArray[np.int64]:
        return np.arange(self.first_step, self.first_step + steps)

    @property
    def first_step(self) -> int:
        return 1 if self is StepConvention.ONE_BASED else 0


def coin_at_step(
    theta: float,
    omega,
    t,
    convention: StepConvention = StepConvention.ONE_BASED,
) -> NDArray[np.complex128]:
    """Coin ``rx(omega * t) @ ry(theta)``; arrays of steps or ramp rates give their stack.

    ``rx(phi)`` is the rotation about x by nominal angle phi,
    ``[[cos 2phi, i sin 2phi], [i sin 2phi, cos 2phi]]``, and
    ``ry(theta)`` the rotation about y, ``[[cos 2theta, -sin 2theta],
    [sin 2theta, cos 2theta]]``. The ``(..., 2, 2)`` stack is written
    entry by entry from ``c, s = cos, sin(2 omega t)`` and ``cy, sy =
    cos, sin(2 theta)``, the latter computed once per call with
    :mod:`math`:

        [[c cy + i s sy,  -c sy + i s cy],
         [c sy + i s cy,   c cy - i s sy]]

    Each real and imaginary part is one rounded product, as in the
    complex matrix product, whose other terms are exact zeros; so the
    stack equals ``rx(omega * t) @ ry(theta)`` up to the signs of zeros.
    Raises on a step index before the convention's first step and on a
    non-finite angle.
    """
    t = np.asarray(t)
    early = t < convention.first_step
    if early.any():
        raise ValueError(
            f"step index {t[early].flat[0]} is not valid under {convention.value} indexing"
        )
    with np.errstate(over="ignore"):
        phi = np.asarray(np.multiply(omega, t, dtype=np.float64))
    finite = np.abs(phi) <= _MAX_HALF_ANGLE  # false for NaN, infinities and overflow of 2 phi
    if not finite.all():
        raise ValueError(f"rotation angle must be finite, got {float(phi[~finite][0])!r}")
    angle = 2.0 * phi
    c, s = np.cos(angle), np.sin(angle)
    if not abs(theta) <= _MAX_HALF_ANGLE:  # false for NaN, infinities and overflow of 2 theta
        raise ValueError(f"rotation angle must be finite, got {float(theta)!r}")
    cy, sy = math.cos(2.0 * theta), math.sin(2.0 * theta)
    out = np.empty(c.shape + (2, 2), dtype=np.complex128)
    re, im = out.real, out.imag
    re[..., 0, 0] = re[..., 1, 1] = c * cy
    re[..., 0, 1] = c * -sy
    re[..., 1, 0] = c * sy
    im[..., 0, 0] = s * sy
    im[..., 0, 1] = im[..., 1, 0] = s * cy
    im[..., 1, 1] = s * -sy
    return out

