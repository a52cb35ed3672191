import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rampwalk.coins import (
    StepConvention,
    coin_at_step,
    ry,
)
from rampwalk import coins as coin_module
from rampwalk.evolution import WalkSchedule

from oracles import coin_matrix

angles = st.floats(
    min_value=-4.0 * math.pi,
    max_value=4.0 * math.pi,
    allow_nan=False,
    allow_infinity=False,
)


def unitarity_defect(m):
    """Largest entrywise deviation of ``m.H @ m`` from the identity."""
    return float(np.max(np.abs(m.conj().T @ m - np.eye(2))))


def rx(phi):
    """The rotation about x by nominal angle phi: the coin of step 1 with no bias."""
    return coin_at_step(0.0, phi, 1)


def test_rx_known_values():
    assert np.allclose(rx(0.0), np.eye(2), atol=1e-15)
    expected = np.array(
        [
            [math.cos(math.pi / 4), 1j * math.sin(math.pi / 4)],
            [1j * math.sin(math.pi / 4), math.cos(math.pi / 4)],
        ]
    )
    assert np.allclose(rx(math.pi / 8), expected, atol=1e-15)
    # the wave-plate convention doubles the angle inside the entries
    assert np.allclose(rx(math.pi / 2), -np.eye(2), atol=1e-12)


def test_ry_known_values():
    assert np.allclose(ry(0.0), np.eye(2), atol=1e-15)
    assert np.allclose(ry(math.pi / 4), np.array([[0, -1], [1, 0]]), atol=1e-12)
    assert np.allclose(ry(math.pi / 2), -np.eye(2), atol=1e-12)


def test_rotations_reject_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            rx(bad)
        with pytest.raises(ValueError):
            ry(bad)


@given(angles)
def test_rx_is_pi_periodic(phi):
    assert np.allclose(rx(phi + math.pi), rx(phi), atol=1e-12)


@given(angles, angles)
@settings(max_examples=300)
def test_rotations_unitary(phi, theta):
    assert unitarity_defect(rx(phi)) <= 1e-12
    assert unitarity_defect(ry(theta)) <= 1e-12


@given(angles, angles, st.integers(min_value=1, max_value=50))
@settings(max_examples=1000)
def test_coin_at_step_unitary_and_matches_product(theta, omega, t):
    coin = coin_at_step(theta, omega, t)
    assert unitarity_defect(coin) <= 1e-12
    # the product of the oracle's two rotations: rx(omega t) and ry(theta)
    product = np.array(coin_matrix(0.0, omega, t)) @ np.array(coin_matrix(theta, 0.0, 1))
    assert np.allclose(coin, product, atol=1e-15)
    assert np.all(np.isfinite(coin.view(np.float64)))


@given(angles, angles, st.integers(min_value=1, max_value=30))
def test_coin_at_step_matches_entrywise_formula(theta, omega, t):
    coin = coin_at_step(theta, omega, t)
    reference = np.array(coin_matrix(theta, omega, t))
    assert np.max(np.abs(coin - reference)) <= 1e-14


def test_coin_at_step_rejects_index_before_first():
    with pytest.raises(ValueError):
        coin_at_step(0.0, 0.1, 0, StepConvention.ONE_BASED)
    with pytest.raises(ValueError):
        coin_at_step(0.0, 0.1, -1, StepConvention.ZERO_BASED)
    # t = 0 is the first step under zero-based indexing
    coin = coin_at_step(0.3, 0.7, 0, StepConvention.ZERO_BASED)
    assert np.allclose(coin, ry(0.3), atol=1e-15)


def test_step_conventions_enumerate_indices():
    assert list(StepConvention.ONE_BASED.step_indices(4)) == [1, 2, 3, 4]
    assert list(StepConvention.ZERO_BASED.step_indices(4)) == [0, 1, 2, 3]
    assert list(StepConvention.ONE_BASED.step_indices(0)) == []


@given(angles, angles, st.integers(min_value=1, max_value=40))
def test_products_of_step_coins_are_unitary(theta, omega, steps):
    # a walk multiplies its step coins; the product of a whole schedule stays unitary
    coins = WalkSchedule(theta, omega, steps).coins()
    product = np.linalg.multi_dot([*coins, rx(theta), ry(omega)])
    assert unitarity_defect(product) <= 1e-12


def assert_bitwise_equal(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a.view(np.float64)), np.signbit(b.view(np.float64)))


@pytest.mark.parametrize("convention", list(StepConvention))
def test_coin_stacks_equal_the_scalar_coins(convention):
    rng = np.random.default_rng(7)
    for _ in range(40):
        theta, omega = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 2)
        steps = np.arange(convention.first_step, convention.first_step + rng.integers(1, 65))
        stack = coin_at_step(theta, omega, steps, convention)
        assert_bitwise_equal(
            stack, np.array([coin_at_step(theta, omega, int(t), convention) for t in steps])
        )
        omegas = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 17)
        t = int(steps[-1])
        assert_bitwise_equal(
            coin_at_step(theta, omegas, t, convention),
            np.array([coin_at_step(theta, float(o), t, convention) for o in omegas]),
        )


def test_coin_stack_shape_and_validation():
    assert WalkSchedule(0.3, 0.2, steps=0).coins().shape == (0, 2, 2)
    assert WalkSchedule(0.3, 0.2, steps=5).coins().shape == (5, 2, 2)
    with pytest.raises(ValueError):
        coin_at_step(0.3, np.array([0.1, math.nan]), 2)
    with pytest.raises(ValueError):
        coin_at_step(0.3, np.array([0.1, math.inf]), 2)
    with pytest.raises(ValueError):
        coin_at_step(0.3, 0.2, np.array([1, 2, 0]), StepConvention.ONE_BASED)
    with pytest.raises(ValueError):
        coin_at_step(0.3, 0.2, np.array([0, -1]), StepConvention.ZERO_BASED)
    # the message names the first invalid index only
    with pytest.raises(ValueError) as info:
        coin_at_step(0.3, 0.2, np.arange(0, 40))
    assert str(info.value) == "step index 0 is not valid under one-based indexing"
    with pytest.raises(ValueError) as info:
        coin_at_step(0.3, 0.2, np.array([[0, 3], [-2, -1]]), StepConvention.ZERO_BASED)
    assert str(info.value) == "step index -2 is not valid under zero-based indexing"
    # a bias angle whose double overflows is refused before math.cos sees it
    with pytest.raises(ValueError) as info:
        coin_at_step(1e308, 0.1, 1)
    assert str(info.value) == "rotation angle must be finite, got 1e+308"


def assert_mirror_form(stack):
    """``c11 == conj(c00)`` and ``c10 == -conj(c01)`` in every bit, signed zeros included, for each coin of a stack."""
    c00, c01, c10, c11 = (np.ascontiguousarray(stack[..., i, j]) for i in (0, 1) for j in (0, 1))
    assert_bitwise_equal(c11, np.conj(c00))
    assert_bitwise_equal(c10, -np.conj(c01))


@pytest.mark.parametrize("convention", list(StepConvention))
@pytest.mark.parametrize("theta", [0.0, math.pi / 4, *np.random.default_rng(11).uniform(-2.0 * math.pi, 2.0 * math.pi, 3)])
def test_coin_stacks_have_the_exact_form_the_scan_mirror_needs(theta, convention):
    # the scan reads the walk from basis coin 1 as the mirror of the walk from basis
    # coin 0, which is exact only if every coin is [[a, b], [-b*, a*]] in every bit
    rng = np.random.default_rng(13)
    first = convention.first_step
    steps = np.arange(first, first + 200)
    rates = np.concatenate(([0.0, math.pi / 8, math.pi / 4, math.pi / 2], rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 60)))
    assert_mirror_form(coin_at_step(theta, rates[5], steps, convention))
    assert_mirror_form(coin_at_step(theta, rates, 17, convention))
    assert_mirror_form(coin_at_step(theta, rates, steps[:, None], convention))
    # omega * t up to the largest angle whose double is finite: sin and cos of huge arguments
    huge = coin_module._MAX_HALF_ANGLE * np.array([1.0, 1.0 - 2**-52, 0.5, 1e-3, -1.0])
    assert_mirror_form(coin_at_step(theta, huge, max(first, 1), convention))
    assert_mirror_form(coin_at_step(theta, huge[0] / 8.0, np.array([max(first, 1), 3, 8]), convention))
