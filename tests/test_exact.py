import cmath
import math
from fractions import Fraction

import pytest

import exact
import oracles
from rampwalk.search import load_reference_catalog


@pytest.mark.parametrize("one_based", [True, False])
@pytest.mark.parametrize("theta_quarters", [0, 1, 2, 3])
@pytest.mark.parametrize("steps", [1, 2, 5, 8])
def test_scaled_blocks_match_the_dict_oracle(steps, theta_quarters, one_based):
    blocks = exact.scaled_blocks(steps, theta_quarters, one_based)
    theta = theta_quarters * math.pi / 4
    power = sum(oracles.step_range(steps, one_based))
    for omega in (0.0, 0.3, math.pi / 7, 1.2):
        z = cmath.exp(2j * omega)
        scale = 2**steps * z**power
        for j, coin in enumerate(((1.0, 0.0), (0.0, 1.0))):
            final = oracles.walk_states(theta, omega, steps, coin, one_based)[-1]
            for d in range(-steps, steps + 1):
                for i in range(2):
                    value = sum(int(c) * z**k for k, c in enumerate(blocks[d + steps, i, j]))
                    expected = final.get(d, (0.0, 0.0))[i] * scale
                    assert abs(value - expected) <= 1e-9 * 2**steps


def test_cyclotomic_polynomials():
    assert exact.cyclotomic(1) == (-1, 1)
    assert exact.cyclotomic(2) == (1, 1)
    assert exact.cyclotomic(4) == (1, 0, 1)
    assert exact.cyclotomic(6) == (1, -1, 1)
    assert exact.cyclotomic(12) == (1, 0, -1, 0, 1)
    # degree phi(n)
    for n in range(1, 60):
        assert len(exact.cyclotomic(n)) - 1 == sum(math.gcd(k, n) == 1 for k in range(n))


def test_vanishes_at_order():
    # z^3 - 1 = Phi_1 Phi_3, times z^5
    cube = [0] * 5 + [-1, 0, 0, 1]
    assert [n for n in range(1, 13) if exact.vanishes_at_order(cube, n)] == [1, 3]


@pytest.mark.parametrize("steps", [2, 4, 6, 8])
@pytest.mark.parametrize("theta_quarters", [0, 1])
def test_certificate_proves_the_bundled_catalog(steps, theta_quarters):
    # the catalog rows are the whole revival sets, flags included
    row = {
        entry.omega_pi: entry.complete
        for entry in load_reference_catalog()
        if entry.steps == steps and entry.theta_pi == Fraction(theta_quarters, 4)
    }
    assert exact.certify(steps, theta_quarters, True, row) == row


def test_certificate_refuses_a_wrong_revival_set():
    # T = 16, theta = 0 revives at the 15 points k/16 (0 < k < 8) and k/36 (k odd)
    true_set = {Fraction(k, 16) for k in range(1, 8)} | {Fraction(k, 36) for k in range(1, 18, 2)}
    assert set(exact.certify(16, 0, True, true_set)) == true_set
    with pytest.raises(AssertionError, match="points give"):
        exact.certify(16, 0, True, true_set - {Fraction(5, 36)})
    with pytest.raises(AssertionError, match="no revival"):
        exact.certify(16, 0, True, true_set | {Fraction(1, 5)})


@pytest.mark.parametrize("one_based", [True, False])
@pytest.mark.parametrize("theta_quarters", [2, 3])
@pytest.mark.parametrize("steps", [8, 16, 24])
def test_certificate_proves_the_revival_law(steps, theta_quarters, one_based):
    # quarters 0 and 1 are proved through the scan in test_search.py
    law = exact.revival_law(steps, theta_quarters, one_based)
    assert exact.certify(steps, theta_quarters, one_based, law) == law
