"""The reference kernel reproduces the bundled revival catalog.

    python3 -m pytest bench/test_reference.py -q

Reads the catalog JSON directly; imports nothing from rampwalk.
"""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np

import reference as ref

CATALOG = Path(__file__).resolve().parent.parent / "src/rampwalk/data/revival_catalog.json"


def test_every_catalog_entry_is_a_revival_with_its_completeness_flag():
    entries = ref.load_catalog(CATALOG)
    assert len(entries) == 40
    for steps, theta_pi, omega_pi, complete in entries:
        block = ref.origin_blocks(math.pi * float(theta_pi), [math.pi * float(omega_pi)], steps)[0]
        assert ref.leak(block[None])[0] < ref.LEAK_TOL, (steps, theta_pi, omega_pi)
        assert ref.is_complete(block) == complete, (steps, theta_pi, omega_pi)


def test_truth_sets_up_to_t8_are_exactly_the_catalog():
    entries = set(ref.load_catalog(CATALOG))
    found = {
        (steps, theta_pi, omega_pi, complete)
        for steps in {e[0] for e in entries}
        for theta_pi in {e[1] for e in entries}
        for omega_pi, complete in ref.truth_set(math.pi * float(theta_pi), steps).items()
    }
    assert found == entries


def test_dephased_walk_at_visibility_one_matches_the_pure_propagator():
    rng = np.random.default_rng(7)
    for steps in (3, 8, 13):
        theta, omega = rng.uniform(0.0, math.pi / 2, 2)
        block = ref.origin_blocks(theta, [omega], steps)[0]
        expected = ref.origin_probability(block) if steps % 2 == 0 else 0.0
        assert abs(ref.dephased_origin_probability(theta, omega, steps, 1.0) - expected) < 1e-12


def test_full_dephasing_keeps_populations_only():
    # At visibility 0 the coin coherences die after each step, so the two
    # paths back to the origin after two steps add as probabilities.
    theta, omega = 0.3, 0.2
    c1 = ref.coins(theta, np.array([omega]), 1)[0]
    c2 = ref.coins(theta, np.array([omega]), 2)[0]
    after_one = np.abs(c1 @ ref.SYMMETRIC_COIN) ** 2  # plus (now at +1), minus (now at -1)
    p0 = after_one[0] * abs(c2[1, 0]) ** 2 + after_one[1] * abs(c2[0, 1]) ** 2
    assert abs(ref.dephased_origin_probability(theta, omega, 2, 0.0) - p0) < 1e-12


def test_fractions_are_reduced_and_complete():
    fracs = ref.fractions_up_to(12)
    assert fracs == sorted(set(fracs))
    assert Fraction(5, 12) in fracs and Fraction(1, 2) in fracs and Fraction(7, 12) not in fracs
