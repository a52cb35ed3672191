"""Scan that rediscovers the revival parameter catalog.

For each (steps, theta) pair the scan walks only the row's exact
rational family (see ``_family``), where every revival sits: each point
from the two basis coins at the origin, all in one batch, which gives
its propagator blocks. ``analysis._verdict`` judges them, as in
``classify``. A walk from coin c ends at the origin as ``W_T[0] c``, so
the residual ``1 - p0`` of the symmetric coin is read from ``W_T[0]``.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Callable, TypeVar

import numpy as np

from .coins import StepConvention, coin_at_step
from .evolution import _origin_walk
from .analysis import _verdict
from .states import CoinVector

ANGLE_MAX_DENOMINATOR = 360
ANGLE_TOL = 1e-9
MAX_FRACTION_EXPONENT = 1000

_CATALOG_RESOURCE = "data/revival_catalog.json"
_EXPONENT = re.compile(r"e([-+]?\d[\d_]*)\s*\Z", re.IGNORECASE)
_Record = TypeVar("_Record")
_Field = TypeVar("_Field", int, float, bool, str)


@dataclass(frozen=True)
class SearchConfig:
    """Scan domain.

    ``omega_grid`` is the ramp-rate range (min, max) in radians inside
    [0, pi/2]; the scan walks the family points inside it, both
    endpoints included. Step counts must be even integers since the
    walker can only revive at the origin after an even number of steps.
    """

    step_counts: tuple[int, ...] = (2, 4, 6, 8)
    theta_values: tuple[float, ...] = (0.0, math.pi / 4)
    omega_grid: tuple[float, float] = (0.0, math.pi / 2)
    convention: StepConvention = StepConvention.ONE_BASED

    def __post_init__(self) -> None:
        if not self.step_counts:
            raise ValueError("step_counts must not be empty")
        if not self.theta_values:
            raise ValueError("theta_values must not be empty")
        if not isinstance(self.convention, StepConvention):
            raise ValueError(f"convention must be a StepConvention, got {self.convention!r}")
        for steps in self.step_counts:
            if isinstance(steps, bool) or not isinstance(steps, numbers.Integral):
                raise ValueError(f"step counts must be integers, got {steps!r}")
            if steps < 2 or steps % 2 != 0:
                raise ValueError(f"step counts must be even and positive, got {steps}")
        # as ints: a numpy integer would reach Fractions, which cannot hash it;
        # a repeated step count or theta keeps its first place and is walked once
        object.__setattr__(self, "step_counts", tuple(dict.fromkeys(map(int, self.step_counts))))
        for theta in self.theta_values:
            if not math.isfinite(theta):
                raise ValueError(f"theta must be finite, got {theta!r}")
        object.__setattr__(self, "theta_values", tuple(dict.fromkeys(self.theta_values)))
        lo, hi = self.omega_grid
        if not (0.0 <= lo and hi <= math.pi / 2 + 1e-12):
            raise ValueError(f"omega range [{lo}, {hi}] must lie inside [0, pi/2]")
        if not lo < hi:
            raise ValueError(f"omega min {lo} must be below omega max {hi}")


@dataclass(frozen=True)
class RevivalCandidate:
    """One accepted revival point.

    ``omega_rational`` holds (numerator, denominator) of omega / pi, the
    exact point of the row's rational family whose ramp rate is
    ``omega``. ``residual`` is ``1 - p0`` at the accepted parameters.
    """

    steps: int
    theta: float
    omega: float
    omega_rational: tuple[int, int]
    complete: bool
    residual: float


def angle_fraction(value: float) -> Fraction | None:
    """Best fraction of pi for an angle with denominator <= ``ANGLE_MAX_DENOMINATOR``.

    Returns None when no such fraction lies within ``ANGLE_TOL`` of value / pi.
    """
    ratio = value / math.pi
    frac = Fraction(ratio).limit_denominator(ANGLE_MAX_DENOMINATOR)
    if abs(ratio - float(frac)) <= ANGLE_TOL:
        return frac
    return None


def parse_fraction(value) -> Fraction:
    """``Fraction(value)``; a text whose decimal exponent exceeds ``MAX_FRACTION_EXPONENT`` raises.

    Fraction would expand such an exponent into an integer of that many
    digits, which for a text like ``"1e10000000"`` takes seconds.
    """
    match = isinstance(value, str) and _EXPONENT.search(value)
    if match and abs(int(match[1])) > MAX_FRACTION_EXPONENT:
        raise ValueError(f"{value!r} has a decimal exponent beyond +-{MAX_FRACTION_EXPONENT}")
    return Fraction(value)


def _family(steps: int, convention: StepConvention, lo: float, hi: float) -> list[Fraction]:
    """Sorted fractions p/q = omega / pi in [0, 1/2] of the row's revival family.

    Every revival found so far has q | T or q | 2(T + 2) in the one-based
    convention and q | 2T in the zero-based one, so the family is k/m
    for those m. For theta / pi in Z/4 and T <= 32 the revivals of the
    family are the row's whole revival set on [0, pi/2], as the integer
    polynomial certificate in ``tests/exact.py`` proves. Which family
    points revive there follows the closed-form law
    ``tests/exact.revival_law``, to which tier-1 pins the scan, candidates
    and completeness flags, for every even T up to 48, theta in
    (pi/4)Z and both conventions. The family stays the superset the scan
    verifies, so a theta outside (pi/4)Z still gets a verdict. A point
    is kept when its ramp rate ``pi * p / q`` lies in [lo, hi].
    """
    if convention is StepConvention.ONE_BASED:
        moduli = (steps, 2 * (steps + 2))
    else:
        moduli = (2 * steps,)
    points = {Fraction(k, m) for m in moduli for k in range(m // 2 + 1)}
    return sorted(p for p in points if lo <= math.pi * p.numerator / p.denominator <= hi)


def _scan_row(config: SearchConfig, steps: int, theta: float) -> list[RevivalCandidate]:
    lo, hi = config.omega_grid
    # The batched walk (two starts for each of at most 2T + 4 family points) is
    # allocated first: a row too large to walk fails at once, before its O(T) fractions.
    np.empty((2, 2 * steps + 3, 2 * (2 * steps + 4)), dtype=np.complex128)
    family = _family(steps, config.convention, lo, hi)
    omegas = np.array([math.pi * p.numerator / p.denominator for p in family])
    t = np.array(config.convention.step_indices(steps))
    blocks = _origin_walk(coin_at_step(theta, omegas, t[:, None], config.convention))
    # a walk from coin c ends at the origin as W_T[0] c
    origin = blocks[:, steps] @ CoinVector.symmetric().as_array()
    residuals = 1.0 - (np.abs(origin[:, 0]) ** 2 + np.abs(origin[:, 1]) ** 2)
    found = []
    for point, omega, walked, residual in zip(family, omegas.tolist(), blocks, residuals.tolist()):
        revival, complete = _verdict(walked)
        if revival:
            rational = point.as_integer_ratio()
            found.append(RevivalCandidate(steps, theta, omega, rational, complete, residual))
    return found


def scan(config: SearchConfig) -> list[RevivalCandidate]:
    """All accepted revival candidates over the configured domain.

    Each (steps, theta) row is scanned on its own, one after another;
    the result is sorted by (steps, theta, omega).
    """
    found = [
        candidate
        for steps in config.step_counts
        for theta in config.theta_values
        for candidate in _scan_row(config, steps, theta)
    ]
    found.sort(key=lambda c: (c.steps, c.theta, c.omega))
    return found


@dataclass(frozen=True)
class CatalogEntry:
    """Reference revival point with exact angles as fractions of pi."""

    steps: int
    theta_pi: Fraction
    omega_pi: Fraction
    complete: bool

    def key(self) -> tuple[int, Fraction, Fraction]:
        return self.steps, self.theta_pi, self.omega_pi

    def to_dict(self) -> dict:
        return {
            "steps": self.steps,
            "theta_pi": str(self.theta_pi),
            "omega_pi": str(self.omega_pi),
            "complete": self.complete,
        }


def load_reference_catalog() -> tuple[CatalogEntry, ...]:
    """Reference catalog bundled with the package."""
    text = resources.files(__package__).joinpath(_CATALOG_RESOURCE).read_text("utf-8")
    return parse_catalog(text)


def parse_catalog(text: str) -> tuple[CatalogEntry, ...]:
    """Parse catalog JSON: {"entries": [{steps, theta_pi, omega_pi, complete}]}."""

    def entry(raw: dict) -> CatalogEntry:
        return CatalogEntry(
            steps=typed_field(raw, "steps", int),
            theta_pi=parse_fraction(typed_field(raw, "theta_pi", str)),
            omega_pi=parse_fraction(typed_field(raw, "omega_pi", str)),
            complete=typed_field(raw, "complete", bool),
        )

    return tuple(json_records(text, "entries", entry))


def json_records(text: str, field: str, parse: Callable[[dict], _Record]) -> list[_Record]:
    """Parse each object of the list under `field` in a JSON object document.

    Every malformed document or record raises ValueError: a top level
    that is not an object, a field that is not a list of objects, or a
    record whose values have the wrong type or are out of range.
    """
    doc = json.loads(text)
    records = doc.get(field) if isinstance(doc, dict) else None
    if not isinstance(records, list) or not all(isinstance(raw, dict) for raw in records):
        raise ValueError(f"expected a JSON object whose {field!r} field is a list of objects")
    try:
        return [parse(raw) for raw in records]
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed {field!r} record: {exc}") from exc


def typed_field(raw: dict, key: str, kind: type[_Field]) -> _Field:
    """``raw[key]`` when its JSON type is exactly `kind`: int, float, bool or str.

    Anything else raises ValueError; 2.9 and true are no integers, "false"
    is no boolean, "0" and 0 are no floats, and true is no string.
    """
    value = raw[key]
    if type(value) is not kind:
        raise ValueError(f"{key!r} must be a JSON {kind.__name__}, got {value!r}")
    return value


@dataclass(frozen=True)
class TableDiff:
    """Difference between scanned candidates and the reference catalog."""

    missing: tuple[CatalogEntry, ...]
    extra: tuple[dict, ...]
    misclassified: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not (self.missing or self.extra or self.misclassified)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "missing": [entry.to_dict() for entry in self.missing],
            "extra": list(self.extra),
            "misclassified": list(self.misclassified),
        }


def verify_table(
    candidates: list[RevivalCandidate],
    reference: tuple[CatalogEntry, ...] | None = None,
) -> TableDiff:
    """Compare scan output against the reference catalog entry by entry.

    Candidates match reference entries on exact (steps, theta / pi,
    omega / pi) triples, each entry at most once (a repeat is extra);
    matched entries must also agree on the completeness flag.
    """
    if reference is None:
        reference = load_reference_catalog()
    by_key = {entry.key(): entry for entry in reference}
    seen: set[tuple[int, Fraction, Fraction]] = set()
    extra: list[dict] = []
    misclassified: list[dict] = []
    for candidate in candidates:
        theta_frac = angle_fraction(candidate.theta)
        omega_frac = Fraction(*candidate.omega_rational)
        described = {
            "steps": candidate.steps,
            "theta_pi": str(theta_frac) if theta_frac is not None else repr(candidate.theta),
            "omega_pi": str(omega_frac),
            "complete": candidate.complete,
        }
        # a theta that is no fraction of pi matches no entry
        key = (candidate.steps, theta_frac, omega_frac)
        entry = by_key.get(key)
        if entry is None or key in seen:
            extra.append(described)
            continue
        seen.add(key)
        if entry.complete != candidate.complete:
            misclassified.append(
                {
                    "steps": entry.steps,
                    "theta_pi": str(entry.theta_pi),
                    "omega_pi": str(entry.omega_pi),
                    "expected_complete": entry.complete,
                    "found_complete": candidate.complete,
                }
            )
    missing = tuple(entry for entry in reference if entry.key() not in seen)
    return TableDiff(missing=missing, extra=tuple(extra), misclassified=tuple(misclassified))
