"""Seeded workloads: inputs, the program call for one operation, and its check.

Each workload turns a seed into a fixed input set (one "pass"). The
generator uses only the reference kernel; the program sees nothing but
the generated inputs. ``run`` is the timed program call; ``check``
compares its output with the reference and runs outside the timed region.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import reference as ref

VALUE_TOL = 1e-9  # p0, tv distance and effective coin entries vs the reference
CALIBRATION_TOL = 1e-4  # bisect_visibility's default tolerance on p0


@dataclass
class Outcome:
    """Result of checking one operation."""

    ok: bool
    detail: str = ""
    revivals: int = 0  # reference-confirmed revivals the operation covers
    recalled: int = 0  # of those, the ones the program reported


@dataclass
class Op:
    """One operation: its inputs and the reference values it is checked against."""

    label: str
    argv: list[str] = field(default_factory=list)  # CLI operations
    schedule: dict = field(default_factory=dict)  # library operations
    expect: dict = field(default_factory=dict)


def _pi_fraction(f: Fraction) -> float:
    """Radians exactly as the CLI computes them from a fraction of pi."""
    return float(f) * math.pi


@functools.cache
def family_revivals(theta: float, steps: int) -> list[Fraction]:
    """Reference-confirmed revivals among k/M, M in {T, T+2, 2T, 2(T+2)}.

    The revival families of this walk sit on these denominators; checking
    them is cheap at large T, where the full truth set is not.
    """
    candidates = sorted(
        {Fraction(k, m) for m in (steps, steps + 2, 2 * steps, 2 * (steps + 2)) for k in range(m // 2 + 1)}
    )
    return sorted(ref.revivals(theta, steps, candidates))


@functools.cache
def truth_list(theta: float, steps: int) -> list[Fraction]:
    return sorted(ref.truth_set(theta, steps))


# --------------------------------------------------------------------------
# Yardstick: fixed work of the benchmark's own, timed between operations.
# The run divides the program's times by it, so a host that runs slower
# for a whole run moves the relative figures much less than the seconds.


@functools.cache
def _unitary(dim: int) -> np.ndarray:
    rng = np.random.default_rng(dim)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


def yardstick_dense(dim: int, count: int) -> None:
    """Conjugate a density-like matrix ``count`` times, then diagonalize it (BLAS, LAPACK)."""
    u = _unitary(dim)
    m = np.eye(dim, dtype=np.complex128)
    for _ in range(count):
        m = u @ m @ u.conj().T
    np.linalg.eigvalsh(0.5 * (m + m.conj().T))


def yardstick_loop(count: int) -> None:
    """Single-rate reference walks: many small numpy calls, as in golden refinement."""
    for k in range(count):
        ref.origin_blocks(0.3, [0.2 + 1e-3 * k], 24)


def yardstick_grid(points: int, steps: int) -> None:
    """One batched reference walk over a grid of ramp rates, as in the scan's grid kernel."""
    ref.origin_blocks(0.0, np.linspace(0.0, math.pi / 2, points), steps)


# --------------------------------------------------------------------------
# revival_scan: `rampwalk search` over a fixed domain through cli.main


class RevivalScan:
    """The default-style scan extended to T = 16 and 24; the seed does not change it.

    One pass covers the whole domain in five ``search`` calls: the default
    scan (T = 2..8, both thetas, the rows the catalog holds) and one call
    per (T, theta) at T = 16 and 24. The rows of a scan do not depend on
    each other, so the five outputs together are the output of one search
    over the domain. The default scan and the two T = 16 rows cost about
    the same, so the median operation sits inside that group.
    """

    steps = (2, 4, 6, 8, 16, 24)
    thetas = (Fraction(0), Fraction(1, 4))
    catalog_steps = (2, 4, 6, 8)

    def __init__(self, seed: int, root: Path):
        self.catalog = {
            (t, th, om, c) for t, th, om, c in ref.load_catalog(root / "src/rampwalk/data/revival_catalog.json")
        }
        self.truth = {
            (t, th): ref.truth_set(_pi_fraction(th), t) for t in self.steps for th in self.thetas
        }
        self.first_bytes: dict[str, bytes] = {}
        self.found: dict[str, set[tuple[int, Fraction, Fraction]]] = {}

    @staticmethod
    def _op(steps, thetas) -> Op:
        argv = [
            "search",
            "--steps", ",".join(str(t) for t in steps),
            "--theta", ",".join(str(th) for th in thetas),
        ]
        return Op(" ".join(argv), argv=argv, schedule={"steps": list(steps), "thetas": list(thetas)})

    def inputs(self) -> list[Op]:
        deep = [self._op((t,), (th,)) for t in self.steps if t not in self.catalog_steps for th in self.thetas]
        return [self._op(self.catalog_steps, self.thetas), *deep]

    def warmup(self) -> list[Op]:
        return [Op("search-warmup", argv=["search", "--steps", "2", "--theta", "0,1/4"])]

    def yardstick(self) -> None:
        yardstick_loop(40)
        yardstick_grid(501, 16)

    def run(self, program, op: Op, out: Path):
        return program.cli.main(op.argv + ["--json-out", str(out)]), out

    def check(self, op: Op, result) -> Outcome:
        code, out = result
        if code != 0:
            return Outcome(False, f"{op.label}: exit code {code}")
        data = out.read_bytes()
        if self.first_bytes.setdefault(op.label, data) != data:
            return Outcome(False, f"{op.label}: JSON differs from the first run's")
        found: dict[tuple[int, Fraction], list[dict]] = {}
        for c in json.loads(data)["candidates"]:
            found.setdefault((c["steps"], Fraction(c["theta_pi"])), []).append(c)
        covered = {(t, th) for t in op.schedule["steps"] for th in op.schedule["thetas"]}
        problems = [f"rows outside the domain: {sorted(set(found) - covered)}"] if set(found) - covered else []
        rows = set()
        hits = set()
        for (steps, theta), cands in found.items():
            blocks = ref.origin_blocks(_pi_fraction(theta), [c["omega"] for c in cands], steps)
            for c, block, lk in zip(cands, blocks, ref.leak(blocks)):
                if lk >= ref.LEAK_TOL:
                    problems.append(f"T={steps} omega={c['omega']!r} is not a revival (leak {lk:.2e})")
                elif ref.is_complete(block) != c["complete"]:
                    problems.append(f"T={steps} omega={c['omega']!r} completeness flag wrong")
                omega_pi = Fraction(c["omega_pi"]) if c["omega_pi"] is not None else None
                if omega_pi in self.truth.get((steps, theta), {}):
                    hits.add((steps, theta, omega_pi))
                if steps in self.catalog_steps:
                    rows.add((steps, theta, omega_pi, c["complete"]))
        expected = {row for row in self.catalog if (row[0], row[1]) in covered}
        if rows != expected:
            problems.append(f"T <= 8 rows differ from the catalog: {sorted(rows ^ expected, key=str)[:4]}")
        self.found[op.label] = hits
        total = sum(len(self.truth[key]) for key in covered)
        return Outcome(not problems, f"{op.label}: " + "; ".join(problems[:3]) if problems else "",
                       total, len(hits))

    def recall_detail(self) -> dict:
        """Found / truth per (T, theta/pi), from the last checked output of each operation."""
        found = set().union(*self.found.values())
        return {
            f"T={t} theta={th}pi": f"{sum((t, th, om) in found for om in truth)}/{len(truth)}"
            for (t, th), truth in self.truth.items()
        }


# --------------------------------------------------------------------------
# deep_classify: classify() on long schedules, dense operator path


class DeepClassify:
    """Nine schedules: two at T = 32, five at T = 48, two at T = 64; four or five are revivals.

    The median operation is then a T = 48 classify, in the middle of its
    group rather than at a group boundary.
    """

    layout = ((32, 2), (48, 5), (64, 2))

    def __init__(self, seed: int, root: Path):
        rng = random.Random(seed)
        all_steps = [steps for steps, count in self.layout for _ in range(count)]
        revival_slots = set(rng.sample(range(len(all_steps)), rng.choice((4, 5))))
        ops = []
        for slot, steps in enumerate(all_steps):
            if slot in revival_slots:
                theta = rng.choice((0.0, math.pi / 4))
                omega = _pi_fraction(rng.choice(family_revivals(theta, steps)))
                kind = "revival"
            else:
                theta = rng.uniform(0.0, math.pi / 2)
                omega = rng.uniform(0.0, math.pi / 2)
                kind = "random"
            block = ref.origin_blocks(theta, [omega], steps)[0]
            revival = bool(ref.leak(block[None])[0] < ref.LEAK_TOL)
            ops.append(
                Op(
                    f"classify T={steps} {kind}",
                    schedule={"theta": theta, "omega": omega, "steps": steps},
                    expect={
                        "revival": revival,
                        "complete": revival and ref.is_complete(block),
                        "p0": ref.origin_probability(block),
                        "coin": block,
                    },
                )
            )
        rng.shuffle(ops)
        self.ops = ops

    def inputs(self) -> list[Op]:
        return self.ops

    def warmup(self) -> list[Op]:
        return [Op("classify-warmup", schedule={"theta": 0.0, "omega": math.pi / 8, "steps": 8})]

    def yardstick(self) -> None:
        yardstick_dense(198, 6)
        yardstick_loop(5)

    def run(self, program, op: Op, out: Path):
        return program.classify(program.WalkSchedule(**op.schedule))

    def check(self, op: Op, report) -> Outcome:
        e = op.expect
        problems = []
        if report.is_revival != e["revival"]:
            problems.append(f"revival verdict {report.is_revival} != {e['revival']}")
        if report.is_complete != e["complete"]:
            problems.append(f"completeness {report.is_complete} != {e['complete']}")
        if abs(report.origin_probability - e["p0"]) > VALUE_TOL:
            problems.append(f"p0 {report.origin_probability!r} != {e['p0']!r}")
        if report.effective_coin is None or np.abs(report.effective_coin - e["coin"]).max() > VALUE_TOL:
            problems.append("effective coin differs")
        revivals = int(e["revival"])
        return Outcome(not problems, f"{op.label}: " + "; ".join(problems) if problems else "",
                       revivals, int(revivals and report.is_revival))


# --------------------------------------------------------------------------
# dephasing_calibration: `rampwalk noise-sweep` through cli.main


class DephasingCalibration:
    """Calibrations at revivals with T = 16 (two) and 24 (three), rows at T = 48 (one).

    The calibration visibility is drawn from odd multiples of 1/1024 in
    [0.9, 0.99]. Bisection on [0, 1] meets such a point exactly after ten
    halvings, so every calibration makes the same number of walks and an
    operation's cost does not depend on the seed.
    """

    layout = ((16, 2, True), (24, 3, True), (48, 1, False))
    grid = [j / 1024 for j in range(1, 1024, 2) if 0.9 <= j / 1024 <= 0.99]

    def __init__(self, seed: int, root: Path):
        rng = random.Random(seed)
        self._p0_cache: dict[tuple, float] = {}
        ops = []
        for steps, count, calibrate in self.layout:
            for _ in range(count):
                ops.append(self._draw(rng, steps, calibrate))
        rng.shuffle(ops)
        self.ops = ops

    def p0(self, theta: float, omega: float, steps: int, visibility: float) -> float:
        key = (theta, omega, steps, visibility)
        if key not in self._p0_cache:
            self._p0_cache[key] = ref.dephased_origin_probability(theta, omega, steps, visibility)
        return self._p0_cache[key]

    def _draw(self, rng: random.Random, steps: int, calibrate: bool) -> Op:
        while True:
            theta_pi = rng.choice((Fraction(0), Fraction(1, 4)))
            theta = _pi_fraction(theta_pi)
            omega_pi = rng.choice(truth_list(theta, steps) if calibrate else family_revivals(theta, steps))
            omega = _pi_fraction(omega_pi)
            visibility = rng.choice(self.grid) if calibrate else round(rng.uniform(0.9, 0.99), 6)
            target = self.p0(theta, omega, steps, visibility)
            floor = self.p0(theta, omega, steps, 0.0)
            # Revivals that dephasing cannot move (p0 = 1 at every
            # visibility) leave nothing to calibrate; draw again.
            if target < 1.0 - 1e-3 and floor < target - 1e-3:
                break
        argv = [
            "noise-sweep", "--theta", str(theta_pi), "--omega", str(omega_pi),
            "--steps", str(steps), "--visibilities", f"1,{visibility!r}",
        ]
        if calibrate:
            argv += ["--target-p0", repr(target)]
        rows = {1.0: self.p0(theta, omega, steps, 1.0), visibility: target}
        return Op(
            f"noise-sweep T={steps} omega={omega_pi}pi" + (" calibrated" if calibrate else ""),
            argv=argv,
            schedule={"theta": theta, "omega": omega, "steps": steps},
            expect={"rows": rows, "target": target if calibrate else None},
        )

    def inputs(self) -> list[Op]:
        return self.ops

    def warmup(self) -> list[Op]:
        return [Op("noise-warmup", argv=["noise-sweep", "--theta", "0", "--omega", "1/8", "--steps", "8",
                                          "--visibilities", "1,0.95", "--target-p0", "0.918"])]

    def yardstick(self) -> None:
        yardstick_dense(102, 60)
        yardstick_loop(5)

    def run(self, program, op: Op, out: Path):
        return program.cli.main(op.argv + ["--json-out", str(out)]), out

    def check(self, op: Op, result) -> Outcome:
        code, out = result
        if code != 0:
            return Outcome(False, f"{op.label}: exit code {code}")
        doc = json.loads(out.read_text(encoding="utf-8"))
        e, s = op.expect, op.schedule
        problems = []
        got = {row["visibility"]: row for row in doc["rows"]}
        if set(got) != set(e["rows"]):
            problems.append(f"rows at {sorted(got)} != {sorted(e['rows'])}")
        for v, p0 in e["rows"].items():
            row = got.get(v)
            if row is None:
                continue
            if abs(row["origin_probability"] - p0) > VALUE_TOL:
                problems.append(f"p0 at v={v} is {row['origin_probability']!r}, reference {p0!r}")
            if abs(row["tv_distance"] - (1.0 - p0)) > VALUE_TOL:
                problems.append(f"tv distance at v={v} differs")
        if e["target"] is not None:
            cal = doc.get("calibration")
            if cal is None:
                problems.append("no calibration block")
            else:
                achieved = self.p0(s["theta"], s["omega"], s["steps"], cal["visibility"])
                if abs(cal["origin_probability"] - achieved) > VALUE_TOL:
                    problems.append("calibrated p0 disagrees with the reference at that visibility")
                if abs(achieved - e["target"]) > CALIBRATION_TOL:
                    problems.append(f"calibration missed the target by {abs(achieved - e['target']):.2e}")
        unit_row = got.get(1.0)
        recalled = int(unit_row is not None and unit_row["origin_probability"] >= 1.0 - ref.LEAK_TOL)
        return Outcome(not problems, f"{op.label}: " + "; ".join(problems) if problems else "", 1, recalled)


WORKLOADS = {
    "revival_scan": RevivalScan,
    "deep_classify": DeepClassify,
    "dephasing_calibration": DephasingCalibration,
}
