#!/usr/bin/env python3
"""Print digests of the package's outputs, so a bit-identity claim is one command run in two trees.

    PYTHONPATH=src python3 scripts/report_digest.py [--schedules N]

Three lines, each a name and a SHA-256 digest:

- ``reports``: every field of the ``classify`` report of N seeded
  schedules (default 600): T from 0 to 64, both step conventions, a
  third of them at a visibility below 1 and a quarter on family points,
  which revive. Floats and arrays enter as their bytes, so NaN and
  signed zeros count.
- ``scan``: the candidates of ``scan`` at T = 8 to 32, theta 0, pi/4
  and 0.37, and at T = 96, theta pi/4 and 0.37, whose rows are walked in
  more than one chunk of ``search.SCAN_CHUNK_SITES // (2T + 1)`` (66)
  points, both conventions, each as its ``repr`` (round-trip floats).
- ``cli``: the bytes the README's ``walk`` (JSON and CSV), ``search``,
  ``noise-sweep`` and ``effective-coin`` commands write.

The same tree gives the same three lines on every run; two trees that
print the same lines give the same outputs on these inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np

from rampwalk import cli
from rampwalk.analysis import classify
from rampwalk.coins import StepConvention
from rampwalk.evolution import WalkSchedule
from rampwalk.search import SearchConfig, scan
from rampwalk.states import WalkerCoinPureState

CLI_RUNS = [
    ["walk", "--theta", "0", "--omega", "1/8", "--steps", "16", "--json-out", "{dir}/walk.json",
     "--csv-out", "{dir}/walk.csv"],
    ["walk", "--theta", "1/4", "--omega", "1/12", "--steps", "12", "--visibility", "0.9",
     "--json-out", "{dir}/noisy.json", "--csv-out", "{dir}/noisy.csv"],
    ["search"],
    ["noise-sweep", "--theta", "0", "--omega", "1/8", "--steps", "8",
     "--visibilities", "1,0.996,0.99,0.95,0.9", "--target-p0", "0.918"],
    ["effective-coin", "--theta", "1/4", "--omega", "1/10", "--steps", "8"],
]


def schedules(count: int, seed: int = 20130501) -> list[WalkSchedule]:
    """``count`` seeded schedules: T in [0, 64], both conventions, some noisy, some on family points."""
    rng = np.random.default_rng(seed)
    found = []
    for i in range(count):
        steps = int(rng.integers(0, 65))
        theta, omega = (float(x) for x in rng.uniform(-3.0, 3.0, 2))
        if i % 4 == 0:
            theta, omega = math.pi / 4 * int(rng.integers(0, 4)), math.pi / max(2 * steps, 2)
        visibility = float(rng.uniform(0.5, 1.0)) if i % 3 == 2 else 1.0
        found.append(WalkSchedule(theta, omega, steps, list(StepConvention)[i % 2], visibility))
    return found


def report_digest(count: int) -> str:
    digest = hashlib.sha256()
    for schedule in schedules(count):
        report = classify(schedule)
        for name in ("origin_probability", "tv_distance", "polya_truncated", "overlap_initial", "overlap_predicted"):
            digest.update(np.float64(getattr(report, name)).tobytes())
        digest.update(repr((report.is_revival, report.is_complete)).encode())
        arrays = [report.distributions.probabilities]
        arrays.append(report.final.amplitudes if isinstance(report.final, WalkerCoinPureState) else report.final.matrix)
        if report.effective_coin is not None:
            arrays.append(report.effective_coin)
        for array in arrays:
            digest.update(repr((array.shape, array.dtype.str)).encode())
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def scan_digest() -> str:
    digest = hashlib.sha256()
    for convention in StepConvention:
        short = SearchConfig(tuple(range(8, 33, 2)), (0.0, math.pi / 4, 0.37), convention=convention)
        # 145 (one-based) and 97 (zero-based) family points a row: past one chunk
        long = SearchConfig((96,), (math.pi / 4, 0.37), convention=convention)
        for candidate in scan(short) + scan(long):
            digest.update(repr(candidate).encode())
    return digest.hexdigest()


def cli_digest() -> str:
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as directory:
        for argv in CLI_RUNS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main([arg.format(dir=directory) for arg in argv])
            digest.update(repr((argv, code)).encode() + out.getvalue().encode())
        for path in sorted(Path(directory).iterdir()):
            digest.update(path.name.encode() + path.read_bytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--schedules", type=int, default=600, help="seeded classify reports to digest")
    args = parser.parse_args(argv)
    print("reports", report_digest(args.schedules))
    print("scan", scan_digest())
    print("cli", cli_digest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
