import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rampwalk.analysis import classify
from rampwalk.evolution import WalkSchedule

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["revival_demo.py"])
def test_script_runs_to_success(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_demo_shows_the_two_periodic_revivals():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "revival_demo.py")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "unbiased walk, ramp pi/8, 16 steps"
    for t, line in enumerate(lines[1:17], start=1):
        p0 = "1.000000" if t in (2, 8, 10, 16) else "0.000000"
        assert line.startswith(f"  t = {t:2d}  p0 = {p0}  "), line
    # revivals at 2, 8, 10 and 16 steps; only those at 8 and 16 are complete
    for t in (2, 8, 10, 16):
        report = classify(WalkSchedule(0.0, math.pi / 8, t))
        assert report.is_revival
        assert report.is_complete is (t in (8, 16))


def test_report_digest_is_the_same_on_two_runs():
    # one digest line each for the classify reports, the scan and the README's CLI outputs
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = [
        subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "report_digest.py"), "--schedules", str(count)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        for count in (24, 24, 23)
    ]
    assert all(run.returncode == 0 for run in runs), [run.stderr for run in runs]
    first, again, fewer = (run.stdout.splitlines() for run in runs)
    assert [line.split()[0] for line in first] == ["reports", "scan", "cli"]
    assert all(len(line.split()[1]) == 64 for line in first)
    assert first == again
    # one report fewer changes the reports digest alone
    assert fewer[0] != first[0] and fewer[1:] == first[1:]
