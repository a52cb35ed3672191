"""Steadiness check: run each workload over several seeds and report spreads.

    python3 bench/steady.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                            [--out report.json] [--against earlier.json]

Runs ``bench/run.py --trace 0`` once per seed, one process at a time,
for the length BENCHMARK.json sets. For each end-to-end metric it prints
the median, the quartiles (``statistics.quantiles(n=4)``) and the spread
``(q3 - q1) / median`` next to the metric's bound and a third of it.
With ``--against`` it also compares each median with an earlier report
and flags a metric whose median got worse by more than its bound.
Exits with 1 if a run fails, is not correct, or a spread (setup_s
excepted) or a median shift exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(config: dict, workload: str, seed: int) -> dict:
    argv = [*config["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(config["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def worse_by(new: float, old: float, better: str) -> float:
    """Share of the old value by which new is worse (negative when better)."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args(argv)
    metrics = {m["name"]: m for m in config["end_to_end"]}
    earlier = json.loads(args.against.read_text(encoding="utf-8")) if args.against else {}

    report: dict = {}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in metrics}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(config, workload, seed)
            ok &= bool(result["correct"]) and result["failed"] == 0
            for name in metrics:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.4g}" for n, v in values.items()), file=sys.stderr, flush=True)
        report[workload] = {}
        for name, spec in metrics.items():
            vals = values[name]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            row = {"values": vals, "q1": q1, "median": med, "q3": q3, "spread": spread, "bound": spec["bound"]}
            verdict = "ok" if spread < spec["bound"] / 3 else ("within bound" if spread <= spec["bound"] else "TOO WIDE")
            if spread > spec["bound"] and name != "setup_s":
                ok = False
            shift = ""
            if workload in earlier and name in earlier[workload]:
                row["shift"] = worse_by(med, earlier[workload][name]["median"], spec["better"])
                shift = f" shift {row['shift']:+.3f}"
                if row["shift"] > spec["bound"]:
                    ok = False
                    shift += " WORSE THAN BOUND"
            report[workload][name] = row
            print(f"{workload:22s} {name:12s} {spec['unit']:6s} median {med:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:6.3f}  bound {spec['bound']:.3f} "
                  f"(third {spec['bound'] / 3:.3f}) {verdict}{shift}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
