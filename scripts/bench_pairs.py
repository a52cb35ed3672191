#!/usr/bin/env python3
"""Run the benchmark on two source trees in alternating pairs and write BENCH_<label>.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --label NAME --seconds S \\
        --pairs dephasing_calibration=10 --pairs revival_scan=3 [--traced WORKLOAD ...]

PARENT and CHANGE are checkouts, each with its own ``bench/run.py``,
``BENCHMARK.json`` and ``src/``, whose resolved paths must have equal
length: the peak RSS of a run moves with the path's length. For
every workload ``W=N``, seeds 1 to N each run once per tree with
``--trace 0``, back to back, the parent first on odd seeds and the
change first on even ones. Seed 1 of every ``--traced`` workload also
runs once per tree with ``--trace 1``. The record written to
``BENCH_<label>.json`` next to ``scripts/`` holds every run (its
provenance, summary and result) and, per workload and metric, each
side's median and quartiles and the pairs the change wins, in the
direction BENCHMARK.json gives for the metric. After the record is
written, one stderr line per workload and end-to-end metric gives the
parent's median, the change's median and the pairs the change won. It
ends in ``beyond bound B`` when the change's median is worse than the
parent's by more than the metric's bound B in BENCHMARK.json, read as
a fraction of the parent median, and in ``unresolved`` when the
parent's quartile spread is wider than that bound and not every run of
the change is better than every run of the parent. A
run that exits non-zero or times out is recorded as failed, with its
exit code and the tail of its stderr, and the plan goes on. The exit
status is 1 when any run failed or its result was not correct (one
stderr line names each), and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def parse_output(stdout: str) -> dict:
    """One run's record from the stdout of ``bench/run.py``.

    Its last line is the result object and the line before it carries
    the provenance and summary.
    """
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        raise ValueError(f"expected provenance and result lines, got {len(lines)} lines")
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"provenance": record["provenance"], "summary": record["summary"], "result": result}


def directions(config: dict) -> dict[str, str]:
    """The better direction ("lower" or "higher") of every metric BENCHMARK.json lists."""
    return {m["name"]: m["better"] for kind in ("end_to_end", "per_layer") for m in config[kind]}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarise(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric, each side's runs, median and quartiles, and the change's wins.

    ``runs`` are records of :func:`parse_output` with ``side``,
    ``workload``, ``seed`` and ``trace`` added. A pair is the two sides'
    runs of one workload, seed and trace; the change wins a pair when
    its value is strictly better in the metric's direction. Each
    workload also lists the config and source hashes of each side and
    its count of runs whose result was not correct, failed runs included.
    """
    summary: dict[str, dict] = {}
    by_key = {(r["side"], r["workload"], r["seed"], r["trace"]): r for r in runs}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        entry: dict[str, dict] = {
            "hashes": {
                side: {
                    key: sorted({r["provenance"][key] for r in mine if r["side"] == side and r["provenance"]})
                    for key in ("config_sha256", "rampwalk_source_sha256")
                }
                for side in SIDES
            },
            "runs_not_correct": {side: sum(not r["result"]["correct"] for r in mine if r["side"] == side)
                                 for side in SIDES},
        }
        pairs = sorted({(r["seed"], r["trace"]) for r in mine})
        names = sorted({name for r in mine for name in r["result"]["metrics"]})
        for name in names:
            values = {side: [] for side in SIDES}
            wins = 0
            for seed, trace in pairs:
                pair = [by_key.get((side, workload, seed, trace)) for side in SIDES]
                if None in pair or any(name not in r["result"]["metrics"] for r in pair):
                    continue
                parent, change = (r["result"]["metrics"][name]["value"] for r in pair)
                values["parent"].append(parent)
                values["change"].append(change)
                direction = better.get(name, "lower")
                wins += change < parent if direction == "lower" else change > parent
            if not values["parent"]:
                continue
            stats = {"unit": next(r["result"]["metrics"][name]["unit"] for r in mine
                                  if name in r["result"]["metrics"]),
                     "better": better.get(name, "lower")}
            for side in SIDES:
                stats[f"{side}_median"] = statistics.median(values[side])
                stats[f"{side}_quartiles"] = quartiles(values[side])
                stats[f"{side}_runs"] = values[side]
            parent_median = stats["parent_median"]
            stats["change_over_parent"] = stats["change_median"] / parent_median if parent_median else None
            stats["pairs"] = len(values["parent"])
            stats["pairs_change_better"] = wins
            stats["parent_quartile_spread"] = stats["parent_quartiles"][1] - stats["parent_quartiles"][0]
            entry[name] = stats
        summary[workload] = entry
    return summary


def verdict_lines(summary: dict, config: dict) -> list[str]:
    """Per workload and end-to-end metric of ``config``: each side's median and the change's wins.

    A line ends in ``beyond bound B`` when the change's median is worse
    than the parent's, in the metric's direction, by more than B times
    the parent median, B being the metric's ``bound``. It ends in
    ``unresolved`` when the parent's quartile spread exceeds B times the
    parent median, so the runs spread too widely to tell a change within
    the bound, unless every run of the change is better than every run
    of the parent.
    """
    lines = []
    for workload, entry in summary.items():
        for metric in config["end_to_end"]:
            stats = entry.get(metric["name"])
            if stats is None:
                continue
            parent, change = stats["parent_median"], stats["change_median"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (change - parent)
            # every run of the change better than every run of the parent
            clear = max(sign * v for v in stats["change_runs"]) < min(sign * v for v in stats["parent_runs"])
            line = (f"{workload} {metric['name']}: parent median {parent:.6g}, change median {change:.6g}, "
                    f"change better in {stats['pairs_change_better']} of {stats['pairs']} pairs")
            if worse > metric["bound"] * abs(parent):
                line += f", beyond bound {metric['bound']:g}"
            if stats["parent_quartile_spread"] > metric["bound"] * abs(parent) and not clear:
                line += ", unresolved"
            lines.append(line)
    return lines


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The record of one run of ``bench/run.py``; a run that exits non-zero or times out is failed.

    A failed run's record has no provenance or summary, a result that is
    not correct and has no metrics, and a ``failure`` that gives its exit
    code (None after a timeout) and the last 2000 characters of its stderr.
    """
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(command, cwd=tree, capture_output=True, text=True, timeout=max(600.0, 20 * seconds))
    except subprocess.TimeoutExpired as exc:
        code, stderr = None, exc.stderr or ""
    else:
        if proc.returncode == 0:
            return parse_output(proc.stdout)
        code, stderr = proc.returncode, proc.stderr
    if isinstance(stderr, bytes):  # a timeout can leave the captured stderr undecoded
        stderr = stderr.decode(errors="replace")
    return {"provenance": None, "summary": None, "result": {"correct": False, "metrics": {}},
            "failure": {"exit_code": code, "stderr_tail": stderr[-2000:]}}


def workload_count(text: str) -> tuple[str, int]:
    name, _, count = text.partition("=")
    if not name or not count.isdigit() or int(count) < 1:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=N with N >= 1, got {text!r}")
    return name, int(count)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=workload_count, action="append", required=True,
                        metavar="WORKLOAD=N")
    parser.add_argument("--traced", action="append", default=[], metavar="WORKLOAD")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(trees["parent"])) != len(str(trees["change"])):
        parser.error(f"PARENT and CHANGE must resolve to paths of equal length, got "
                     f"{trees['parent']} and {trees['change']}")
    config = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))

    counts = dict(args.pairs)
    plan = [(workload, seed, 0) for seed in range(1, max(counts.values()) + 1)
            for workload, count in args.pairs if seed <= count]
    plan += [(workload, 1, 1) for workload in args.traced]
    runs = []
    for workload, seed, trace in plan:
        order = SIDES if seed % 2 else SIDES[::-1]
        for side in order:
            record = run_once(trees[side], workload, seed, args.seconds, trace)
            runs.append({"side": side, "workload": workload, "seed": seed, "trace": trace, **record})
            status = (f"failed, exit code {record['failure']['exit_code']}" if "failure" in record
                      else f"correct {record['result']['correct']}")
            print(f"{workload} seed {seed} trace {trace} {side}: {status}", file=sys.stderr, flush=True)

    provenance = next((r["provenance"] for r in runs if r["provenance"]), None)
    host = provenance and {key: provenance[key]
                           for key in ("machine", "nproc", "python", "numpy", "blas", "blas_threads")}
    document = {
        "label": args.label,
        "command": f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} --trace T",
        "method": ("Each pair ran the two trees back to back, the parent first on odd seeds and the "
                   "change first on even seeds; pairs with --trace 1 use seed 1. Medians and "
                   "quartiles are over the pairs; a pair counts for the change when its value is "
                   "strictly better in the direction BENCHMARK.json gives."),
        "host": host,
        "summary": summarise(runs, directions(config)),
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(out)
    for line in verdict_lines(document["summary"], config):
        print(line, file=sys.stderr)
    wrong = [r for r in runs if not r["result"]["correct"]]
    for r in wrong:
        what = "failed" if "failure" in r else "not correct"
        print(f"{what}: {r['side']} {r['workload']} seed {r['seed']} trace {r['trace']}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
