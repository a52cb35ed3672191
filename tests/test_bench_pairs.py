import argparse
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load_script()


def canned_stdout(workload, seed, trace, source, metrics, correct=True):
    """What bench/run.py prints: metric lines, then the provenance line, then the result line."""
    provenance = {"workload": workload, "seed": seed, "trace": trace, "config_sha256": f"cfg-{workload}-{seed}",
                  "rampwalk_source_sha256": source, "machine": "x86_64", "nproc": 2, "python": "3.11.7",
                  "numpy": "2.4.6", "blas": "openblas", "blas_threads": 2}
    result = {"correct": correct, "attempted": 6, "failed": 0 if correct else 1,
              "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
    lines = [f"{workload:22s} {name:44s} {value:14.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(json.dumps({"provenance": provenance, "summary": {"passes": 3}}, sort_keys=True))
    lines.append(json.dumps(result))
    return "\n".join(lines) + "\n"


def run(side, workload, seed, trace, metrics, correct=True):
    source = "aaaa" if side == "parent" else "bbbb"
    record = bench_pairs.parse_output(canned_stdout(workload, seed, trace, source, metrics, correct))
    return {"side": side, "workload": workload, "seed": seed, "trace": trace, **record}


def test_parse_output_reads_the_last_two_lines():
    record = bench_pairs.parse_output(canned_stdout("w", 3, 0, "abcd", {"wall_rel": (2.5, "yardstick")}))
    assert record["provenance"]["seed"] == 3
    assert record["provenance"]["rampwalk_source_sha256"] == "abcd"
    assert record["summary"] == {"passes": 3}
    assert record["result"]["metrics"] == {"wall_rel": {"value": 2.5, "unit": "yardstick"}}
    with pytest.raises(ValueError, match="expected provenance and result lines"):
        bench_pairs.parse_output('{"correct": true}\n')


def test_summarise_gives_medians_quartiles_and_wins_per_pair():
    better = {"wall_rel": "lower", "scan_recall": "higher", "evolution.self_s": "lower"}
    wall = {1: (4.0, 3.0), 2: (3.0, 3.5), 3: (5.0, 2.0), 4: (6.0, 6.0)}
    recall = {1: (1.0, 1.0), 2: (0.9, 1.0), 3: (1.0, 0.8), 4: (0.5, 0.9)}
    runs = []
    for seed in wall:
        for i, side in enumerate(("parent", "change")):
            metrics = {"wall_rel": (wall[seed][i], "yardstick"), "scan_recall": (recall[seed][i], "ratio")}
            runs.append(run(side, "scan", seed, 0, metrics, correct=not (side == "change" and seed == 2)))
    # one traced pair, whose per-layer metric the untraced runs lack
    runs.append(run("parent", "scan", 1, 1, {"evolution.self_s": (0.08, "s")}))
    runs.append(run("change", "scan", 1, 1, {"evolution.self_s": (0.05, "s")}))
    # an unpaired run counts for no metric
    runs.append(run("parent", "scan", 5, 0, {"wall_rel": (100.0, "yardstick")}))
    summary = bench_pairs.summarise(runs, better)["scan"]

    wall_rel = summary["wall_rel"]
    assert wall_rel["pairs"] == 4
    assert wall_rel["parent_runs"] == [4.0, 3.0, 5.0, 6.0]
    assert wall_rel["change_runs"] == [3.0, 3.5, 2.0, 6.0]
    assert wall_rel["parent_median"] == 4.5 and wall_rel["change_median"] == 3.25
    assert wall_rel["parent_quartiles"] == [3.75, 5.25]
    assert wall_rel["parent_quartile_spread"] == 1.5
    assert wall_rel["change_over_parent"] == 3.25 / 4.5
    # lower is better: seeds 1 and 3 win, the tie at seed 4 does not
    assert wall_rel["pairs_change_better"] == 2 and wall_rel["unit"] == "yardstick"
    # higher is better: seeds 2 and 4 win
    assert summary["scan_recall"]["pairs_change_better"] == 2
    assert summary["scan_recall"]["better"] == "higher"
    traced = summary["evolution.self_s"]
    assert traced["pairs"] == 1 and traced["pairs_change_better"] == 1
    assert traced["parent_quartiles"] == [0.08, 0.08]
    assert summary["runs_not_correct"] == {"parent": 0, "change": 1}
    hashes = summary["hashes"]
    assert hashes["parent"]["rampwalk_source_sha256"] == ["aaaa"]
    assert hashes["change"]["rampwalk_source_sha256"] == ["bbbb"]
    assert hashes["change"]["config_sha256"] == [f"cfg-scan-{seed}" for seed in (1, 2, 3, 4)]


def test_directions_read_both_metric_lists_of_the_benchmark():
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = bench_pairs.directions(config)
    assert better["wall_rel"] == "lower" and better["scan_recall"] == "higher"
    assert better["trace.accounted"] == "higher"


def test_pairs_option_takes_workload_and_count():
    assert bench_pairs.workload_count("deep_classify=3") == ("deep_classify", 3)
    for bad in ("deep_classify", "=3", "deep_classify=0", "deep_classify=x"):
        with pytest.raises(argparse.ArgumentTypeError):
            bench_pairs.workload_count(bad)
