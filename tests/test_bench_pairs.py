import argparse
import importlib.util
import json
import subprocess
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


def test_trees_at_paths_of_unequal_length_are_refused_before_any_run(monkeypatch, tmp_path, capsys):
    runs = []
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: runs.append(args))
    argv = [str(tmp_path / "parent"), str(tmp_path / "change2"), "--label", "check", "--seconds", "1",
            "--pairs", "deep_classify=1"]
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(argv)
    assert exit_info.value.code == 2 and runs == []
    assert "paths of equal length" in capsys.readouterr().err


def test_runs_that_are_not_correct_are_named_and_fail_the_command(monkeypatch, tmp_path, capsys):
    def canned_runs(wrong):
        def run_once(tree, workload, seed, seconds, trace):
            metrics = {"wall_rel": (1.0, "yardstick")}
            correct = (tree.name, seed) not in wrong
            return bench_pairs.parse_output(canned_stdout(workload, seed, trace, tree.name, metrics, correct))
        return run_once

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    (tmp_path / "change").mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--label", "check", "--seconds", "1",
            "--pairs", "deep_classify=2"]
    monkeypatch.setattr(bench_pairs, "run_once", canned_runs({("change", 2)}))
    assert bench_pairs.main(argv) == 1
    record = json.loads((tmp_path / "BENCH_check.json").read_text(encoding="utf-8"))
    assert record["summary"]["deep_classify"]["runs_not_correct"] == {"parent": 0, "change": 1}
    wrong = [line for line in capsys.readouterr().err.splitlines() if line.startswith("not correct")]
    assert wrong == ["not correct: change deep_classify seed 2 trace 0"]
    monkeypatch.setattr(bench_pairs, "run_once", canned_runs(set()))
    assert bench_pairs.main(argv) == 0


def test_the_verdict_gives_each_end_to_end_metric_its_medians_and_wins(monkeypatch, tmp_path, capsys):
    scan = {"scan_recall": (1.0, 1.0), "search.self_s": (0.2, 0.1)}
    values = {  # (workload, seed): {metric: (parent, change)}
        ("revival_scan", 1): {"wall_rel": (0.30, 0.24), **scan},
        ("revival_scan", 2): {"wall_rel": (0.29, 0.25), **scan},
        ("revival_scan", 3): {"wall_rel": (0.28, 0.29), **scan},
        ("deep_classify", 1): {"wall_rel": (1.00, 1.09)},
    }
    units = {"wall_rel": "yardstick", "scan_recall": "ratio", "search.self_s": "s"}

    def run_once(tree, workload, seed, seconds, trace):
        side = 0 if tree.name == "parent" else 1
        metrics = {name: (pair[side], units[name]) for name, pair in values[workload, seed].items()}
        return bench_pairs.parse_output(canned_stdout(workload, seed, trace, tree.name, metrics))

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    (tmp_path / "change").mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--label", "check", "--seconds", "1",
            "--pairs", "revival_scan=3", "--pairs", "deep_classify=1"]
    assert bench_pairs.main(argv) == 0
    assert (tmp_path / "BENCH_check.json").exists()
    err = capsys.readouterr().err.splitlines()
    # one line per workload and end-to-end metric it reports, none for a per-layer metric
    assert [line for line in err if "median" in line] == [
        "deep_classify wall_rel: parent median 1, change median 1.09, change better in 0 of 1 pairs",
        "revival_scan wall_rel: parent median 0.29, change median 0.25, change better in 2 of 3 pairs",
        "revival_scan scan_recall: parent median 1, change median 1, change better in 0 of 3 pairs",
    ]


def test_the_verdict_names_a_median_worse_than_the_bound_allows(monkeypatch, tmp_path, capsys):
    # bounds from BENCHMARK.json, as fractions of the parent median: wall_rel 0.25,
    # peak_rss_mb 0.05, scan_recall 0.01 (higher is better), setup_s 0.25
    values = {  # (workload, seed): {metric: (parent, change)}
        ("revival_scan", 1): {"wall_rel": (1.0, 1.3), "peak_rss_mb": (56.1, 58.7), "scan_recall": (1.0, 0.98)},
        ("dephasing_calibration", 1): {"wall_rel": (2.0, 2.5), "peak_rss_mb": (56.0, 58.9),
                                       "scan_recall": (0.5, 0.9), "setup_s": (0.2, 0.1)},
    }
    units = {"wall_rel": "yardstick", "peak_rss_mb": "MB", "scan_recall": "ratio", "setup_s": "s"}

    def run_once(tree, workload, seed, seconds, trace):
        side = 0 if tree.name == "parent" else 1
        metrics = {name: (pair[side], units[name]) for name, pair in values[workload, seed].items()}
        return bench_pairs.parse_output(canned_stdout(workload, seed, trace, tree.name, metrics))

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    (tmp_path / "change").mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--label", "check", "--seconds", "1",
            "--pairs", "revival_scan=1", "--pairs", "dephasing_calibration=1"]
    # a metric beyond its bound does not change the exit status
    assert bench_pairs.main(argv) == 0
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "median" in line] == [
        "dephasing_calibration setup_s: parent median 0.2, change median 0.1, change better in 1 of 1 pairs",
        # +25% exactly is inside a bound of 0.25
        "dephasing_calibration wall_rel: parent median 2, change median 2.5, change better in 0 of 1 pairs",
        "dephasing_calibration peak_rss_mb: parent median 56, change median 58.9, change better in 0 of 1 pairs, "
        "beyond bound 0.05",
        "dephasing_calibration scan_recall: parent median 0.5, change median 0.9, change better in 1 of 1 pairs",
        "revival_scan wall_rel: parent median 1, change median 1.3, change better in 0 of 1 pairs, beyond bound 0.25",
        # +4.6%, inside a bound of 0.05
        "revival_scan peak_rss_mb: parent median 56.1, change median 58.7, change better in 0 of 1 pairs",
        "revival_scan scan_recall: parent median 1, change median 0.98, change better in 0 of 1 pairs, "
        "beyond bound 0.01",
    ]


def test_a_failed_run_is_recorded_and_the_plan_finishes(monkeypatch, tmp_path, capsys):
    # the change's seed 2 exits 3 and its seed 3 times out; every other run prints its record
    calls = []

    def fake_run(command, cwd, capture_output, text, timeout):
        seed, trace = int(command[command.index("--seed") + 1]), int(command[command.index("--trace") + 1])
        calls.append((Path(cwd).name, seed))
        if (Path(cwd).name, seed) == ("change", 2):
            return subprocess.CompletedProcess(command, 3, stdout="", stderr="x" * 3000 + "Traceback: boom\n")
        if (Path(cwd).name, seed) == ("change", 3):
            raise subprocess.TimeoutExpired(command, timeout, stderr=b"still walking\n")
        stdout = canned_stdout("deep_classify", seed, trace, Path(cwd).name, {"wall_rel": (1.0 + seed, "yardstick")})
        return subprocess.CompletedProcess(command, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(subprocess, "run", fake_run)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    (tmp_path / "change").mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--label", "check", "--seconds", "1",
            "--pairs", "deep_classify=4"]
    assert bench_pairs.main(argv) == 1
    assert sorted(calls) == [(side, seed) for side in ("change", "parent") for seed in (1, 2, 3, 4)]
    record = json.loads((tmp_path / "BENCH_check.json").read_text(encoding="utf-8"))
    assert len(record["runs"]) == 8
    failed = {r["seed"]: r for r in record["runs"] if "failure" in r}
    assert sorted(failed) == [2, 3] and all(r["side"] == "change" for r in failed.values())
    assert failed[2]["failure"] == {"exit_code": 3, "stderr_tail": ("x" * 3000 + "Traceback: boom\n")[-2000:]}
    assert failed[3]["failure"] == {"exit_code": None, "stderr_tail": "still walking\n"}
    assert not failed[2]["result"]["correct"] and failed[2]["provenance"] is None
    summary = record["summary"]["deep_classify"]
    assert summary["runs_not_correct"] == {"parent": 0, "change": 2}
    # the two whole pairs still give the verdict
    assert summary["wall_rel"]["pairs"] == 2 and summary["wall_rel"]["parent_runs"] == [2.0, 5.0]
    assert record["host"]["machine"] == "x86_64"
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("failed")] == [
        "failed: change deep_classify seed 2 trace 0", "failed: change deep_classify seed 3 trace 0"
    ]
    assert "deep_classify wall_rel: parent median 3.5, change median 3.5, change better in 0 of 2 pairs" in err
