import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from rampwalk import cli, evolution
from rampwalk.analysis import classify
from rampwalk.evolution import WalkSchedule
from rampwalk.search import load_reference_catalog

from walks import origin_blocks

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args, timeout=None, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "rampwalk", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=timeout,
        cwd=cwd,
    )


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def test_walk_json_document(tmp_path):
    out = tmp_path / "walk.json"
    result = run_cli(
        "walk", "--theta", "0", "--omega", "1/8", "--steps", "2",
        "--json-out", str(out),
    )
    assert result.returncode == 0, result.stderr
    doc = read_json(out)
    assert doc["schedule"]["omega"]["of_pi"] == "1/8"
    assert doc["schedule"]["theta"]["of_pi"] == "0"
    assert doc["schedule"]["convention"] == "one-based"
    assert doc["origin_probability"][0] == pytest.approx(0.0, abs=1e-12)
    assert doc["origin_probability"][1] == pytest.approx(1.0, abs=1e-12)
    assert doc["tv_distance"][1] == pytest.approx(0.0, abs=1e-12)
    assert doc["polya_truncated"] == pytest.approx(1.0, abs=1e-12)
    for row in doc["probabilities"]:
        assert sum(row) == pytest.approx(1.0, abs=1e-10)
    coin = doc["reduced_coin"]
    trace = coin[0][0]["re"] + coin[1][1]["re"]
    assert trace == pytest.approx(1.0, abs=1e-10)
    assert len(doc["sites"]) == len(doc["probabilities"][0])


def test_walk_tv_matches_one_minus_p0(tmp_path):
    out = tmp_path / "walk.json"
    result = run_cli(
        "walk", "--theta", "1/4", "--omega", "1/10", "--steps", "8",
        "--json-out", str(out),
    )
    assert result.returncode == 0, result.stderr
    doc = read_json(out)
    for p0, tv in zip(doc["origin_probability"], doc["tv_distance"]):
        assert abs(tv - (1.0 - p0)) <= 1e-12


def test_walk_csv_matches_json(tmp_path):
    json_out = tmp_path / "walk.json"
    csv_out = tmp_path / "walk.csv"
    result = run_cli(
        "walk", "--theta", "0", "--omega", "1/8", "--steps", "3",
        "--json-out", str(json_out), "--csv-out", str(csv_out),
    )
    assert result.returncode == 0, result.stderr
    doc = read_json(json_out)
    raw = csv_out.read_bytes()
    assert b"\r" not in raw
    with open(csv_out, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert set(rows[0]) == {"step", "site", "probability"}
    assert len(rows) == 3 * len(doc["sites"])
    sites = doc["sites"]
    for row in rows:
        step_number = int(row["step"])
        site_index = sites.index(int(row["site"]))
        from_json = doc["probabilities"][step_number - 1][site_index]
        assert float(row["probability"]) == from_json


def test_walk_output_is_deterministic(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for out in (first, second):
        result = run_cli(
            "walk", "--theta", "1/4", "--omega", "1/10", "--steps", "6",
            "--json-out", str(out),
        )
        assert result.returncode == 0, result.stderr
    assert first.read_bytes() == second.read_bytes()


def test_walk_json_roundtrips_exactly(tmp_path):
    out = tmp_path / "walk.json"
    run_cli(
        "walk", "--theta", "1/4", "--omega", "1/10", "--steps", "4",
        "--json-out", str(out),
    )
    doc = read_json(out)
    redumped = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert redumped == out.read_text(encoding="utf-8")


def test_walk_radians_flag_matches_fraction_input(tmp_path):
    by_fraction = tmp_path / "frac.json"
    by_radians = tmp_path / "rad.json"
    run_cli(
        "walk", "--theta", "0", "--omega", "1/8", "--steps", "4",
        "--json-out", str(by_fraction),
    )
    run_cli(
        "walk", "--theta", "0", "--omega", repr(math.pi / 8), "--steps", "4",
        "--radians", "--json-out", str(by_radians),
    )
    a = read_json(by_fraction)
    b = read_json(by_radians)
    assert a["origin_probability"] == b["origin_probability"]


def test_walk_usage_errors(tmp_path):
    assert run_cli("walk", "--theta", "0", "--omega", "1/8", "--steps", "0",
                   "--json-out", "-").returncode == 2
    assert run_cli("walk", "--theta", "x/y", "--omega", "1/8", "--steps", "2",
                   "--json-out", "-").returncode == 2
    assert run_cli("walk", "--theta", "0", "--omega", "1/8", "--steps", "2",
                   "--visibility", "1.5", "--json-out", "-").returncode == 2
    # no output requested
    assert run_cli("walk", "--theta", "0", "--omega", "1/8",
                   "--steps", "2").returncode == 2
    # an angle too large for a float, and a walk too large for memory, pure,
    # dephased and under effective-coin: one line that says what went wrong
    huge = ("--theta", "0", "--omega", "1/8", "--steps", "1000000000000000")
    for args in (
        ("walk", "--theta", "1e400", "--omega", "1/8", "--steps", "2", "--json-out", "-"),
        ("walk", *huge, "--json-out", "-"),
        ("walk", *huge, "--visibility", "0.5", "--json-out", "-"),
        ("effective-coin", *huge),
    ):
        result = run_cli(*args)
        assert result.returncode == 2
        assert result.stderr.startswith("rampwalk: error:")
        assert len(result.stderr.splitlines()) == 1
        detail = result.stderr.removeprefix("rampwalk: error:").removeprefix(" out of memory:")
        assert detail.strip(), args
    # a bias angle whose double overflows names the angle
    result = run_cli("walk", "--theta", "1e308", "--radians", "--omega", "0", "--steps", "2",
                     "--json-out", "-")
    assert result.returncode == 2
    assert result.stderr == "rampwalk: error: rotation angle must be finite, got 1e+308\n"
    # a zero denominator names the angle
    result = run_cli("walk", "--theta", "0", "--omega", "1/0", "--steps", "2", "--json-out", "-")
    assert result.returncode == 2
    assert result.stderr == "rampwalk: error: angle '1/0' is not a finite number\n"


def test_walk_refuses_one_target_for_both_outputs(tmp_path):
    # stdout twice, or one file by two spellings: the JSON would follow or overwrite the CSV
    for csv_out, json_out in (("-", "-"), ("a.csv", "a.csv"), ("a.csv", "./a.csv")):
        result = run_cli("walk", "--theta", "0", "--omega", "1/8", "--steps", "2",
                         "--csv-out", csv_out, "--json-out", json_out, cwd=tmp_path)
        assert result.returncode == 2, (csv_out, json_out)
        assert result.stdout == ""
        assert result.stderr.startswith("rampwalk: error:")
        assert len(result.stderr.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []


def test_walk_io_error_exit_code(tmp_path):
    result = run_cli(
        "walk", "--theta", "0", "--omega", "1/8", "--steps", "2",
        "--json-out", str(tmp_path / "missing" / "walk.json"),
    )
    assert result.returncode == 3
    assert "i/o error" in result.stderr
    # a symlink loop, beside a second output, is refused by the write, not by the shared-target check
    (tmp_path / "loop").symlink_to("loop")
    result = run_cli("walk", "--theta", "0", "--omega", "1/8", "--steps", "2",
                     "--csv-out", "loop", "--json-out", "walk.json", cwd=tmp_path)
    assert result.returncode == 3
    assert result.stderr.startswith("rampwalk: i/o error:")


def test_unknown_command_is_usage_error():
    assert run_cli("frobnicate").returncode == 2


def test_search_and_verify_table_pipeline(tmp_path):
    candidates_path = tmp_path / "candidates.json"
    search = run_cli("search", "--json-out", str(candidates_path))
    assert search.returncode == 0, search.stderr
    doc = read_json(candidates_path)
    assert len(doc["candidates"]) == 40
    assert all(c["omega_pi"] is not None for c in doc["candidates"])
    assert all(c["residual"] <= 1e-10 for c in doc["candidates"])

    verify = run_cli("verify-table", str(candidates_path), "--json-out", "-")
    assert verify.returncode == 0, verify.stderr
    diff = json.loads(verify.stdout)
    assert diff == {"ok": True, "missing": [], "extra": [], "misclassified": []}


def test_repeated_search_values_are_walked_once(tmp_path):
    candidates_path = tmp_path / "candidates.json"
    for steps, theta in (("2,4,6,8", "0,1/4,0"), ("2,2,4,6,8", "0,1/4")):
        argv = ["search", "--steps", steps, "--theta", theta, "--json-out", str(candidates_path)]
        assert cli.main(argv) == 0
        doc = read_json(candidates_path)
        assert len(doc["candidates"]) == 40
        assert doc["config"]["step_counts"] == [2, 4, 6, 8]
        assert [entry["of_pi"] for entry in doc["config"]["theta"]] == ["0", "1/4"]
        assert cli.main(["verify-table", str(candidates_path)]) == 0


def test_verify_table_detects_tampering(tmp_path):
    candidates_path = tmp_path / "candidates.json"
    run_cli("search", "--json-out", str(candidates_path))
    doc = read_json(candidates_path)
    doc["candidates"][0]["complete"] = not doc["candidates"][0]["complete"]
    removed = doc["candidates"].pop()
    candidates_path.write_text(json.dumps(doc), encoding="utf-8")

    verify = run_cli("verify-table", str(candidates_path), "--json-out", "-")
    assert verify.returncode == 1
    diff = json.loads(verify.stdout)
    assert not diff["ok"]
    assert len(diff["misclassified"]) == 1
    assert len(diff["missing"]) == 1
    assert diff["missing"][0]["omega_pi"] == removed["omega_pi"]


def test_verify_table_empty_candidates_lists_all_entries(tmp_path):
    candidates_path = tmp_path / "empty.json"
    candidates_path.write_text('{"candidates": []}', encoding="utf-8")
    verify = run_cli("verify-table", str(candidates_path), "--json-out", "-")
    assert verify.returncode == 1
    diff = json.loads(verify.stdout)
    assert len(diff["missing"]) == 40


def test_verify_table_io_and_parse_errors(tmp_path):
    assert run_cli("verify-table", str(tmp_path / "nope.json")).returncode == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run_cli("verify-table", str(bad)).returncode == 2
    listed = tmp_path / "list.json"
    listed.write_text("[]", encoding="utf-8")
    good = tmp_path / "good.json"
    good.write_text('{"candidates": []}', encoding="utf-8")
    huge = tmp_path / "huge.json"
    huge.write_text(
        '{"candidates": [{"steps": 2, "theta": 1e400, "omega": 0.39269908169872414,'
        ' "omega_pi": "1/8", "complete": false, "residual": 0.0}]}',
        encoding="utf-8",
    )
    # steps must be a JSON integer, complete a JSON boolean, theta, omega and
    # residual JSON floats, and theta_pi and omega_pi fraction texts
    candidate = {"steps": 2, "theta": 0.0, "omega": 0.39269908169872414, "omega_pi": "1/8",
                 "complete": False, "residual": 0.0}
    mistyped = []
    # the catalog documents' cases are parse_catalog's, in test_search
    wrong_types = (
        {"complete": "false"}, {"complete": 0}, {"steps": 2.9}, {"steps": True}, {"omega_pi": None},
        {"omega_pi": True}, {"omega_pi": 0.125}, {"theta": "0"}, {"theta": 0}, {"omega": True},
        {"residual": "0.0"},
    )
    for i, changes in enumerate(wrong_types):
        candidates = tmp_path / f"candidates{i}.json"
        candidates.write_text(json.dumps({"candidates": [{**candidate, **changes}]}))
        mistyped.append((str(candidates),))
    for args in ((str(listed),), (str(huge),), *mistyped):
        result = run_cli("verify-table", *args)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("rampwalk: error:")
        assert len(result.stderr.splitlines()) == 1
    # the bundled catalog is the only reference: a catalog option is a usage error
    result = run_cli("verify-table", str(good), "--catalog", str(good))
    assert result.returncode == 2
    assert result.stderr.splitlines()[-1].startswith("rampwalk: error: unrecognized arguments: --catalog")


def test_verify_table_refuses_a_deeply_nested_document(tmp_path):
    # nesting past the interpreter's recursion limit is a malformed document, exit 2,
    # not a traceback with exit 1, which means only a verification mismatch
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    result = run_cli("verify-table", str(nested), timeout=60)
    assert result.returncode == 2, result.stderr
    assert result.stderr == "rampwalk: error: JSON document nested too deeply to parse\n"


def test_search_rejects_odd_step_counts():
    result = run_cli("search", "--steps", "3")
    assert result.returncode == 2
    assert "even" in result.stderr
    # an angle too large for a float, and whole rows past the site-step bound,
    # which fail on any host before the family's fractions are built
    for args in (
        ("--theta", "1e400", "--steps", "2"),
        ("--steps", "1000000", "--theta", "0"),
        ("--steps", "10000000", "--theta", "0"),
        ("--steps", "1000000000000000", "--theta", "0"),
    ):
        result = run_cli("search", *args, timeout=10)
        assert result.returncode == 2
        assert result.stderr.startswith("rampwalk: error:")
        assert len(result.stderr.splitlines()) == 1


def test_narrow_search_at_large_step_count_walks_only_its_range(tmp_path):
    # the memory guard counts the family points the range can hold, at most one chunk,
    # not 2T + 4 of them (9.77 GiB at T = 6400); the one point here is the law's
    # incomplete revival
    out = tmp_path / "candidates.json"
    result = run_cli(
        "search", "--steps", "6400", "--theta", "0", "--omega-min", "0.4999",
        "--omega-max", "0.49995", "--json-out", str(out), timeout=60,
    )
    assert result.returncode == 0, result.stderr
    found = [(c["omega_pi"], c["complete"]) for c in read_json(out)["candidates"]]
    assert found == [("6401/12804", False)]


def test_search_radians_keeps_the_default_domain(tmp_path):
    by_fraction = tmp_path / "fraction.json"
    by_radians = tmp_path / "radians.json"
    for args in (("--steps", "2", "--theta", "0"), ("--steps", "2")):
        result = run_cli("search", *args, "--json-out", str(by_fraction))
        assert result.returncode == 0, result.stderr
        result = run_cli("search", "--radians", *args, "--json-out", str(by_radians))
        assert result.returncode == 0, result.stderr
        assert read_json(by_radians) == read_json(by_fraction)


def test_search_narrow_window(tmp_path):
    out = tmp_path / "narrow.json"
    result = run_cli(
        "search", "--steps", "2", "--theta", "0",
        "--omega-min", "1/16", "--omega-max", "3/16",
        "--json-out", str(out),
    )
    assert result.returncode == 0, result.stderr
    doc = read_json(out)
    assert [c["omega_pi"] for c in doc["candidates"]] == ["1/8"]


def test_noise_sweep_rows_and_calibration(tmp_path):
    out = tmp_path / "noise.json"
    result = run_cli(
        "noise-sweep", "--theta", "0", "--omega", "1/8", "--steps", "8",
        "--visibilities", "1,0.996,0.99,0.95,0.9",
        "--target-p0", "0.918",
        "--json-out", str(out),
    )
    assert result.returncode == 0, result.stderr
    doc = read_json(out)
    rows = doc["rows"]
    assert [row["visibility"] for row in rows] == [1.0, 0.996, 0.99, 0.95, 0.9]
    assert rows[0]["origin_probability"] == pytest.approx(1.0, abs=1e-10)
    p0_values = [row["origin_probability"] for row in rows]
    assert all(a >= b - 1e-12 for a, b in zip(p0_values, p0_values[1:]))
    # with no bias the dephased return probability is (1 + v^2) / 2
    for row in rows:
        predicted = 0.5 * (1.0 + row["visibility"] ** 2)
        assert row["origin_probability"] == pytest.approx(predicted, abs=1e-10)
    calibration = doc["calibration"]
    assert abs(calibration["origin_probability"] - 0.918) <= 1e-4
    assert 0.9 < calibration["visibility"] < 1.0


def test_noise_sweep_usage_error():
    result = run_cli(
        "noise-sweep", "--theta", "0", "--omega", "1/8", "--steps", "8",
        "--visibilities", "1.2",
    )
    assert result.returncode == 2
    # walks too large for memory, at one visibility or several, each refused by numpy
    # without allocating
    huge = ("--theta", "0", "--omega", "1/8", "--steps", "1000000000000000")
    for args in (("--visibilities", "1"), ("--visibilities", "0.5,0.6")):
        result = run_cli("noise-sweep", *huge, *args, timeout=60)
        assert result.returncode == 2
        assert result.stderr.startswith("rampwalk: error:")
        assert len(result.stderr.splitlines()) == 1
    # a calibration alone fails at once too: its start, the amplitudes of 2T + 1
    # sites, is built before any probe builds the coins
    result = run_cli("noise-sweep", *huge, "--visibilities", "", "--target-p0", "0.5", timeout=60)
    assert result.returncode == 2
    assert result.stderr.startswith("rampwalk: error:")
    assert len(result.stderr.splitlines()) == 1
    assert "(2000000000000001, 2)" in result.stderr
    # where the start fits, the probe batch's widest block is the guard, also before
    # the coin stack
    result = run_cli(
        "noise-sweep", "--theta", "0", "--omega", "1/8", "--steps", "10000000",
        "--visibilities", "", "--target-p0", "0.5", timeout=60,
    )
    assert result.returncode == 2
    assert len(result.stderr.splitlines()) == 1
    assert f"(2, 2, 5000002, 5000002, {evolution.PROBES_PER_WALK})" in result.stderr


def test_noise_sweep_refuses_an_impossible_target_before_any_row_walk(monkeypatch, capsys):
    # the calibration runs before the rows, so NaN, a target outside [0, 1] and one that
    # p0 does not bracket (p0 > 0 at visibility 0 here) exit 2 with no row walked
    walked = []
    each = cli._classify_each

    def counting(*args):
        for report in each(*args):
            walked.append(report)
            yield report

    monkeypatch.setattr(cli, "_classify_each", counting)
    argv = ["noise-sweep", "--theta", "0", "--omega", "1/8", "--steps", "200", "--visibilities", "0.9,0.5"]
    for target in ("nan", "1.5", "0"):
        assert cli.main([*argv, "--target-p0", target]) == 2
        assert capsys.readouterr().err.startswith("rampwalk: error: target")
    assert walked == []
    # a possible target walks its rows after the calibration
    assert cli.main([*argv[:6], "8", "--visibilities", "1,0.9", "--target-p0", "0.918"]) == 0
    assert len(walked) == 2 and '"calibration"' in capsys.readouterr().out


def test_noise_sweep_of_no_visibilities_writes_no_rows(tmp_path):
    out = tmp_path / "noise.json"
    result = run_cli(
        "noise-sweep", "--theta", "0", "--omega", "1/8", "--steps", "8",
        "--visibilities", "", "--target-p0", "0.918", "--json-out", str(out),
    )
    assert result.returncode == 0, result.stderr
    doc = read_json(out)
    assert doc["rows"] == []
    assert abs(doc["calibration"]["origin_probability"] - 0.918) <= 1e-4


def test_main_gives_each_call_of_a_process_the_output_it_gives_alone(capsys):
    # the parser is built once per process; a call must not see what an earlier one parsed
    calls = [
        ["search", "--steps", "2,4", "--theta", "0"],
        ["noise-sweep", "--theta", "0", "--visibilities", "1"],
        ["noise-sweep", "--theta", "0", "--omega", "1/8", "--steps", "8",
         "--visibilities", "1,0.95", "--target-p0", "0.918"],
    ]
    codes = []
    for argv in calls:
        alone = run_cli(*argv)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (alone.returncode, alone.stdout, alone.stderr)
        codes.append(code)
    assert codes == [0, 2, 0]
    assert cli._build_parser() is cli._build_parser()


def test_effective_coin_command(tmp_path):
    out = tmp_path / "coin.json"
    result = run_cli(
        "effective-coin", "--theta", "0", "--omega", "1/8", "--steps", "8",
        "--json-out", str(out),
    )
    assert result.returncode == 0, result.stderr
    doc = read_json(out)
    assert doc["max_abs_difference"] <= 1e-10
    assert doc["complete"] is True
    strings = np.array(
        [[cell["re"] + 1j * cell["im"] for cell in row] for row in doc["balanced_strings"]]
    )
    operator = np.array(
        [[cell["re"] + 1j * cell["im"] for cell in row] for row in doc["operator_block"]]
    )
    assert np.max(np.abs(strings - operator)) <= 1e-10
    gram = strings.conj().T @ strings
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-10


def test_effective_coin_at_24_steps_reports_both_constructions(capsys):
    steps = 24
    argv = ["effective-coin", "--theta", "1/4", "--omega", "1/13", "--steps", str(steps)]
    assert cli.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    strings = np.array(
        [[cell["re"] + 1j * cell["im"] for cell in row] for row in doc["balanced_strings"]]
    )
    operator = np.array(
        [[cell["re"] + 1j * cell["im"] for cell in row] for row in doc["operator_block"]]
    )
    assert np.max(np.abs(strings - operator)) <= 1e-10
    assert doc["max_abs_difference"] <= 1e-10
    schedule = WalkSchedule(cli._parse_angle("1/4", False), cli._parse_angle("1/13", False), steps)
    assert np.array_equal(operator, origin_blocks(schedule.coins())[0][steps])
    assert doc["complete"] is classify(schedule).is_complete
    # an odd step count still has no origin block
    assert cli.main(argv[:-1] + [str(steps + 1)]) == 2
    assert "even number of steps" in capsys.readouterr().err


def test_effective_coin_rejects_odd_steps():
    result = run_cli("effective-coin", "--theta", "0", "--omega", "1/8", "--steps", "3")
    assert result.returncode == 2
    result = run_cli("effective-coin", "--theta", "0", "--omega", "1e400", "--steps", "2")
    assert result.returncode == 2
    assert result.stderr.startswith("rampwalk: error:")
    assert len(result.stderr.splitlines()) == 1


def test_huge_decimal_exponents_are_refused_quickly(tmp_path, capsys):
    candidates = tmp_path / "candidates.json"
    candidates.write_text(
        '{"candidates": [{"steps": 2, "theta": 0.0, "omega": 0.39269908169872414,'
        ' "omega_pi": "1e10000000", "complete": false, "residual": 0.0}]}',
        encoding="utf-8",
    )
    # a catalog entry's huge exponent is parse_catalog's case, in test_search
    for argv in (
        ["walk", "--theta", "0", "--omega", "1e10000000", "--steps", "2", "--json-out", "-"],
        ["verify-table", str(candidates)],
    ):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2, err
        assert elapsed < 1.0
        assert err.startswith("rampwalk: error:")
        assert len(err.splitlines()) == 1
    argv = ["walk", "--theta", "0", "--omega", "1e400", "--steps", "2", "--json-out", "-"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "rampwalk: error: angle '1e400' is not a finite number\n"


def test_effective_coin_completeness_is_the_classify_verdict(capsys):
    catalog = load_reference_catalog()
    assert len(catalog) == 40
    for entry in catalog:
        argv = ["effective-coin", f"--theta={entry.theta_pi}", f"--omega={entry.omega_pi}",
                "--steps", str(entry.steps)]
        assert cli.main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        schedule = WalkSchedule(
            float(entry.theta_pi) * math.pi, float(entry.omega_pi) * math.pi, entry.steps
        )
        assert doc["complete"] is classify(schedule).is_complete is entry.complete
