"""The README's library quick start and CLI examples run as written and give what they state."""

import json
import re
import shlex
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def readme_blocks(heading, language):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{language}\n(.*?)```", section, flags=re.DOTALL)


def quick_start_blocks():
    return readme_blocks("Library quick start", "python")


def test_library_quick_start_states_what_it_computes():
    from rampwalk import verify_table

    checks = [
        lambda ns: (
            ns["report"].origin_probability == pytest.approx(1.0, abs=1e-12)
            and ns["report"].is_revival
            and ns["report"].is_complete
            and ns["report"].distributions.at_site(0)[8] == pytest.approx(1.0, abs=1e-12)
            and ns["report"].distributions.tv_from_start().shape == (17,)
            and ns["report"].distributions.tv_from_start()[16] == pytest.approx(0.0, abs=1e-12)
        ),
        lambda ns: ns["schedule"].coins().shape == (16, 2, 2),
        lambda ns: ns["distributions"].at_site(0)[-1] == pytest.approx(0.95125, abs=1e-12),
        lambda ns: len(ns["candidates"]) == 40 and verify_table(ns["candidates"]).ok,
    ]
    blocks = quick_start_blocks()
    assert len(blocks) == len(checks)
    # one namespace, as a reader pasting the blocks in order would have
    namespace = {}
    for number, (block, check) in enumerate(zip(blocks, checks), start=1):
        exec(compile(block, f"README quick start block {number}", "exec"), namespace)
        assert check(namespace), f"block {number}"


def test_cli_examples_run_as_written(monkeypatch, tmp_path, capsys):
    from rampwalk import cli

    block = readme_blocks("CLI", "sh")[0].replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("rampwalk ")]
    assert [argv[0] for argv in commands] == [
        "walk", "search", "verify-table", "noise-sweep", "effective-coin"
    ]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == 0, argv
        stdout = capsys.readouterr().out
    # the last example prints both constructions of the effective coin
    doc = json.loads(stdout)
    assert len(doc["balanced_strings"]) == len(doc["operator_block"]) == 2
    assert doc["max_abs_difference"] <= 1e-10
