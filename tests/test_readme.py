"""The README's library quick start runs as written and gives the values its comments state."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def quick_start_blocks():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)


def test_library_quick_start_states_what_it_computes():
    from rampwalk import verify_table

    checks = [
        lambda ns: (
            ns["report"].origin_probability == pytest.approx(1.0, abs=1e-12)
            and ns["report"].is_revival
            and ns["report"].is_complete
            and ns["report"].distributions.at_site(0)[7] == pytest.approx(1.0, abs=1e-12)
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
