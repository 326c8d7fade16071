"""Every fenced python block of README.md runs, and its comments that claim
a number of scalar evaluations hold."""

import re
from pathlib import Path

import pytest

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
# `name = ...  # N scalar evaluations`
CLAIM = re.compile(r"^(\w+) = .*#\s*(\d+) scalar evaluations$", re.M)


def test_blocks_found():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=lambda block: block.split("\n", 1)[0])
def test_block_runs(block):
    namespace = {"__name__": "__main__"}
    exec(compile(block, "README.md", "exec"), namespace)
    for name, count in CLAIM.findall(block):
        assert namespace[name].total_scalar_evals == int(count), name


def test_quick_start_claims_its_evaluation_counts():
    claims = [CLAIM.findall(block) for block in BLOCKS]
    assert [("fast", "40"), ("slow", "100")] in claims
