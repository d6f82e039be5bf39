"""The README's library examples run as written against the package."""

import re
import textwrap
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour_blocks():
    """The fenced python blocks of the "Library quick tour" section, each
    dedented (the SppProblem example sits inside a list item)."""
    section = README.read_text().split("\n## Library quick tour\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^( *)```python\n(.*?)^\1```$", section, re.M | re.S)
    return [textwrap.dedent(code) for _, code in blocks]


BLOCKS = quick_tour_blocks()


def test_the_quick_tour_has_its_two_examples():
    # the tour itself and the SppProblem example
    assert len(BLOCKS) == 2


@pytest.mark.parametrize("code", BLOCKS)
def test_quick_tour_block_runs(code):
    exec(compile(code, str(README), "exec"), {})
