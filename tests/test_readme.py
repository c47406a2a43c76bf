"""README's Python blocks run as written and print what their comments
say: each ``print(...)  # text`` prints the line ``text``, and a block
prints nothing else."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from dcboost import TheoryWarning

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def commented_outputs(block):
    """The comment of each print call in ``block``, in order, or None for
    a print without one."""
    return [line.partition("  # ")[2] or None for line in block.splitlines()
            if line.startswith("print(")]


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=lambda block: block.splitlines()[0])
def test_python_block_prints_its_comments(block):
    out = io.StringIO()
    # the quartic's sigma_g + rho is 0, as the block's comment says; any
    # other warning still fails under the suite's filter
    with contextlib.redirect_stdout(out), pytest.warns(TheoryWarning, match="sigma_g"):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == commented_outputs(block)


def test_commented_outputs():
    block = 'x = 1\nprint(x)  # 1\nprint(x, "a")\n    print(2)  # nested\n'
    assert commented_outputs(block) == ["1", None]
