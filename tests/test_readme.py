"""README's python blocks run as written.

Each ```python block of README.md is executed in a fresh namespace, and
every `print(...)  # expected` line must print what its comment says, so
the documented library API cannot drift from the code.
"""

import os
import re

import pytest

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def python_blocks():
    with open(README, encoding="utf-8") as fh:
        return re.findall(r"^```python\n(.*?)^```$", fh.read(), re.M | re.S)


def test_readme_has_python_blocks():
    assert len(python_blocks()) >= 2


@pytest.mark.parametrize("number", range(len(python_blocks())))
def test_readme_python_block_runs(number, capsys):
    block = python_blocks()[number]
    exec(compile(block, f"README.md python block {number}", "exec"), {})
    expected = [m.group(1).strip()
                for m in re.finditer(r"^print\(.*#(.*)$", block, re.M)]
    assert capsys.readouterr().out.splitlines() == expected
