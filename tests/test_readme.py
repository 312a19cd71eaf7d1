"""The README's Python examples run as written, so an API change
cannot leave them stale unseen."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block-{n}" for n in range(1, len(BLOCKS) + 1)])
def test_readme_python_block_runs(source, capsys):
    exec(compile(source, str(README), "exec"), {"__name__": "__readme__"})
    assert capsys.readouterr().out
