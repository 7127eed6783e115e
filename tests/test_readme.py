"""Every Python code block of README.md runs as written, and README names
every package of the test extra."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    flags=re.DOTALL | re.MULTILINE)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(block):
    exec(compile(block, str(README), "exec"), {"__name__": "__readme__"})


def test_readme_names_every_test_extra_package():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with open(README.parent / "pyproject.toml", "rb") as fh:
        extra = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
    sentence = re.search(r"The test extra adds ([^.]*)\.", README.read_text(encoding="utf-8"))
    assert sentence is not None
    assert [name for name in extra if name not in sentence.group(1)] == []
