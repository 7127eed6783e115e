"""Every Python code block of README.md runs as written, its config
examples load, README names every package of the test extra, and its CLI
section names exactly the parser's flags."""

import argparse
import json
import re
from pathlib import Path

import pytest

from marketfacts.agents import FWParams
from marketfacts.cli import build_parser
from marketfacts.sim import config_from_dict, cross_herding_defaults

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.DOTALL | re.MULTILINE)
JSON_BLOCKS = re.findall(r"^```json\n(.*?)^```", TEXT, flags=re.DOTALL | re.MULTILINE)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(block):
    exec(compile(block, str(README), "exec"), {"__name__": "__readme__"})


def test_readme_config_examples_load():
    config, fw_section = JSON_BLOCKS
    assert config_from_dict(json.loads(config)) == cross_herding_defaults(seed=0, steps=100_000)
    # the fw example is a section, so it loads inside a two-agent config
    fw = json.loads("{" + fw_section + "}")
    assert config_from_dict({"model": "fw_two_agent", "steps": 3, **fw}).fw == FWParams(**fw["fw"])


def test_readme_names_every_test_extra_package():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with open(README.parent / "pyproject.toml", "rb") as fh:
        extra = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
    sentence = re.search(r"The test extra adds ([^.]*)\.", TEXT)
    assert sentence is not None
    assert [name for name in extra if name not in sentence.group(1)] == []


def test_readme_cli_section_names_exactly_the_parsers_flags():
    section = re.search(r"^## Command-line interface\n(.*?)^## ", TEXT,
                        flags=re.DOTALL | re.MULTILINE)
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section.group(1)))
    subcommands = next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    flags = {flag for parser in subcommands.values() for action in parser._actions
             for flag in action.option_strings if flag.startswith("--")}
    assert named == flags - {"--help"}
