"""The README's Python example runs as written; its CLI examples parse."""

import re
import shlex
from pathlib import Path

from isingring.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(monkeypatch, tmp_path):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert blocks, "README has no Python example"
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_cli_examples_parse():
    """Every ``isingring ...`` line of the README's sh blocks is accepted by
    the CLI parser.  Only parsed: the free-angle N = 5 sweep is far too slow
    to run here."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL)
    commands = [
        shlex.split(line)[1:]
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("isingring ")
    ]
    assert {argv[0] for argv in commands} == {
        "ground-state", "measures", "sweep", "fit"
    }
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
