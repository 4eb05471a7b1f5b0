"""Every `quaddyn ...` line of the README's CLI block runs and exits 0."""

import shlex
from pathlib import Path

import pytest

from quaddyn.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_examples() -> list:
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.startswith("quaddyn ")]


def test_the_cli_block_has_examples():
    assert len(cli_examples()) >= 10


@pytest.mark.parametrize("argv", cli_examples(), ids=" ".join)
def test_readme_cli_example_exits_0(capsys, argv):
    assert main(argv[1:]) == 0
    assert capsys.readouterr().err == ""
