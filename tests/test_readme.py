"""Every ``commqual`` command line in the README's code blocks parses with
the CLI's own parser.  Nothing is run."""

import re
import shlex
from pathlib import Path

import pytest

from commqual.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line.strip() for line in lines if line.strip().startswith("commqual ")]


def test_readme_shows_every_subcommand():
    shown = {shlex.split(command)[1] for command in readme_commands()}
    assert shown == {"compare", "quality", "generate", "bench"}


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_parses(command):
    args = build_parser().parse_args(shlex.split(command)[1:])
    assert args.command == shlex.split(command)[1]
