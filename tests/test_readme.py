"""Every ``commqual`` command line in the README's code blocks parses with
the CLI's own parser; none is run.  The README's Python blocks run, in
order, as one program."""

import math
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


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # the example reads graph.edges from the working directory: here a
    # 100-node ring, whose node ids are the example partitions' ids
    ring = "".join(f"{v} {(v + 1) % 100}\n" for v in range(100))
    (tmp_path / "graph.edges").write_text(ring)
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    printed = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [len(values) for values in printed] == [3, 3]
    assert all(math.isfinite(float(v)) for values in printed for v in values)
