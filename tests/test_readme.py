"""The README's command lines are ones the parser accepts.

Only the quick start is run end to end, in CI; these checks cover every
``aadkit`` line of every ``sh`` block, and the list of subcommands the
prose names.
"""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from aadkit import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _command_lines():
    """Every ``aadkit ...`` line of the README's ``sh`` blocks, with its
    backslash continuations joined."""
    lines = []
    for block in re.findall(r"^```sh\n(.*?)^```$", README, re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("aadkit "):
                lines.append(line)
    return lines


def _subcommands():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return set(sub.choices)


def test_readme_shows_every_subcommand():
    lines = _command_lines()
    assert {shlex.split(line)[1] for line in lines} == _subcommands()


@pytest.mark.parametrize("line", _command_lines())
def test_command_line_parses(line, capsys):
    try:
        cli.build_parser().parse_args(shlex.split(line)[1:])
    except SystemExit:
        pytest.fail(f"{line!r}: {capsys.readouterr().err}")


def test_subcommand_sentence_names_the_parsers_subcommands():
    [sentence] = re.findall(r"^Subcommands: (.*?)\.\s", README, re.S | re.M)
    assert set(re.findall(r"`([^`]+)`", sentence)) == _subcommands()
