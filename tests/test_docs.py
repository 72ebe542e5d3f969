"""The README's "Command line" table lists what the parser accepts."""

import argparse
import re
from pathlib import Path

from omlattice.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_options() -> dict[str, dict[str, bool]]:
    """Options of each subcommand in the README table, mapped to whether they
    are required (an optional one is written in brackets)."""
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        name = re.fullmatch(r"`([a-z-]+)`", cells[0])
        if line.startswith("|") and name:
            table[name.group(1)] = {
                option: not bracket for bracket, option in re.findall(r"`(\[?)(--[a-z-]+)", cells[1])
            }
    return table


def parser_options() -> dict[str, dict[str, bool]]:
    (subparsers,) = (a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction))
    return {
        name: {option: action.required for action in sub._actions
               if not isinstance(action, argparse._HelpAction)
               for option in action.option_strings}
        for name, sub in subparsers.choices.items()
    }


def test_readme_command_line_table_matches_the_parser():
    assert readme_options() == parser_options()
