"""Every command of the README's CLI block runs, and its output comments hold."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from littlewood import cli
from littlewood.bott import SPIN_FAMILIES, SPINOR_FAMILIES
from littlewood.complexes import CASE_KINDS, LITTLEWOOD_FAMILIES

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading):
    return README.split(f"\n## {heading}\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]


CLI_BLOCK = _block("CLI")
LINES = [line for line in CLI_BLOCK.splitlines() if line.startswith("littlewood ")]

# A comment made of digits, partition brackets and polynomial signs is the
# first line the command prints, word for word.
LITERAL = re.compile(r"[\d\[\],+\-T^ ]+")
WEIGHT = re.compile(r"(?:eps|fund):[A-H]\d+:[-\d,/]+")


def _commands():
    for line in LINES:
        command, _, comment = line.partition("#")
        command = command.strip()
        flags = re.findall(r"\[(--[\w-]+)\]", command)
        plain = shlex.split(re.sub(r"\s*\[--[\w-]+\]", "", command))[1:]
        yield plain, comment.strip()
        if flags:
            yield plain + flags, comment.strip()


COMMANDS = list(_commands())


def test_the_block_has_the_literal_outputs():
    literal = [comment for _, comment in COMMANDS if LITERAL.fullmatch(comment)]
    assert literal == ["7", "1", "[2,1,1]", "1 + 10T + 28T^2 + 28T^3 + 10T^4 + T^5"]
    assert any("--oracle" in argv for argv, _ in COMMANDS)


@pytest.mark.parametrize("argv,comment", COMMANDS, ids=[" ".join(argv) for argv, _ in COMMANDS])
def test_readme_command(capsys, argv, comment):
    assert cli.run(argv) == 0
    out = capsys.readouterr().out
    if LITERAL.fullmatch(comment):
        assert out.splitlines()[0] == comment
    for weight in WEIGHT.findall(comment):
        assert re.search(rf"{re.escape(weight)}(?![\d,])", out), weight


def test_every_subcommand_has_a_readme_line():
    # a subcommand added to cli.SUBCOMMANDS needs a `littlewood <cmd>` line
    # in the CLI or the acceptance block, so the docs keep up with the table
    shown = {line.split()[1] for line in (CLI_BLOCK + _block("Acceptance suite")).splitlines() if line.startswith("littlewood ")}
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(set(subparsers.choices) - shown) == []


def test_the_listed_group_cases_are_the_case_kinds():
    # README names the kinds parse_case accepts, classical ones with their rank
    listed = " ".join(README.split()).split("Group cases are ", 1)[1].split(".", 1)[0]
    assert tuple(name.removesuffix("(n)") for name in re.findall(r"`([^`]+)`", listed)) == CASE_KINDS


def test_the_family_choices_are_the_tables_families():
    # --help prints choices in this order: {B,C,D}, {B,Dplus,Dminus,Dfull}, {B,Dplus,Dminus}
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))

    def choices(command, dest):
        return tuple(next(a for a in subparsers.choices[command]._actions if a.dest == dest).choices)

    assert LITTLEWOOD_FAMILIES == ("B", "C", "D") and SPINOR_FAMILIES == (*SPIN_FAMILIES, "Dfull") == ("B", "Dplus", "Dminus", "Dfull")
    for command in ("lwood", "verify-lwood"):
        assert choices(command, "family") == LITTLEWOOD_FAMILIES
    for command in ("spinor", "verify-spinor"):
        assert choices(command, "family") == SPINOR_FAMILIES
    assert choices("bott", "spin") == SPIN_FAMILIES
