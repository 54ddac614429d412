"""The exact-argv path of ``cli.parse_args`` against argparse.

``cli._exact`` parses an argv made of a command and its full flags without
argparse.  For every argv it either declines, and argparse parses it, or
gives the (command, params) that argparse gives, with the params in the same
order, so ``parse_args`` returns the same params or raises the same usage
error with it as without it.  The argvs are the golden commands, the start-up
commands and the fuzzed command lines of the other test modules.
"""

import pytest
from test_golden import CASES
from test_startup import CLOSED_FORM, HERALDED

from noonlike import cli
from noonlike.errors import UsageError

EXACT = sorted(CASES.values()) + CLOSED_FORM + HERALDED


def _outcome(argv):
    """(command, [(option, type, value), ...]) from ``cli.parse_args``, or its UsageError message."""
    try:
        command, params = cli.parse_args(argv)
    except UsageError as exc:
        return f"usage error: {exc}"
    return command, [(key, type(value), value) for key, value in params.items()]


def _agrees(argv) -> bool:
    """Whether the exact path takes ``argv``; AssertionError if argparse parses it otherwise."""
    if cli._exact(argv) is None:
        return False
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_exact", lambda argv: None)  # every argv through argparse
        through_argparse = _outcome(argv)
    assert _outcome(argv) == through_argparse, argv
    return True


@pytest.mark.parametrize("argv", EXACT, ids=" ".join)
def test_exact_path_takes_and_agrees(argv):
    assert _agrees(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["qcrb", "--fam", "noon", "--d", "5", "--n", "2"],  # an abbreviation
        ["qcrb", "--family", "noon", "--d=5", "--n", "2"],
        ["qcrb", "--family", "esvs", "--d", "5", "--r", "2", "--b2", "-1"],  # a negative value
        ["qcrb", "--family", "noon", "--d", "5", "--d", "6", "--n", "2"],  # a repeated flag
        ["qcrb", "-h"],
        ["--d", "5", "qcrb", "--family", "noon", "--n", "2"],  # a flag before the command
        ["qcrb", "--family", "esvs", "--d", "5", "--r", "2", "--optimized-b", "--b2", "1"],
        ["qcrb", "--family", "noon", "--d", "5", "--n"],  # no value
        ["qcrb", "--family", "noon", "--n", "2"],  # no required --d
        ["figure", "--id", "5"],  # not a choice
        ["figure", "--id", "2.0"],  # not an int
        ["qcrb", "--family", "NOON", "--d", "5", "--n", "2"],
        ["unbalanced", "--d", "1", "--steps", "3", "extra"],
        [],
    ],
    ids=lambda argv: " ".join(argv) or "no argv",
)
def test_exact_path_declines(argv):
    assert cli._exact(argv) is None


def test_declined_forms_parse_as_their_exact_argv():
    exact = cli.parse_args(["qcrb", "--family", "noon", "--d", "5", "--n", "2"])
    assert cli.parse_args(["qcrb", "--fam", "noon", "--d=5", "--n", "2"]) == exact
    with pytest.raises(UsageError, match=r"^--b2 must be positive, got -1.0$"):
        cli.parse_args(["qcrb", "--family", "esvs", "--d", "5", "--r", "2", "--b2", "-1"])


def test_fuzzed_argvs_agree():
    hypothesis = pytest.importorskip("hypothesis")
    from test_cli_fuzz import argvs

    taken = []

    @hypothesis.settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @hypothesis.given(argv=argvs())
    def check(argv):
        taken.append(_agrees(argv))

    check()
    assert any(taken) and not all(taken)  # both paths ran
