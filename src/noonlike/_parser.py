"""The argparse pieces of ``cli``, loaded only for help, a usage error, or a form
only argparse reads: an abbreviated flag, ``--flag=value``, a negative value."""

from __future__ import annotations

import argparse
import os
import sys

from .errors import UsageError


class _Formatter(argparse.HelpFormatter):
    """argparse's help layout, with the width found as ``shutil.get_terminal_size`` finds it.

    argparse imports ``shutil``, and with it ``bz2``, ``lzma`` and
    ``fnmatch``, only to read that width, once per formatter.
    """

    def __init__(self, prog, indent_increment=2, max_help_position=24, width=None):
        if width is None:
            try:
                width = int(os.environ["COLUMNS"])
            except (KeyError, ValueError):
                width = 0
            if width <= 0:
                try:
                    width = os.get_terminal_size(sys.__stdout__.fileno()).columns
                except (AttributeError, ValueError, OSError):  # no stdout, or no terminal
                    width = 0
                width = width or 80  # a terminal may report 0 columns
            width -= 2
        super().__init__(prog, indent_increment, max_help_position, width)


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(formatter_class=_Formatter, **kwargs)

    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


def _attach_negative_values(argv: Sequence[str]) -> list[str]:
    """``--flag -1e5`` as ``--flag=-1e5``, for every value that float() reads.

    argparse takes a separate token that starts with "-" for an option unless
    it is a plain negative number, so ``-1e5`` or ``-inf`` would lose its flag.
    """
    out: list[str] = []
    for token in argv:
        if token.startswith("-") and out and out[-1].startswith("--") and "=" not in out[-1]:
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out
