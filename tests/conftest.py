import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import noonlike

SRC = Path(noonlike.__file__).resolve().parent.parent

# The child lists sys.modules before it imports json itself, so that a
# command that loads json shows it and one that does not leaves it out.  It
# swaps the streams itself, as contextlib would load functools and collections.
_CLI_CHILD = """
import io, sys
import noonlike.cli
sys.stdout = sys.stderr = io.StringIO()
code = noonlike.cli.main(sys.argv[1:])
modules = sorted(sys.modules)
sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
import json
print(json.dumps({"code": code, "modules": modules}))
"""


def _run_fresh(code: str, *args: str, site: bool = True) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports noonlike from this checkout.

    ``site=False`` runs it with ``-S``, without ``site`` and its ``.pth`` files.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    flags = [] if site else ["-S"]
    return subprocess.run(
        [sys.executable, *flags, "-c", code, *args], env=env, capture_output=True, text=True,
        timeout=120,
    )


@pytest.fixture(scope="session")
def fresh_python():
    """Run Python source in a fresh interpreter; returns the CompletedProcess."""
    return _run_fresh


@pytest.fixture(scope="session")
def cli_in_fresh_interpreter():
    """Run ``noonlike.cli.main(argv)`` in a fresh interpreter: (exit code, modules loaded).

    ``site=False`` lists only the modules that the command loads itself, not
    those that ``.pth`` files import.  Each distinct (argv, site) runs once
    per test run; later calls reuse its result.
    """
    results: dict[tuple, tuple[int, frozenset[str]]] = {}

    def run(argv: list[str], site: bool = True) -> tuple[int, frozenset[str]]:
        key = (site, *argv)
        if key not in results:
            proc = _run_fresh(_CLI_CHILD, *argv, site=site)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout)
            results[key] = result["code"], frozenset(result["modules"])
        return results[key]

    return run
