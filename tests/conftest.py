import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import noonlike

SRC = Path(noonlike.__file__).resolve().parent.parent

# The child lists sys.modules before it imports json itself, so that a
# command that loads json shows it and one that does not leaves it out.
_CLI_CHILD = """
import contextlib, io, sys
import noonlike.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = noonlike.cli.main(sys.argv[1:])
modules = sorted(sys.modules)
import json
print(json.dumps({"code": code, "modules": modules}))
"""


def _run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports noonlike from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("NOONLIKE_OUTPUT_DIR", None)  # would send figure output to files
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.fixture(scope="session")
def fresh_python():
    """Run Python source in a fresh interpreter; returns the CompletedProcess."""
    return _run_fresh


@pytest.fixture(scope="session")
def cli_in_fresh_interpreter():
    """Run ``noonlike.cli.main(argv)`` in a fresh interpreter: (exit code, modules loaded).

    Each distinct argv runs once per test run; later calls reuse its result.
    """
    results: dict[tuple[str, ...], tuple[int, frozenset[str]]] = {}

    def run(argv: list[str]) -> tuple[int, frozenset[str]]:
        key = tuple(argv)
        if key not in results:
            proc = _run_fresh(_CLI_CHILD, *argv)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout)
            results[key] = result["code"], frozenset(result["modules"])
        return results[key]

    return run


@pytest.fixture(scope="session")
def reference_config_text():
    """Text of the shipped reference circuit config, to edit a line of."""
    return resources.files("noonlike").joinpath("data/reference_circuit.cfg").read_text()
