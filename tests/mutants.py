"""Mutation probe: does the test suite notice a wrong number in the package?

    python tests/mutants.py --seed 1 --sample 60 families qcrb

Each mutant is one swap at one site of a module of ``src/noonlike``: ``+``
and ``-``, ``*`` and ``/``, ``<`` and ``<=``, ``>`` and ``>=``, an int
constant moved by 1, or a float constant moved by 1e-9 relative.  The sites
are enumerated in a fixed order (module, line, node, kind) and sampled by
seed, so one seed names the same mutants on any machine and at any commit
whose modules have the same sites.

The probe works on a copy of ``src/``, ``tests/`` and ``pyproject.toml`` in
a temporary directory and never writes to the working tree.  A mutant is
written back through ``ast.unparse``, and so are the probed modules before
the copied suite first runs unmutated; the tests that fail there are
deselected, so that only a new failure kills a mutant.  Then, for each
mutant, it writes the mutated module into the copy, runs the suite with
``-x`` and restores the module.  A mutant is killed when the run fails or
exceeds ``TIMEOUT`` seconds.  It prints one line per mutant and the count
killed; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "noonlike"
TIMEOUT = 300.0  # seconds; an unmutated run takes about 20
SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
}


def sites(module: str, source: str) -> list[tuple[str, int, int, str]]:
    """Every mutable site of ``module``: (module, line, node index, kind), in source order.

    The node index counts ``ast.walk`` of the module's ``source``, which tells
    apart the nodes that start at one column, such as the two sums of
    ``a + b + c``.
    """
    tree = ast.parse(source)
    found = []
    for index, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            found.append((module, node.lineno, index, "binop"))
        elif isinstance(node, ast.Compare):
            found += [(module, node.lineno, index, f"compare{k}")
                      for k, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            found.append((module, node.lineno, index, "constant"))
    return sorted(found)


def mutate(source: str, site: tuple[str, int, int, str]) -> tuple[str, str]:
    """(mutated source, what changed) for one site of ``source``, through ``ast.unparse``."""
    _, _, index, kind = site
    tree = ast.parse(source)
    node = next(n for k, n in enumerate(ast.walk(tree)) if k == index)
    if kind == "constant":
        before = node.value
        node.value = before + 1 if type(before) is int else before * (1.0 + 1e-9) or 1e-9
        return ast.unparse(tree), f"{before!r} -> {node.value!r}"
    if kind == "binop":
        old = type(node.op)
        node.op = SWAPS[old]()
    else:
        k = int(kind.removeprefix("compare"))
        old = type(node.ops[k])
        node.ops[k] = SWAPS[old]()
    return ast.unparse(tree), f"{old.__name__} -> {SWAPS[old].__name__}"


def run_suite(copy: Path, deselect: list[str]) -> tuple[bool, list[str]]:
    """(passed, ids of failed tests) of the copied suite, stopping at the first failure."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    args = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-rf", "tests"]
    args += [f"--deselect={test}" for test in deselect]
    try:
        proc = subprocess.run(args, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False, []
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    return proc.returncode == 0, failed


def baseline_failures(copy: Path) -> list[str]:
    """Ids of the tests that fail on the unmutated copy, found one ``-x`` run at a time."""
    known: list[str] = []
    while True:
        passed, failed = run_suite(copy, known)
        if passed:
            return known
        if not failed:
            sys.exit("the unmutated suite fails without a failed test (a collection error?)")
        known += failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", help="modules of the package, such as qcrb")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--sample", type=int, default=30, help="mutants to run; 0 runs every site")
    args = parser.parse_args(argv)

    # read once: the working tree may change while the probe runs
    sources = {m: (REPO / PACKAGE / f"{m}.py").read_text() for m in args.modules}
    every = [site for module in args.modules for site in sites(module, sources[module])]
    chosen = every
    if 0 < args.sample < len(every):
        chosen = random.Random(args.seed).sample(every, args.sample)
    print(f"{len(every)} sites in {', '.join(args.modules)}; running {len(chosen)} "
          f"(seed {args.seed})", flush=True)
    with tempfile.TemporaryDirectory(prefix="noonlike-mutants-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(REPO / "src", copy / "src", ignore=ignore)
        shutil.copytree(REPO / "tests", copy / "tests", ignore=ignore)
        shutil.copy(REPO / "pyproject.toml", copy)  # a test reads the declared dependencies
        unparsed = {}  # the mutants are unparsed, so the baseline is too
        for module in args.modules:
            unparsed[module] = ast.unparse(ast.parse(sources[module]))
            (copy / PACKAGE / f"{module}.py").write_text(unparsed[module])
        known = baseline_failures(copy)
        print(f"deselected, failing unmutated: {known}", flush=True)
        killed = 0
        for site in sorted(chosen):
            path = copy / PACKAGE / f"{site[0]}.py"
            source, change = mutate(sources[site[0]], site)
            path.write_text(source)
            start = time.perf_counter()
            try:
                passed, _ = run_suite(copy, known)
            finally:
                path.write_text(unparsed[site[0]])
            killed += not passed
            print(f"{'survived' if passed else 'killed  '} {site[0]}.py:{site[1]}  {change}  "
                  f"({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"killed {killed} of {len(chosen)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
