"""Byte-for-byte regression of the heralded-source output.

The fixtures in ``tests/golden`` are the stdout of the truncated-Fock
simulator that the budget evaluator replaced, so these tests pin the new
evaluator to the old output at every cutoff.
"""

from pathlib import Path

import pytest

from noonlike.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "experiment_r0.3.csv": ["experiment", "--r", "0.3"],
    "experiment_r1.csv": ["experiment", "--r", "1"],
    "experiment_r2.csv": ["experiment", "--r", "2"],
    "experiment_r1_cutoff5.csv": ["experiment", "--r", "1", "--cutoff", "5"],
    "experiment_r1_cutoff30.csv": ["experiment", "--r", "1", "--cutoff", "30"],
    "figure6.csv": ["figure", "--id", "6"],
    "figure6.json": ["figure", "--id", "6", "--format", "json"],
}


@pytest.mark.parametrize("fixture", sorted(CASES))
def test_output_matches_fixture(fixture, capsys, monkeypatch):
    monkeypatch.delenv("NOONLIKE_OUTPUT_DIR", raising=False)
    assert main(CASES[fixture]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / fixture).read_bytes()
