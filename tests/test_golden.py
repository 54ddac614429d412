"""Byte-for-byte regression of the command-line output.

Every fixture in ``tests/golden`` is the stdout of the command next to it,
recorded before the code it pins was last rewritten:

* the ``experiment`` and figure-6 fixtures come from the truncated-Fock
  simulator that the photon-budget evaluator replaced;
* the ``qcrb``, ``compare``, ``sweep-escs``, ``unbalanced`` and figure 2-4
  fixtures come from the code before the balanced and unbalanced weight
  helpers were folded into ``qcrb.resolve_weights``.
"""

from pathlib import Path

import pytest

from noonlike.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "experiment_r0.3.csv": ["experiment", "--r", "0.3"],
    "experiment_r1.csv": ["experiment", "--r", "1"],
    "experiment_r2.csv": ["experiment", "--r", "2"],
    "figure6.csv": ["figure", "--id", "6"],
    "figure6.json": ["figure", "--id", "6", "--format", "json"],
    "qcrb_noon.csv": ["qcrb", "--family", "noon", "--d", "5", "--n", "2"],
    "qcrb_ecs.csv": ["qcrb", "--family", "ecs", "--d", "5", "--alpha", "1.5"],
    "qcrb_escs.csv": [
        "qcrb", "--family", "escs", "--d", "5", "--alpha", "1", "--r-prime", "0.5",
    ],
    "qcrb_esvs.csv": ["qcrb", "--family", "esvs", "--d", "5", "--r", "2"],
    "qcrb_esvs_b2.csv": ["qcrb", "--family", "esvs", "--d", "5", "--r", "2", "--b2", "0.05"],
    "qcrb_esvs_optimized.csv": [
        "qcrb", "--family", "esvs", "--d", "5", "--r", "2", "--optimized-b",
    ],
    "compare.csv": ["compare", "--d", "5", "--n-bar", "4"],
    "sweep_escs.csv": ["sweep-escs", "--d", "5", "--n-bar", "2"],
    "unbalanced_d5.csv": ["unbalanced", "--d", "5"],
    "unbalanced_d1_crossover.csv": [
        "unbalanced", "--d", "1", "--r-max", "6", "--steps", "120",
    ],
    "figure2.csv": ["figure", "--id", "2"],
    "figure2.json": ["figure", "--id", "2", "--format", "json"],
    "figure3.csv": ["figure", "--id", "3"],
    "figure3.json": ["figure", "--id", "3", "--format", "json"],
    "figure4.csv": ["figure", "--id", "4"],
    "figure4.json": ["figure", "--id", "4", "--format", "json"],
}

STDERR = {"unbalanced_d1_crossover.csv": "# crossover n_bar = 14.5268852304\n"}


@pytest.mark.parametrize("fixture", sorted(CASES))
def test_output_matches_fixture(fixture, capsys):
    assert main(CASES[fixture]) == 0
    captured = capsys.readouterr()
    assert captured.out.encode() == (GOLDEN / fixture).read_bytes()
    assert captured.err == STDERR.get(fixture, "")


def test_every_fixture_has_a_case():
    # an orphaned fixture would pin nothing, and a case without one would error
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(CASES)
