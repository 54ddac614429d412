"""Gates on work counts that do not depend on the machine.

These gates count operations, never seconds, so they hold on any hardware:
a change that makes a layer do more work fails here even where a timing
benchmark could not tell it apart from noise.
"""

import pytest

from noonlike import Coherent, Fock, SqueezedVacuum, cli, families
from noonlike.circuit import (
    budget_amplitudes,
    default_circuit_config,
    experiment_qcrb_comparison,
    mode_matrix,
    pump_amplitude,
)
from noonlike.families import Family, solve_param_for_nbar

MAX_SECTORS = 56
MAX_NBAR_EVALS = 51
QCRB_MODULES = {"noonlike.errors", "noonlike.states", "noonlike.qcrb", "noonlike.families", "noonlike.cli"}


def test_reference_circuit_sectors():
    cfg = default_circuit_config()
    states = [Fock(0)] * cfg.mode_count
    states[cfg.coherent_mode] = Coherent(pump_amplitude(1.0))
    states[cfg.squeezed_mode] = SqueezedVacuum(1.0)
    u, phase = mode_matrix(cfg.elements, cfg.mode_count)
    occs, amps = budget_amplitudes(states, u, cfg.herald_count + cfg.max_output_photons, phase)
    assert len(occs) == len(amps) <= MAX_SECTORS


@pytest.mark.parametrize("family, r_prime", [(Family.ECS, None), (Family.ESCS, 1.0), (Family.ESVS, None)])
@pytest.mark.parametrize("d, n_bar", [(1, 4.0), (5, 4.0), (5, 20.0)])
def test_solve_nbar_evaluations(monkeypatch, family, r_prime, d, n_bar):
    calls = 0
    original = families.mean_total_photons

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(families, "mean_total_photons", counted)
    solve_param_for_nbar(family, d, n_bar, r_prime)
    assert 0 < calls <= MAX_NBAR_EVALS


@pytest.fixture
def solves(monkeypatch):
    """One-element list counting the calls of ``families.solve_param_for_nbar``.

    Every matched budget in the package is solved through ``families``, so
    the count sees the calls of ``circuit`` and ``cli`` too.
    """
    count = [0]
    original = families.solve_param_for_nbar

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(families, "solve_param_for_nbar", counted)
    return count


def test_compare_solves_once_per_family(solves):
    families.compare_families_at_nbar(5, 4.0)
    assert solves == [4]


@pytest.mark.parametrize("grid", [[0.4], [0.4, 0.8, 1.2]])
def test_escs_sweep_solves_once_per_point(solves, grid):
    families.escs_sweep_r_prime(5, 4.0, grid)
    assert solves == [len(grid)]


def test_heralded_comparison_solves_once_per_point(solves):
    experiment_qcrb_comparison([1.0, 1.5, 2.0])
    assert solves == [3]


def test_figure_3_solves_five_per_row(solves, capsys):
    assert cli.main(["figure", "--id", "3", "--steps", "3"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 3
    assert solves == [5 * len(rows)]


def test_qcrb_command_modules(cli_in_fresh_interpreter):
    code, modules = cli_in_fresh_interpreter(["qcrb", "--family", "esvs", "--d", "5", "--r", "2"])
    assert code == 0
    assert {m for m in modules if m.startswith("noonlike.")} <= QCRB_MODULES
