"""Ceilings on work counts that do not depend on the machine.

These gates count operations, never seconds, so they hold on any hardware:
a change that makes a layer do more work fails here even where a timing
benchmark could not tell it apart from noise.
"""

import pytest

from noonlike import Coherent, Fock, SqueezedVacuum, families
from noonlike.circuit import budget_amplitudes, default_circuit_config, mode_matrix, pump_amplitude
from noonlike.families import Family, FamilyTarget, solve_param_for_nbar

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


@pytest.mark.parametrize("family, extras", [(Family.ECS, None), (Family.ESCS, 1.0), (Family.ESVS, None)])
@pytest.mark.parametrize("d, n_bar", [(1, 4.0), (5, 4.0), (5, 20.0)])
def test_solve_nbar_evaluations(monkeypatch, family, extras, d, n_bar):
    calls = 0
    original = families.mean_total_photons

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(families, "mean_total_photons", counted)
    solve_param_for_nbar(FamilyTarget(family, d, n_bar, extras))
    assert 0 < calls <= MAX_NBAR_EVALS


def test_qcrb_command_modules(cli_in_fresh_interpreter):
    code, modules = cli_in_fresh_interpreter(["qcrb", "--family", "esvs", "--d", "5", "--r", "2"])
    assert code == 0
    assert {m for m in modules if m.startswith("noonlike.")} <= QCRB_MODULES
