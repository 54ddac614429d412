"""Quantum Cramer-Rao bounds for multi-mode NOON-like probes.

The package models entangled probes in which one of d+1 modes carries a
single-mode constituent state (number, coherent, squeezed) and the rest are
vacuum, evaluates the multi-phase estimation bound in closed form and via a
matrix oracle, compares the paper's four probe families (named by the keys
of ``FAMILIES``) at matched budget, optimizes balanced against unbalanced
weighting, and simulates a heralded linear-optical circuit that generates a
two-mode probe of this class, exactly on its heralded photon budget.

The family solver, the circuit simulator and the numeric oracles (``noonlike.oracles``,
which imports numpy from the ``test`` extra) load on first use, so no command loads numpy.
"""

import importlib

from .errors import (
    BracketFailure,
    ConstraintInfeasible,
    DegenerateOverlap,
    DenominatorNonPositive,
    EmptyPostSelection,
    FOutOfRange,
    ModeOutOfRange,
    NonFiniteResult,
    NonPositivePhotonNumber,
    NoonlikeError,
    OrderingViolation,
    ParameterOutOfRange,
    SingularMatrix,
    TruncationInsufficient,
    UsageError,
    ZeroPhotonState,
)
from .qcrb import (
    Balanced,
    FixedB,
    OptimizedB,
    QcrbReport,
    mean_total_photons,
    noon_qcrb,
    qcrb_closed_form,
    qcrb_from_f,
    resolve_weights,
)
from .states import (
    FAMILIES,
    Coherent,
    Fock,
    FockSuperposition,
    Moments,
    SingleModeState,
    SqueezedCoherent,
    SqueezedVacuum,
    moments,
)

__version__ = "0.1.0"


# name -> its submodule, imported on first use; a submodule's name gives the submodule
_LAZY = {"circuit": "circuit", "families": "families"} | dict.fromkeys(
    ("SweepCurve", "balanced_vs_unbalanced_sweep", "compare_families_at_nbar",
     "compare_sweeps_at_common_nbar", "escs_ratio_bracket_check", "escs_sweep_r_prime",
     "matched_report", "solve_param_for_nbar"), "families") | dict.fromkeys(
    ("fock_amplitudes", "moments_from_amplitudes", "qfi_matrix", "qcrb_trace_inverse"), "oracles")


def __getattr__(name: str):
    # PEP 562: ``noonlike.circuit`` and ``from noonlike import matched_report``
    # work without importing the submodule first
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    return getattr(module, name, module)
