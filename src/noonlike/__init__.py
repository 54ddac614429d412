"""Quantum Cramer-Rao bounds for multi-mode NOON-like probes.

The package models entangled probes in which one of d+1 modes carries a
single-mode constituent state (number, coherent, squeezed) and the rest are
vacuum, evaluates the multi-phase estimation bound in closed form and via a
matrix oracle, compares the standard probe families at matched photon
budget, optimizes balanced against unbalanced weighting, and simulates a
heralded linear-optical circuit that generates a two-mode probe of this
class, exactly on its heralded photon budget.

The circuit simulator, ``noonlike.circuit``, and numpy load on first use, so
the closed-form bounds start without either.
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
from .families import (
    Family,
    SweepCurve,
    balanced_vs_unbalanced_sweep,
    compare_families_at_nbar,
    compare_sweeps_at_common_nbar,
    escs_ratio_bracket_check,
    escs_sweep_r_prime,
    matched_report,
    solve_param_for_nbar,
)
from .qcrb import (
    Balanced,
    FixedB,
    OptimizedB,
    ProbeSpec,
    QcrbReport,
    QfiMatrix,
    mean_total_photons,
    noon_qcrb,
    qcrb_closed_form,
    qcrb_from_f,
    qcrb_trace_inverse,
    qfi_matrix,
    resolve_weights,
)
from .states import (
    Coherent,
    Fock,
    FockSuperposition,
    FockVector,
    Moments,
    SingleModeState,
    SqueezedCoherent,
    SqueezedVacuum,
    f_factor,
    fock_amplitudes,
    moments,
    moments_from_amplitudes,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # PEP 562: ``noonlike.circuit`` works without importing it first
    if name == "circuit":
        return importlib.import_module(f"{__name__}.circuit")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
