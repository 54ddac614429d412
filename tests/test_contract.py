"""One input contract for the public API, over a fixed table of edge values.

Each case puts one edge value in one parameter of a public callable, with
ordinary values in the others.  The call must return finite values, or
raise a ``NoonlikeError``, or a ``TypeError`` or ``ValueError`` whose
message names the parameter as a word; never an ``OverflowError``, a
``ZeroDivisionError`` or a ``TypeError`` from a comparison inside the
library.  The table is fixed rather than drawn, so the cases do not depend
on which modules pytest collected.
"""

import cmath
import fractions
import numbers
import re

import numpy as np
import pytest

from noonlike.circuit import (
    experiment_qcrb_comparison,
    heralded_success_probability,
    heralded_target_amplitudes,
    pump_amplitude,
    run_experiment,
)
from noonlike.errors import NoonlikeError, ParameterOutOfRange, ZeroPhotonState
from noonlike.families import (
    SweepCurve,
    balanced_vs_unbalanced_sweep,
    compare_families_at_nbar,
    compare_sweeps_at_common_nbar,
    escs_ratio_bracket_check,
    escs_sweep_r_prime,
    matched_report,
    solve_param_for_nbar,
)
from noonlike.oracles import (
    fock_amplitudes,
    moments_from_amplitudes,
    qcrb_trace_inverse,
    qfi_matrix,
)
from noonlike.qcrb import (
    Balanced,
    FixedB,
    mean_total_photons,
    noon_ceiling,
    noon_qcrb,
    qcrb_closed_form,
    qcrb_from_f,
    resolve_weights,
)
from noonlike.states import (
    FAMILIES,
    Coherent,
    Fock,
    FockSuperposition,
    Moments,
    SqueezedCoherent,
    SqueezedVacuum,
    _Frozen,
    constituent,
    moments,
)

EDGES = [
    pytest.param(value, id=label)
    for label, value in [
        ("0.0", 0.0), ("-0.0", -0.0), ("5e-324", 5e-324), ("1e308", 1e308), ("-1e308", -1e308),
        ("inf", float("inf")), ("-inf", float("-inf")), ("nan", float("nan")),
        ("10**400", 10**400), ("-10**400", -(10**400)), ("2**70", 2**70), ("True", True),
        ("np.True_", np.True_), ("np.nan", np.float64("nan")), ("np.int64", np.int64(5)),
        ("str", "1"), ("None", None), ("complex", 1 + 0j), ("-1", -1),
        ("Fraction", fractions.Fraction(1, 3)), ("list", [1.0]),
    ]
]

_MOMENTS = moments(Coherent(1.0))
_CURVE = SweepCurve(((1.0, 2.0, 0.5),))

# case -> (the call with the edge value x, the words a message may name the
# parameter by).  A squeeze factor's own name is also a word where the
# message is the CLI's ("squeeze factor must be positive", printed by
# `figure --id 6 --r-min 0`), or where the constituent state names it: the
# squeeze factor r_prime of the squeezed-coherent family is that state's r.
# A Fock state's n is its photon count, and the NOON ceiling at n_bar is the
# NOON bound at n = n_bar.
CALLS = {
    "Fock-n": (lambda x: Fock(x), ["n", "photon count"]),
    "Coherent-alpha": (lambda x: Coherent(x), ["alpha"]),
    "SqueezedVacuum-r": (lambda x: SqueezedVacuum(x), ["r"]),
    "SqueezedCoherent-alpha": (lambda x: SqueezedCoherent(x, 0.5), ["alpha"]),
    "SqueezedCoherent-r": (lambda x: SqueezedCoherent(1.0, x), ["r"]),
    "FockSuperposition-amps": (lambda x: FockSuperposition((x,)), ["amps", "amplitudes"]),
    "moments-state": (lambda x: moments(x), ["state"]),
    "Moments-mean_n": (lambda x: Moments(x, 4.0, 0.1), ["mean_n"]),
    "Moments-mean_n2": (lambda x: Moments(1.0, x, 0.1), ["mean_n2"]),
    "Moments-vacuum_prob": (lambda x: Moments(1.0, 2.0, x), ["vacuum_prob"]),
    "mean_total_photons-d": (lambda x: mean_total_photons(x, Coherent(1.0)), ["d"]),
    "mean_total_photons-state": (lambda x: mean_total_photons(5, x), ["state"]),
    "resolve_weights-d": (lambda x: resolve_weights(x, _MOMENTS, Balanced()), ["d"]),
    "resolve_weights-m": (lambda x: resolve_weights(5, x, Balanced()), ["m"]),
    "resolve_weights-weighting": (lambda x: resolve_weights(5, _MOMENTS, x), ["weighting"]),
    "qcrb_closed_form-d": (lambda x: qcrb_closed_form(x, Coherent(1.0)), ["d"]),
    "qcrb_closed_form-state": (lambda x: qcrb_closed_form(5, x), ["state"]),
    "qcrb_closed_form-weighting": (
        lambda x: qcrb_closed_form(5, Coherent(1.0), x), ["weighting"]
    ),
    "noon_qcrb-d": (lambda x: noon_qcrb(x, 2.0), ["d"]),
    "noon_qcrb-n": (lambda x: noon_qcrb(5, x), ["n"]),
    "noon_ceiling-d": (lambda x: noon_ceiling(x, 2.0), ["d"]),
    "noon_ceiling-n_bar": (lambda x: noon_ceiling(5, x), ["n_bar", "n"]),
    "qcrb_from_f-d": (lambda x: qcrb_from_f(x, 2.0, 0.1), ["d"]),
    "qcrb_from_f-n_bar": (lambda x: qcrb_from_f(5, x, 0.1), ["n_bar"]),
    "qcrb_from_f-f": (lambda x: qcrb_from_f(5, 2.0, x), ["f"]),
    "FixedB-b2": (lambda x: FixedB(x), ["b2"]),
    "constituent-family": (lambda x: constituent(x, 1.0)(1.0), ["family"]),
    "constituent-r_prime": (lambda x: constituent("escs", x)(1.0), ["r_prime", "r"]),
    # the balanced budget of a family's constituent, the path every inverse inverts
    "mean_total_photons(ecs)-alpha": (
        lambda x: mean_total_photons(5, constituent("ecs")(x)), ["alpha"]
    ),
    "mean_total_photons(escs)-alpha": (
        lambda x: mean_total_photons(5, constituent("escs", 0.5)(x)), ["alpha"]
    ),
    "mean_total_photons(esvs)-r": (
        lambda x: mean_total_photons(5, constituent("esvs")(x)), ["r"]
    ),
    "solve_param_for_nbar-family": (
        lambda x: solve_param_for_nbar(x, 5, 3.0, 1.0), ["family"]
    ),
    "solve_param_for_nbar-d": (lambda x: solve_param_for_nbar("ecs", x, 3.0), ["d"]),
    "solve_param_for_nbar-n_bar": (lambda x: solve_param_for_nbar("ecs", 5, x), ["n_bar"]),
    "solve_param_for_nbar-r_prime": (
        lambda x: solve_param_for_nbar("escs", 5, 3.0, x), ["r_prime", "r"]
    ),
    "matched_report-family": (lambda x: matched_report(x, 5, 3.0, 1.0), ["family"]),
    "matched_report-d": (lambda x: matched_report("escs", x, 3.0, 1.0), ["d"]),
    "matched_report-n_bar": (lambda x: matched_report("esvs", 5, x), ["n_bar"]),
    "matched_report-r_prime": (
        lambda x: matched_report("escs", 5, 3.0, x), ["r_prime", "r"]
    ),
    "compare_families_at_nbar-d": (lambda x: compare_families_at_nbar(x, 4.0), ["d"]),
    "compare_families_at_nbar-n_bar": (lambda x: compare_families_at_nbar(5, x), ["n_bar"]),
    "compare_families_at_nbar-escs_r_prime": (
        lambda x: compare_families_at_nbar(5, 4.0, x), ["escs_r_prime", "r_prime", "r"]
    ),
    "escs_sweep_r_prime-d": (lambda x: escs_sweep_r_prime(x, 3.0, [0.4]), ["d"]),
    "escs_sweep_r_prime-n_bar": (lambda x: escs_sweep_r_prime(5, x, [0.4]), ["n_bar"]),
    "escs_sweep_r_prime-r_prime_grid": (
        lambda x: escs_sweep_r_prime(5, 3.0, [x]), ["r_prime_grid", "r"]
    ),
    "balanced_vs_unbalanced_sweep-d": (lambda x: balanced_vs_unbalanced_sweep(x, [1.0]), ["d"]),
    "balanced_vs_unbalanced_sweep-r_grid": (
        lambda x: balanced_vs_unbalanced_sweep(5, [x]), ["r_grid", "r"]
    ),
    "escs_ratio_bracket_check-alpha_p": (
        lambda x: escs_ratio_bracket_check(x, 0.5, 1.0), ["alpha_p"]
    ),
    "escs_ratio_bracket_check-r_p": (lambda x: escs_ratio_bracket_check(1.0, x, 1.0), ["r_p"]),
    "escs_ratio_bracket_check-r_matched": (
        lambda x: escs_ratio_bracket_check(1.0, 0.5, x), ["r_matched"]
    ),
    "pump_amplitude-r": (lambda x: pump_amplitude(x), ["r", "squeeze factor"]),
    "run_experiment-r": (lambda x: run_experiment(x), ["r", "squeeze factor"]),
    "run_experiment-cutoff": (lambda x: run_experiment(1.0, cutoff=x), ["cutoff"]),
    "heralded_target_amplitudes-r": (
        lambda x: heralded_target_amplitudes(x), ["r", "squeeze factor"]
    ),
    "heralded_success_probability-r": (
        lambda x: heralded_success_probability(x), ["r", "squeeze factor"]
    ),
    "experiment_qcrb_comparison-r_grid": (
        lambda x: experiment_qcrb_comparison([x]), ["r_grid", "r", "squeeze factor"]
    ),
    "experiment_qcrb_comparison-cutoff": (
        lambda x: experiment_qcrb_comparison([1.0], x), ["cutoff"]
    ),
    "SweepCurve-points": (lambda x: SweepCurve(x), ["points"]),
    "SweepCurve-points[0][0]": (lambda x: SweepCurve(((x, 2.0, 0.5),)), ["points"]),
    "compare_sweeps_at_common_nbar-d": (
        lambda x: compare_sweeps_at_common_nbar(x, _CURVE, _CURVE), ["d"]
    ),
    "compare_sweeps_at_common_nbar-balanced": (
        lambda x: compare_sweeps_at_common_nbar(5, x, _CURVE), ["balanced"]
    ),
    "compare_sweeps_at_common_nbar-unbalanced": (
        lambda x: compare_sweeps_at_common_nbar(5, _CURVE, x), ["unbalanced"]
    ),
    "fock_amplitudes-state": (lambda x: fock_amplitudes(x, n_max=3), ["state"]),
    "fock_amplitudes-n_max": (lambda x: fock_amplitudes(Coherent(1.0), n_max=x), ["n_max"]),
    "fock_amplitudes-tail_tol": (
        lambda x: fock_amplitudes(Coherent(1.0), tail_tol=x), ["tail_tol"]
    ),
    "moments_from_amplitudes-amps": (lambda x: moments_from_amplitudes(x), ["amps"]),
    "moments_from_amplitudes-amps[0]": (lambda x: moments_from_amplitudes([x]), ["amps"]),
    "qfi_matrix-d": (lambda x: qfi_matrix(x, Coherent(1.0)), ["d"]),
    "qfi_matrix-state": (lambda x: qfi_matrix(5, x), ["state"]),
    "qfi_matrix-weighting": (lambda x: qfi_matrix(5, Coherent(1.0), x), ["weighting"]),
    "qcrb_trace_inverse-matrix": (lambda x: qcrb_trace_inverse(x), ["matrix"]),
}


def _finite(value) -> bool:
    """Whether every number in ``value``, a value the library returned, is finite."""
    if isinstance(value, _Frozen):
        return _finite(value._values())
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    if isinstance(value, numbers.Integral):  # an int is finite however large
        return True
    if isinstance(value, numbers.Number):
        return cmath.isfinite(value)
    return True  # a label: a family name, None


@pytest.mark.parametrize("edge", EDGES)
@pytest.mark.parametrize("case", list(CALLS))
def test_returns_finite_values_or_names_the_parameter(case, edge):
    call, words = CALLS[case]
    try:
        result = call(edge)
    except NoonlikeError:
        return
    except (TypeError, ValueError) as exc:
        named = [w for w in words if re.search(rf"\b{re.escape(w)}\b", str(exc))]
        assert named, f"{type(exc).__name__} names none of {words}: {exc}"
        return
    assert _finite(result), result


# the message of each fault the table found, as the library now words it
MESSAGES = {
    "Coherent-huge": (lambda: Coherent(10**400), ParameterOutOfRange,
                      "alpha must fit a double, got a 1329-bit alpha"),
    "SqueezedCoherent-huge-r": (lambda: SqueezedCoherent(1.0, -(10**400)), ParameterOutOfRange,
                                "r must fit a double, got a 1329-bit r"),
    "FockSuperposition-huge": (lambda: FockSuperposition((10**400,)), ParameterOutOfRange,
                               "amps[0] must fit a double, got a 1329-bit amps[0]"),
    "FockSuperposition-1e308": (lambda: FockSuperposition((1e308,)), ValueError,
                                "amplitudes not normalized: sum |c_n|^2 = inf"),
    "noon_qcrb-huge": (lambda: noon_qcrb(5, 10**400), ParameterOutOfRange,
                       "n must fit a double, got a 1329-bit n"),
    "qcrb_from_f-subnormal": (lambda: qcrb_from_f(5, 5e-324, 0.1), ParameterOutOfRange,
                              "n_bar = 5e-324 and f = 0.1 give the bound inf at d=5"),
    "FixedB-huge": (lambda: FixedB(10**400), ParameterOutOfRange,
                    "b2 must fit a double, got a 1329-bit b2"),
    "FixedB-inf": (lambda: FixedB(float("inf")), ValueError, "b2 must be finite, got inf"),
    # a family is its lowercase name, and nothing else
    "constituent-foo": (lambda: constituent("foo"), ValueError,
                        "family must be one of noon, ecs, escs, esvs, got 'foo'"),
    "solve-foo": (lambda: solve_param_for_nbar("foo", 5, 4.0), ValueError,
                  "family must be one of noon, ecs, escs, esvs, got 'foo'"),
    "matched_report-ECS": (lambda: matched_report("ECS", 5, 4.0), ValueError,
                           "family must be one of noon, ecs, escs, esvs, got 'ECS'"),
    "matched_report-not-str": (lambda: matched_report(None, 5, 4.0), TypeError,
                               "family must be a str, got NoneType None"),
    "solve-str-n_bar": (lambda: solve_param_for_nbar("ecs", 5, "3"), TypeError,
                        "n_bar must be a real number, got str '3'"),
    "solve-huge-n_bar": (lambda: solve_param_for_nbar("ecs", 5, 10**400),
                         ParameterOutOfRange, "n_bar must fit a double, got a 1329-bit n_bar"),
    "solve-str-r_prime": (lambda: solve_param_for_nbar("escs", 5, 3.0, "1"), TypeError,
                          "r_prime must be a real number, got str '1'"),
    "compare-str-n_bar": (lambda: compare_families_at_nbar(5, "3"), TypeError,
                          "n_bar must be a real number, got str '3'"),
    # at r' = 0 the ESCS probe is the ECS probe: a false OrderingViolation
    "compare-zero-r_prime": (lambda: compare_families_at_nbar(5, 4.0, 0.0), ValueError,
                             "escs_r_prime must be positive, got 0.0"),
    "escs_sweep-str": (lambda: escs_sweep_r_prime(5, 3.0, ["0.4"]), TypeError,
                       "r_prime_grid[0] must be a real number, got str '0.4'"),
    "escs_sweep-negative": (lambda: escs_sweep_r_prime(5, 3.0, [-1.0]), ValueError,
                            "r_prime_grid must be nonnegative, got -1.0"),
    "unbalanced-str": (lambda: balanced_vs_unbalanced_sweep(5, ["1"]), TypeError,
                       "r_grid[0] must be a real number, got str '1'"),
    "run_experiment-str-cutoff": (lambda: run_experiment(1.0, cutoff="1"), TypeError,
                                  "cutoff must be an integer, got '1'"),
    "pump_amplitude-huge": (lambda: pump_amplitude(10**400), ParameterOutOfRange,
                            "r must fit a double, got a 1329-bit r"),
    "experiment_qcrb_comparison-str": (lambda: experiment_qcrb_comparison([1.0, "1"]),
                                       TypeError, "r_grid[1] must be a real number, got str '1'"),
    "bracket-str": (lambda: escs_ratio_bracket_check("a", 1, 1), TypeError,
                    "alpha_p must be a real number, got str 'a'"),
    "bracket-1e308": (lambda: escs_ratio_bracket_check(1e308, 0.5, 1.0), ParameterOutOfRange,
                      "alpha_p = 1e+308 is out of range"),
    "moments-str": (lambda: moments("x"), TypeError,
                    "state must be a SingleModeState, got str 'x'"),
    "fock_amplitudes-str": (lambda: fock_amplitudes("x", n_max=3), TypeError,
                            "state must be a SingleModeState, got str 'x'"),
    "resolve_weights-str-m": (lambda: resolve_weights(5, "x", Balanced()), TypeError,
                              "m must be a Moments, got str 'x'"),
    "resolve_weights-str-weighting": (lambda: resolve_weights(5, _MOMENTS, "balanced"),
                                      TypeError,
                                      "weighting must be a Weighting, got str 'balanced'"),
    "qcrb_closed_form-str-state": (lambda: qcrb_closed_form(5, "x"), TypeError,
                                   "state must be a SingleModeState, got str 'x'"),
    "fock_amplitudes-float-n_max": (lambda: fock_amplitudes(Coherent(1.0), n_max=2.5), TypeError,
                                    "n_max must be an integer, got 2.5"),
    "fock_amplitudes-nan-tail_tol": (lambda: fock_amplitudes(Coherent(1.0), 3, float("nan")),
                                     ValueError, "tail_tol must be positive, got nan"),
    "qcrb_trace_inverse-str": (lambda: qcrb_trace_inverse("x"), TypeError,
                               "matrix must be an array of real numbers, got str 'x'"),
    "compare_sweeps-str": (lambda: compare_sweeps_at_common_nbar(5, "a", "b"), TypeError,
                           "balanced must be a SweepCurve, got str 'a'"),
    "compare_sweeps-d": (lambda: compare_sweeps_at_common_nbar(0, _CURVE, _CURVE), ValueError,
                         "d must be >= 1, got 0"),
    "moments_from_amplitudes-str": (lambda: moments_from_amplitudes("1"), TypeError,
                                    "amps must be an array of numbers, got str '1'"),
    "moments_from_amplitudes-huge": (lambda: moments_from_amplitudes(10**400), TypeError,
                                     "amps must be an array of numbers, got int "),
    "moments_from_amplitudes-zero": (lambda: moments_from_amplitudes([0.0]), ValueError,
                                     "amps need a nonzero norm and finite moments,"
                                     " got sum |c_n|^2 0.0"),
    "moments_from_amplitudes-1e308": (lambda: moments_from_amplitudes([1e308]), ValueError,
                                      "amps need a nonzero norm and finite moments,"
                                      " got sum |c_n|^2 inf"),
    "Moments-str": (lambda: Moments("1", 4.0, 0.1), TypeError,
                    "mean_n must be a real number, got str '1'"),
    "Moments-bool": (lambda: Moments(True, 2.0, 0.5), TypeError,
                     "mean_n must be a real number, got bool True"),
    "Moments-1e308": (lambda: Moments(1e308, 4.0, 0.1), ValueError,
                      "mean_n2 must be at least mean_n^2 = inf, got 4.0"),
    "Moments-inf": (lambda: Moments(1.0, float("inf"), 0.1), ValueError,
                    "mean_n2 must be finite, got inf"),
    "SweepCurve-inf": (lambda: SweepCurve(((float("inf"), 2.0, 0.5),)), ValueError,
                       "points[0] must have a finite n_bar, got inf"),
    "SweepCurve-pair": (lambda: SweepCurve(((1.0, 2.0),)), TypeError,
                        "points[0] must be an (n_bar, qcrb, parameter) triple, got (1.0, 2.0)"),
    "SweepCurve-float": (lambda: SweepCurve(1.0), TypeError,
                         "points must be a sequence of (n_bar, qcrb, parameter) triples,"
                         " got float 1.0"),
    "bracket-vacuum": (lambda: escs_ratio_bracket_check(0, 0, 1.0), ZeroPhotonState,
                       "vacuum constituent: alpha_p = r_p = 0 carries no excess noise"),
}


@pytest.mark.parametrize("case", list(MESSAGES))
def test_message(case):
    call, error, message = MESSAGES[case]
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        call()


@pytest.mark.parametrize(
    "family, parameter, state",
    [("noon", "n", Fock(1.5)), ("ecs", "alpha", Coherent(1.5)),
     ("escs", "alpha", SqueezedCoherent(1.5, 0.5)), ("esvs", "r", SqueezedVacuum(1.5))],
    ids=["noon", "ecs", "escs", "esvs"],
)
def test_family_is_its_name(family, parameter, state):
    # each family function takes the name that the reports and the CLI print
    assert constituent(family, 0.5)(1.5) == state
    assert FAMILIES[family].parameter == parameter
    report = matched_report(family, 5, 4.0, 0.5)
    assert report.family == family
    assert report.parameter == getattr(solve_param_for_nbar(family, 5, 4.0, 0.5), parameter)
    assert report == {r.family: r for r in compare_families_at_nbar(5, 4.0, 0.5)}[family]
