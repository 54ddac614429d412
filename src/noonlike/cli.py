"""Command-line front end: deterministic CSV/JSON reports.

Identical invocations produce byte-identical output files: no timestamps,
fixed column orders, and every value formatted to 12 significant digits.
Exit codes: 0 success, 1 computation error, 2 usage error.  An option that
the chosen family or figure does not use is a usage error, and so is a grid
of several points whose min is not below its max.

The default output directory is the current directory unless
NOONLIKE_OUTPUT_DIR is set.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import Sequence

from .errors import NoonlikeError, OrderingViolation, UsageError
from .families import (
    PARAMETERS,
    Family,
    balanced_vs_unbalanced_sweep,
    compare_families_at_nbar,
    compare_sweeps_at_common_nbar,
    constituent,
    escs_sweep_r_prime,
    matched_report,
)
from .qcrb import (
    Balanced,
    FixedB,
    OptimizedB,
    ProbeSpec,
    QcrbReport,
    noon_ceiling,
    qcrb_closed_form,
)

__all__ = ["parse_args", "main"]

# Per-figure defaults; a value given by the caller overrides its default,
# and a figure takes only the options named here (figure 6 also takes
# --circuit and --cutoff).  Figure 4 is the ``unbalanced`` command at d=5,
# and shares its defaults.
_FIGURE_DEFAULTS = {
    2: dict(d=5, n_min=0.5, n_max=20.0, steps=40, r_prime=1.0),
    # starts at 0.75 rather than 0.5: below ~0.61 the squeezed-coherent
    # family with squeeze factor 1.2 cannot reach the target n_bar
    3: dict(d=5, n_min=0.75, n_max=20.0, steps=40),
    4: dict(d=5, r_min=0.3, r_max=3.0, steps=60),
    6: dict(r_min=1.0, r_max=2.0, steps=20),
}

_CUTOFF_HELP = (
    "Fock cutoff; validated, but changes no result: the circuit is simulated "
    "exactly on its heralded photon budget"
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="noonlike", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", type=Path, default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("qcrb", help="bound for one probe")
    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=float, help="photon number (noon)")
    p.add_argument("--alpha", type=float, help="displacement (ecs, escs)")
    p.add_argument("--r", type=float, help="squeeze factor (esvs)")
    p.add_argument("--r-prime", type=float, help="squeeze factor (escs)")
    weights = p.add_mutually_exclusive_group()
    weights.add_argument("--b2", type=float, help="fixed probing weight b^2 (unbalanced)")
    weights.add_argument("--optimized-b", action="store_true", help="optimize b^2")
    add_out(p)

    p = sub.add_parser("compare", help="four families at a common n_bar")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n-bar", type=float, required=True)
    p.add_argument("--r-prime", type=float, default=1.0)
    add_out(p)

    p = sub.add_parser("sweep-escs", help="squeezed-coherent squeeze-factor sweep")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n-bar", type=float, required=True)
    p.add_argument("--r-min", type=float, default=0.4)
    p.add_argument("--r-max", type=float, default=1.2)
    p.add_argument("--steps", type=int, default=3)
    add_out(p)

    p = sub.add_parser("unbalanced", help="balanced vs optimized-unbalanced sweep")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r-min", type=float)
    p.add_argument("--r-max", type=float)
    p.add_argument("--steps", type=int)
    p.set_defaults(**_FIGURE_DEFAULTS[4])
    add_out(p)

    p = sub.add_parser("experiment", help="simulate the heralded source")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--cutoff", type=int, default=None, help=_CUTOFF_HELP)
    p.add_argument("--circuit", type=Path, default=None, help="circuit config path")
    add_out(p)

    p = sub.add_parser("figure", help="emit a comparison dataset")
    p.add_argument("--id", type=int, required=True, choices=tuple(_FIGURE_DEFAULTS))
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--n-min", type=float, default=None)
    p.add_argument("--n-max", type=float, default=None)
    p.add_argument("--r-min", type=float, default=None)
    p.add_argument("--r-max", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--r-prime", type=float, default=None)
    p.add_argument("--cutoff", type=int, default=None, help=_CUTOFF_HELP)
    p.add_argument("--circuit", type=Path, default=None)
    add_out(p)
    return parser


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _finite(params: dict) -> None:
    for key, value in params.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"{_flag(key)} must be finite, got {value}")


def _positive(params: dict, keys: Sequence[str]) -> None:
    for key in keys:
        value = params.get(key)
        if value is not None and value <= 0:
            raise UsageError(f"{_flag(key)} must be positive, got {value}")


def _reject_unused(params: dict, offered: set[str], accepted, chooser: str) -> None:
    """UsageError naming each given option in ``offered`` but not ``accepted``."""
    unused = [_flag(k) for k in sorted(offered.difference(accepted)) if params[k] is not None]
    if unused:
        raise UsageError(f"{chooser} does not take {', '.join(unused)}")


def _increasing_ranges(params: dict) -> None:
    """UsageError unless each range of a grid of several points has min < max."""
    for lo, hi in (("r_min", "r_max"), ("n_min", "n_max")):
        if (params.get("steps") or 0) > 1 and lo in params and params[lo] >= params[hi]:
            raise UsageError(
                f"{_flag(lo)} must be less than {_flag(hi)} when --steps > 1, "
                f"got {params[lo]} and {params[hi]}"
            )


def _attach_negative_values(argv: Sequence[str]) -> list[str]:
    """``--flag -1e5`` as ``--flag=-1e5``, for every value that float() reads.

    argparse takes a separate token that starts with "-" for an option unless
    it is a plain negative number, so ``-1e5`` or ``-inf`` would lose its flag.
    """
    out: list[str] = []
    for token in argv:
        if token.startswith("-") and out and out[-1].startswith("--") and "=" not in out[-1]:
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


def parse_args(argv: Sequence[str]) -> tuple[str, dict]:
    """Validated (command, params); raises UsageError on bad input."""
    ns = _build_parser().parse_args(_attach_negative_values(argv))
    params = {k: v for k, v in vars(ns).items() if k != "command"}
    _finite(params)
    _positive(params, ["n", "n_bar", "r", "r_prime", "b2", "n_min", "n_max", "steps", "cutoff"])
    if params.get("d") is not None and params["d"] < 1:
        raise UsageError(f"--d must be >= 1, got {params['d']}")
    if ns.command == "qcrb":
        family = Family(ns.family)
        needed = [PARAMETERS[family]] + (["r_prime"] if family is Family.ESCS else [])
        for key in needed:
            if params[key] is None:
                raise UsageError(f"--family {ns.family} requires {_flag(key)}")
        offered = set(PARAMETERS.values()) | {"r_prime"}
        _reject_unused(params, offered, needed, f"--family {ns.family}")
    elif ns.command == "figure":
        accepted = _FIGURE_DEFAULTS[ns.id].keys() | ({"circuit", "cutoff"} if ns.id == 6 else set())
        offered = params.keys() - {"id", "out", "format"}
        _reject_unused(params, offered, accepted, f"figure --id {ns.id}")
        params = _FIGURE_DEFAULTS[ns.id] | {k: v for k, v in params.items() if v is not None}
    _increasing_ranges(params)
    return ns.command, params


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """``np.linspace(start, stop, num)``, bit for bit, without numpy."""
    delta = stop - start
    if num == 1:
        return [0.0 * delta + start]
    step = delta / (num - 1)
    if step == 0.0:  # numpy's order when the step underflows
        grid = [k / (num - 1) * delta + start for k in range(num)]
    else:
        grid = [k * step + start for k in range(num)]
    grid[-1] = stop
    return grid


def _round12(value: float) -> float:
    return float(f"{value:.12g}")


def _write(columns: list[str], rows: list[list], out: Path | None, fmt: str) -> None:
    if fmt == "csv":
        text_rows = [",".join(columns)] + [",".join(_fmt(v) for v in row) for row in rows]
        payload = "\n".join(text_rows) + "\n"
    else:
        import json  # only JSON output needs it

        records = [
            {c: (_round12(v) if isinstance(v, float) else v) for c, v in zip(columns, row)}
            for row in rows
        ]
        payload = json.dumps({"columns": columns, "rows": records}, indent=2) + "\n"
    if out is None:
        sys.stdout.write(payload)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(payload)


_REPORT_COLUMNS = ["family", "qcrb", "f", "R", "b2", "n_tilde", "n_bar", "parameter"]


def _report_row(report: QcrbReport) -> list:
    return [getattr(report, column) for column in _REPORT_COLUMNS]


def _cmd_qcrb(params: dict) -> tuple[list[str], list[list]]:
    weighting = Balanced()
    if params.get("b2") is not None:
        weighting = FixedB(params["b2"])
    elif params.get("optimized_b"):
        weighting = OptimizedB()
    family = Family(params["family"])
    state = constituent(family, params["r_prime"])(params[PARAMETERS[family]])
    rep = qcrb_closed_form(ProbeSpec(params["d"], state, weighting))
    labelled = QcrbReport(rep.qcrb, rep.f, rep.R, rep.b2, rep.n_tilde, rep.n_bar, family.value)
    return _REPORT_COLUMNS, [_report_row(labelled)]


def _cmd_compare(params: dict) -> tuple[list[str], list[list]]:
    reports = compare_families_at_nbar(params["d"], params["n_bar"], params["r_prime"])
    return _REPORT_COLUMNS, [_report_row(r) for r in reports]


def _cmd_sweep_escs(params: dict) -> tuple[list[str], list[list]]:
    grid = _linspace(params["r_min"], params["r_max"], params["steps"])
    curve = escs_sweep_r_prime(params["d"], params["n_bar"], grid)
    return ["r_prime", "n_bar", "qcrb"], [[rp, nb, q] for nb, q, rp in curve.points]


def _cmd_unbalanced(params: dict) -> tuple[list[str], list[list]]:
    grid = _linspace(params["r_min"], params["r_max"], params["steps"])
    bal, unb = balanced_vs_unbalanced_sweep(params["d"], grid)
    columns = ["r", "n_bar_balanced", "qcrb_balanced", "n_bar_unbalanced", "qcrb_unbalanced"]
    rows = []
    for (nb_b, q_b, r), (nb_u, q_u, _) in zip(bal.points, unb.points):
        _assert_rows_bounded(params["d"], nb_b, [q_b, q_u])
        rows.append([r, nb_b, q_b, nb_u, q_u])
    _, crossover = compare_sweeps_at_common_nbar(bal, unb)
    if crossover is not None:
        print(f"# crossover n_bar = {_fmt(crossover)}", file=sys.stderr)
    return columns, rows


def _cmd_experiment(params: dict) -> tuple[list[str], list[list]]:
    from .circuit import default_circuit_config, load_circuit_config, run_experiment

    config = (
        load_circuit_config(params["circuit"]) if params.get("circuit") else default_circuit_config()
    )
    res = run_experiment(params["r"], config=config, cutoff=params.get("cutoff"))
    columns = ["r", "n_bar", "success_prob", "fidelity", "branch_phase"] + [
        f"abs_c{n}" for n in range(len(res.phi_amps))
    ]
    row = [params["r"], res.n_bar, res.success_prob, res.fidelity_to_noonlike, res.branch_phase]
    row += [abs(c) for c in res.phi_amps]
    return columns, [row]


def _assert_rows_bounded(d: int, n_bar: float, values: Sequence[float]) -> None:
    if any(v > noon_ceiling(d, n_bar) for v in values):
        raise NoonlikeError(f"emitted value exceeds the NOON bound at n_bar={n_bar}")


def _figure_2(params: dict) -> tuple[list[str], list[list]]:
    import numpy as np  # a pure-Python geomspace is not bit-equal to numpy's

    d = params["d"]
    grid = np.geomspace(params["n_min"], params["n_max"], params["steps"])
    rows = []
    for n_bar in grid:
        nb = float(n_bar)
        qcrbs = [r.qcrb for r in compare_families_at_nbar(d, nb, params["r_prime"])]
        _assert_rows_bounded(d, nb, qcrbs)
        rows.append([nb] + qcrbs)
    return ["n_bar", "noon", "ecs", f"escs_r{params['r_prime']:g}", "esvs"], rows


def _figure_3(params: dict) -> tuple[list[str], list[list]]:
    import numpy as np  # a pure-Python geomspace is not bit-equal to numpy's

    d = params["d"]
    grid = np.geomspace(params["n_min"], params["n_max"], params["steps"])
    r_primes = (0.4, 0.8, 1.2)
    rows = []
    for n_bar in grid:
        nb = float(n_bar)
        ecs = matched_report(Family.ECS, d, nb).qcrb
        esvs = matched_report(Family.ESVS, d, nb).qcrb
        escs_curve = escs_sweep_r_prime(d, nb, r_primes)
        escs_vals = [q for _, q, _ in escs_curve.points]
        ordered = [ecs] + escs_vals + [esvs]
        if not all(a > b for a, b in zip(ordered, ordered[1:])):
            raise OrderingViolation(f"expected ECS > ESCS(r') > ESVS at n_bar={nb}: {ordered}")
        _assert_rows_bounded(d, nb, ordered)
        rows.append([nb] + ordered)
    return ["n_bar", "ecs", "escs_r0.4", "escs_r0.8", "escs_r1.2", "esvs"], rows


def _figure_6(params: dict) -> tuple[list[str], list[list]]:
    from .circuit import default_circuit_config, experiment_qcrb_comparison, load_circuit_config

    grid = _linspace(params["r_min"], params["r_max"], params["steps"])
    config = (
        load_circuit_config(params["circuit"]) if params.get("circuit") else default_circuit_config()
    )
    noon_curve, ecs_curve, phi_curve = experiment_qcrb_comparison(
        grid, config=config, cutoff=params.get("cutoff")
    )
    rows = [
        [nb, qn, qe, qp]
        for (nb, qn, _), (_, qe, _), (_, qp, _) in zip(
            noon_curve.points, ecs_curve.points, phi_curve.points
        )
    ]
    return ["n_bar", "noon_effective", "ecs", "phi"], rows


_FIGURES = {2: _figure_2, 3: _figure_3, 4: _cmd_unbalanced, 6: _figure_6}


def _cmd_figure(params: dict) -> tuple[list[str], list[list]]:
    return _FIGURES[params["id"]](params)


_COMMANDS = {
    "qcrb": _cmd_qcrb,
    "compare": _cmd_compare,
    "sweep-escs": _cmd_sweep_escs,
    "unbalanced": _cmd_unbalanced,
    "experiment": _cmd_experiment,
    "figure": _cmd_figure,
}


def _default_out(params: dict, command: str) -> Path | None:
    out = params.get("out")
    env_dir = os.environ.get("NOONLIKE_OUTPUT_DIR")
    if out is None and env_dir and command == "figure":
        return Path(env_dir) / f"figure_{params['id']}.{params['format']}"
    if out is not None and not out.is_absolute() and env_dir:
        return Path(env_dir) / out
    return out


def main(argv: Sequence[str] | None = None) -> int:
    try:
        command, params = parse_args(sys.argv[1:] if argv is None else argv)
        columns, rows = _COMMANDS[command](params)
        _write(columns, rows, _default_out(params, command), params["format"])
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (NoonlikeError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
