"""Command-line front end: deterministic CSV/JSON reports.

Identical invocations produce byte-identical output files: no timestamps,
fixed column orders, and every value formatted to 12 significant digits.
Exit codes: 0 success, 1 computation error, 2 usage error.

Each option is declared once, in ``_OPTIONS``.  ``parse_args`` builds the
parser from that table and checks, in this order: every value is finite and
in its option's domain; the chosen family has the options it requires; no
option is given that the chosen family or figure does not use; and, once the
defaults are merged, each grid of several points has its min below its max.
A failed check is a usage error that names the flag.

An exact argv skips argparse: ``_exact`` reads it by the same table, then the
same checks run.  argparse is imported only for help, a usage error or another
form of argv.  ``--help`` shows the text above only.
"""

from __future__ import annotations

import math
import os
import sys

from .errors import NoonlikeError, UsageError
from .qcrb import (
    Balanced,
    FixedB,
    OptimizedB,
    QcrbReport,
    _check_below_noon,
    _check_ordered,
    qcrb_closed_form,
)
from .states import FAMILIES, constituent

__all__ = ["parse_args", "main"]

_REQUIRED = object()  # in place of a default: the option must be given

# Figure 4 is the ``unbalanced`` command at d=5, and shares its defaults.
_FIGURE_4 = dict(d=5, r_min=0.3, r_max=3.0, steps=60)

# chooser -> (its label in messages, {choice: {option: default}}); a command
# takes every option of its chooser's choices, but a choice only its own
_CHOICES = {
    "family": ("--family", {
        name: {row.parameter: _REQUIRED} | ({"r_prime": _REQUIRED} if row.needs_r_prime else {})
        for name, row in FAMILIES.items()
    }),
    "id": ("figure --id", {
        2: dict(d=5, n_min=0.5, n_max=20.0, steps=40, r_prime=1.0),
        # starts at 0.75 rather than 0.5: below ~0.61 the squeezed-coherent
        # family with squeeze factor 1.2 cannot reach the target n_bar
        3: dict(d=5, n_min=0.75, n_max=20.0, steps=40),
        4: _FIGURE_4,
        6: dict(r_min=1.0, r_max=2.0, steps=20),
    }),
}

_STEPS_MAX = 10**5  # a grid is a list of floats, built after the checks

_DOMAINS = {"positive": lambda v: v > 0, "nonnegative": lambda v: v >= 0, ">= 1": lambda v: v >= 1,
            f"at most {_STEPS_MAX}": lambda v: v <= _STEPS_MAX}

# option -> (type, or the tuple of its choices; the domains it must be in, in
# the order they are checked; help), in the order every command lists them
_OPTIONS = {
    "family": (tuple(_CHOICES["family"][1]), None, "probe family"),
    "id": (tuple(_CHOICES["id"][1]), None, "figure number"),
    "d": (int, (">= 1",), "number of phases"),
    "n": (float, ("positive",), "photon number (noon)"),
    "alpha": (float, None, "displacement (ecs, escs)"),
    "r": (float, ("positive",), "squeeze factor (esvs; the heralded source)"),
    "n_bar": (float, ("positive",), "mean total photon number"),
    "n_min": (float, ("positive",), "first n_bar of the grid"),
    "n_max": (float, ("positive",), "last n_bar of the grid"),
    "r_min": (float, ("nonnegative",), "first squeeze factor of the grid"),
    "r_max": (float, ("nonnegative",), "last squeeze factor of the grid"),
    "steps": (int, ("positive", f"at most {_STEPS_MAX}"), "grid points"),
    "r_prime": (float, ("positive",), "squeeze factor (escs)"),
    "b2": (float, ("positive",), "fixed probing weight b^2 (unbalanced)"),
    "optimized_b": (bool, None, "optimize b^2"),
    "out": (str, None, "output file (default: stdout)"),
    "format": (("csv", "json"), None, "output format"),
}

_FLAG = {key: "--" + key.replace("_", "-") for key in _OPTIONS}

_EXCLUSIVE = ("b2", "optimized_b")  # a fixed or an optimized weight, not both

# command -> (help, {option: default}); each also takes --out and --format
_COMMAND_OPTIONS = {
    "qcrb": ("bound for one probe",
             dict(family=_REQUIRED, d=_REQUIRED, b2=None, optimized_b=False)),
    "compare": ("four families at a common n_bar", dict(d=_REQUIRED, n_bar=_REQUIRED, r_prime=1.0)),
    "sweep-escs": ("squeezed-coherent squeeze-factor sweep",
                   dict(d=_REQUIRED, n_bar=_REQUIRED, r_min=0.4, r_max=1.2, steps=3)),
    "unbalanced": ("balanced vs optimized-unbalanced sweep", _FIGURE_4 | dict(d=_REQUIRED)),
    "experiment": ("simulate the heralded source", dict(r=_REQUIRED)),
    "figure": ("emit a comparison dataset", dict(id=_REQUIRED)),
}


def _takes(command: str) -> dict:
    """Each option ``command`` takes, in ``_OPTIONS`` order, with its parser default."""
    own = _COMMAND_OPTIONS[command][1] | dict(out=None, format="csv")
    chosen = [opts for c in own.keys() & _CHOICES.keys() for opts in _CHOICES[c][1].values()]
    takes = dict.fromkeys(set().union(*chosen)) | own  # a choice's defaults merge after the checks
    return {key: takes[key] for key in _OPTIONS if key in takes}


def _exact(argv: Sequence[str]) -> tuple[str, dict] | None:
    """(command, params) as argparse gives them for an exact argv; None for any other.

    That is a command, then flags it takes, in full, once each, all it requires and
    not both ``_EXCLUSIVE`` ones; each value the next token, with no "-" first,
    converted by its type to one of its choices.
    """
    if not argv or argv[0] not in _COMMAND_OPTIONS:
        return None
    takes = _takes(argv[0])
    flags, given, tokens = {_FLAG[key]: key for key in takes}, {}, iter(argv[1:])
    for token in tokens:
        key = flags.pop(token, None)  # popped: a repeated flag is not found again
        if key is None:
            return None
        kind = _OPTIONS[key][0]
        if kind is bool:
            given[key] = True
            continue
        value = next(tokens, "-")
        try:
            given[key] = (type(kind[0]) if isinstance(kind, tuple) else kind)(value)
        except ValueError:
            return None
        if value.startswith("-") or isinstance(kind, tuple) and given[key] not in kind:
            return None
    if given.keys() >= set(_EXCLUSIVE) or any(takes[k] is _REQUIRED for k in flags.values()):
        return None
    return argv[0], {key: None if d is _REQUIRED else d for key, d in takes.items()} | given


def _usage_error(message: str):
    raise UsageError(message)


def _build_parser():
    """The argparse parser of every command and its options, with usage errors as UsageError."""
    import argparse

    parser = argparse.ArgumentParser(prog="noonlike", description=__doc__.rsplit("\n\n", 1)[0])
    parser.error = _usage_error
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _) in _COMMAND_OPTIONS.items():
        p = sub.add_parser(command, help=summary)
        p.error = _usage_error
        exclusive = None
        for key, default in _takes(command).items():
            kind, _, help_text = _OPTIONS[key]
            if key in _EXCLUSIVE:
                exclusive = exclusive or p.add_mutually_exclusive_group()
            add = (exclusive if key in _EXCLUSIVE else p).add_argument
            if kind is bool:
                add(_FLAG[key], action="store_true", help=help_text)
                continue
            choices = kind if isinstance(kind, tuple) else None
            add(_FLAG[key], type=type(kind[0]) if choices else kind, choices=choices,
                help=help_text, required=default is _REQUIRED,
                default=None if default is _REQUIRED else default)
    return parser


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


def _validate(params: dict) -> None:
    """UsageError naming the first fault; merges the chosen family's or figure's defaults."""
    for key, value in params.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"{_FLAG[key]} must be finite, got {value}")
    for key, value in params.items():
        for domain in _OPTIONS[key][1] or ():
            if value is not None and not _DOMAINS[domain](value):
                raise UsageError(f"{_FLAG[key]} must be {domain}, got {value}")
    for chooser in params.keys() & _CHOICES.keys():
        label, choices = _CHOICES[chooser]
        label, chosen = f"{label} {params[chooser]}", choices[params[chooser]]
        for key, default in chosen.items():
            if default is _REQUIRED and params[key] is None:
                raise UsageError(f"{label} requires {_FLAG[key]}")
        offered = set().union(*choices.values())
        unused = [_FLAG[k] for k in sorted(offered - chosen.keys()) if params[k] is not None]
        if unused:
            raise UsageError(f"{label} does not take {', '.join(unused)}")
        params.update((k, v) for k, v in chosen.items() if params[k] is None)
    several = (params.get("steps") or 0) > 1
    for lo, hi in (("r_min", "r_max"), ("n_min", "n_max")):
        if several and params.get(lo) is not None and params[lo] >= params[hi]:
            raise UsageError(
                f"{_FLAG[lo]} must be less than {_FLAG[hi]} when --steps > 1, "
                f"got {params[lo]} and {params[hi]}"
            )


def parse_args(argv: Sequence[str]) -> tuple[str, dict]:
    """Validated (command, params); raises UsageError on bad input."""
    parsed = _exact(argv)
    if parsed is None:  # argparse prints the help or words the usage error
        ns = _build_parser().parse_args(_attach_negative_values(argv))
        parsed = ns.command, {k: v for k, v in vars(ns).items() if k != "command"}
    _validate(parsed[1])
    return parsed


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


def _geomspace(start: float, stop: float, num: int) -> Iterator[float]:
    """``np.geomspace(start, stop, num)`` as numpy's baseline (non-AVX-512) code builds it."""
    exponents = _linspace(math.log10(start), math.log10(stop), num)
    for k, y in enumerate(exponents):  # lazy: an out-of-domain n_bar fails before 10 ** y overflows
        yield start if k == 0 else stop if k == num - 1 else 10.0 ** y


def _round12(value: float) -> float:
    return float(f"{value:.12g}")


def _write(columns: list[str], rows: list[list], out: str | None, fmt: str) -> None:
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
        parent = os.path.dirname(out)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(out, "w") as fh:
            fh.write(payload)


_REPORT_COLUMNS = ["family", "qcrb", "f", "R", "b2", "n_tilde", "n_bar", "parameter"]


def _report_row(report: QcrbReport) -> list:
    return [getattr(report, column) for column in _REPORT_COLUMNS]


def _cmd_qcrb(params: dict) -> tuple[list[str], list[list]]:
    weighting = Balanced()
    if params.get("b2") is not None:
        weighting = FixedB(params["b2"])
    elif params.get("optimized_b"):
        weighting = OptimizedB()
    family = params["family"]
    state = constituent(family, params["r_prime"])(params[FAMILIES[family].parameter])
    row = _report_row(qcrb_closed_form(params["d"], state, weighting))
    row[0] = family  # the closed form labels no family
    return _REPORT_COLUMNS, [row]


def _cmd_compare(params: dict) -> tuple[list[str], list[list]]:
    from .families import compare_families_at_nbar  # so that qcrb loads no solver
    reports = compare_families_at_nbar(params["d"], params["n_bar"], params["r_prime"])
    return _REPORT_COLUMNS, [_report_row(r) for r in reports]


def _cmd_sweep_escs(params: dict) -> tuple[list[str], list[list]]:
    from .families import escs_sweep_r_prime
    grid = _linspace(params["r_min"], params["r_max"], params["steps"])
    curve = escs_sweep_r_prime(params["d"], params["n_bar"], grid)
    return ["r_prime", "n_bar", "qcrb"], [[rp, nb, q] for nb, q, rp in curve.points]


def _cmd_unbalanced(params: dict) -> tuple[list[str], list[list]]:
    from .families import balanced_vs_unbalanced_sweep, compare_sweeps_at_common_nbar
    grid = _linspace(params["r_min"], params["r_max"], params["steps"])
    bal, unb = balanced_vs_unbalanced_sweep(params["d"], grid)
    columns = ["r", "n_bar_balanced", "qcrb_balanced", "n_bar_unbalanced", "qcrb_unbalanced"]
    rows = []
    for (nb_b, q_b, r), (nb_u, q_u, _) in zip(bal.points, unb.points):
        # Proven for balanced probes only.  Weight optimization only lowers
        # the bound at a fixed squeeze factor, so q_u is held to the NOON
        # value at the balanced budget nb_b; no theorem bounds it by NOON at
        # its own budget nb_u, and it often lies above that.
        _check_below_noon(params["d"], nb_b, [q_b, q_u])
        rows.append([r, nb_b, q_b, nb_u, q_u])
    _, crossover = compare_sweeps_at_common_nbar(params["d"], bal, unb)
    if crossover is not None:
        print(f"# crossover n_bar = {_fmt(crossover)}", file=sys.stderr)
    return columns, rows


def _cmd_experiment(params: dict) -> tuple[list[str], list[list]]:
    from .circuit import run_experiment
    res = run_experiment(params["r"])
    columns = ["r", "n_bar", "success_prob", "fidelity", "branch_phase"] + [
        f"abs_c{n}" for n in range(len(res.phi_amps))
    ]
    row = [params["r"], res.n_bar, res.success_prob, res.fidelity_to_noonlike, res.branch_phase]
    row += [abs(c) for c in res.phi_amps]
    return columns, [row]


def _figure_2(params: dict) -> tuple[list[str], list[list]]:
    from .families import compare_families_at_nbar
    d = params["d"]
    rows = []
    for nb in _geomspace(params["n_min"], params["n_max"], params["steps"]):
        qcrbs = [r.qcrb for r in compare_families_at_nbar(d, nb, params["r_prime"])]
        _check_below_noon(d, nb, qcrbs)
        rows.append([nb] + qcrbs)
    return ["n_bar", "noon", "ecs", f"escs_r{params['r_prime']:g}", "esvs"], rows


def _figure_3(params: dict) -> tuple[list[str], list[list]]:
    from .families import escs_sweep_r_prime, matched_report
    d = params["d"]
    r_primes = (0.4, 0.8, 1.2)
    rows = []
    for nb in _geomspace(params["n_min"], params["n_max"], params["steps"]):
        ecs = matched_report("ecs", d, nb).qcrb
        esvs = matched_report("esvs", d, nb).qcrb
        escs_curve = escs_sweep_r_prime(d, nb, r_primes)
        escs_vals = [q for _, q, _ in escs_curve.points]
        ordered = [ecs] + escs_vals + [esvs]
        _check_ordered(ordered, "ECS > ESCS(r') > ESVS", f"d={d}, n_bar={nb}")
        _check_below_noon(d, nb, ordered)
        rows.append([nb] + ordered)
    return ["n_bar", "ecs", "escs_r0.4", "escs_r0.8", "escs_r1.2", "esvs"], rows


def _figure_6(params: dict) -> tuple[list[str], list[list]]:
    from .circuit import experiment_qcrb_comparison
    grid = _linspace(params["r_min"], params["r_max"], params["steps"])
    noon_curve, ecs_curve, phi_curve = experiment_qcrb_comparison(grid)
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


def main(argv: Sequence[str] | None = None) -> int:
    try:
        command, params = parse_args(sys.argv[1:] if argv is None else argv)
        columns, rows = _COMMANDS[command](params)
        _write(columns, rows, params["out"], params["format"])
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (NoonlikeError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
