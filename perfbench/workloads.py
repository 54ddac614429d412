"""The benchmark's workloads: seeded inputs, one operation, output checks.

Each workload draws whole rounds of operations from its seed.  A run
attempts whole rounds only, so the share of operations that fail on a known
program fault is the same in every run.  ``run`` is the timed call into the
program; ``record`` turns its output into plain numbers outside the timing;
``check`` compares every record with ``refs`` after the timed phase.

An operation's status is ``ok``, ``known`` (it failed on a program fault
named in the README, on inputs that do not depend on the seed) or a text
saying what went wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
from array import array
from dataclasses import dataclass
from functools import partial

import numpy as np

import refs

_NOONLIKE = None  # the program's package, set by bind()
close = partial(np.isclose, atol=0.0)  # relative tolerance unless atol is given


def bind(package) -> None:
    """Give the workloads the imported program package."""
    global _NOONLIKE
    _NOONLIKE = package


@dataclass(frozen=True)
class Error:
    """An operation that raised or exited non-zero."""

    kind: str
    message: str


def _escs_floor(d: float, r_prime: float) -> float:
    mean, _, vac = refs.moments("escs", 0.0, r_prime)
    return float(refs.balanced_nbar(d, mean, vac))


def _apply(status: list[str], good: list[int], checks) -> list[str]:
    """Mark each good operation with the first (reason, mask) check it fails."""
    for reason, mask in checks:
        for i, ok in zip(good, np.broadcast_to(mask, (len(good),))):
            if not ok and status[i] == "ok":
                status[i] = reason
    return status


# --------------------------------------------------------------- budget-sweep
class BudgetSweep:
    """Family matching at seeded photon budgets: the `families` solve layer."""

    name = "budget-sweep"
    in_process = True
    DS = (1, 2, 5, 50)
    PER_D = 3
    R_PRIMES = (0.4, 0.8, 1.2)
    # compare_families_at_nbar raises a false OrderingViolation from about
    # n_bar = 35.7 (d=1) upward, so seeded budgets stay below 30 and every
    # round carries this one fixed point on which it fails.
    NBAR_MAX = 30.0
    KNOWN_FAULT = (5, 45.0)

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def next_round(self) -> list[tuple[int, float]]:
        ops = []
        for d in self.DS:
            lo = 1.02 * _escs_floor(d, max(self.R_PRIMES))
            for u in self.rng.uniform(math.log(lo), math.log(self.NBAR_MAX), self.PER_D):
                ops.append((d, float(math.exp(u))))
        ops.append(self.KNOWN_FAULT)
        self.rng.shuffle(ops)
        return ops

    def run(self, op):
        fam = _NOONLIKE.families
        d, n_bar = op
        return fam.compare_families_at_nbar(d, n_bar), fam.escs_sweep_r_prime(d, n_bar, self.R_PRIMES)

    @staticmethod
    def record(op, out):
        """Flat doubles: 4 x (qcrb f R b2 n_tilde n_bar parameter), 3 x (n_bar qcrb r'), labels ok."""
        reports, curve = out
        flat = array("d")
        for r in reports:
            flat.extend((r.qcrb, r.f, r.R, r.b2, r.n_tilde, r.n_bar, r.parameter))
        for n_bar, qcrb, r_prime in curve.points:
            flat.extend((n_bar, qcrb, r_prime))
        flat.append(float([r.family for r in reports] == list(refs.FAMILIES)))
        return flat

    def check(self, ops, records) -> list[str]:
        status = ["ok"] * len(ops)
        good = []
        for i, rec in enumerate(records):
            if isinstance(rec, Error):
                known = ops[i] == self.KNOWN_FAULT and rec.kind == "OrderingViolation"
                status[i] = "known" if known else f"{rec.kind}: {rec.message}"
            else:
                good.append(i)
        if not good:
            return status
        d = np.array([ops[i][0] for i in good], dtype=np.float64)
        n = np.array([ops[i][1] for i in good], dtype=np.float64)
        flat = np.array([records[i] for i in good], dtype=np.float64)
        cols = flat[:, :28].reshape(-1, 4, 7)  # (op, family, column)
        sweep = flat[:, 28:37].reshape(-1, 3, 3)  # (op, squeeze factor, (n_bar, qcrb, r'))
        sweep_q = sweep[:, :, 1]
        checks = [("family labels", flat[:, 37] == 1.0)]
        keys = ("qcrb", "f", "R", "b2", "n_tilde", "n_bar")
        for k, fam in enumerate(refs.FAMILIES):
            p2 = 1.0 if fam == "escs" else None  # compare's default squeeze for ESCS
            ref = refs.balanced_report(fam, d, cols[:, k, 6], p2)
            checks += [(f"{fam} {key} differs from the reference", close(cols[:, k, j], ref[key], rtol=1e-9))
                       for j, key in enumerate(keys)]
            mean, mean2, vac = refs.moments(fam, cols[:, k, 6], p2)
            dense = np.empty(len(good))
            for dv in np.unique(d):
                sel = d == dv
                dense[sel] = refs.dense_inverse_bound(int(dv), mean[sel], mean2[sel], refs.balanced_b2(dv, vac[sel]))
            checks += [
                (f"{fam} parameter misses the budget", close(ref["n_bar"], n, rtol=1e-9, atol=2e-10)),
                (f"{fam} above the NOON bound", cols[:, k, 0] <= refs.noon_bound(d, n) * (1 + 1e-12)),
                (f"{fam} qcrb differs from the dense inverse", close(cols[:, k, 0], dense, rtol=1e-8)),
            ]
        q, f, nt = cols[:, :, 0], cols[:, :, 1], cols[:, :, 4]
        checks += [
            ("bounds not strictly ordered", np.all(q[:, :-1] > q[:, 1:], axis=1)),
            ("f not strictly ordered", np.all(f[:, :-1] > f[:, 1:], axis=1)),
            # the NOON-ECS gap in <n> is below double precision at large budgets
            ("n_tilde not ordered", np.all(nt[:, :-1] <= nt[:, 1:] * (1 + 1e-9), axis=1)),
            ("sweep not strictly decreasing", np.all(sweep_q[:, :-1] > sweep_q[:, 1:], axis=1)),
            ("sweep outside (ESVS, ECS)", (sweep_q[:, 0] < q[:, 1]) & (sweep_q[:, -1] > q[:, 3])),
        ]
        for k, rp in enumerate(self.R_PRIMES):
            alpha = refs.solve_parameter("escs", d, n, rp)
            ref_q = refs.balanced_report("escs", d, alpha, rp)["qcrb"]
            checks += [
                (f"sweep r'={rp} differs from the reference", close(sweep_q[:, k], ref_q, rtol=1e-7)),
                ("sweep grid echo", (sweep[:, k, 0] == n) & (sweep[:, k, 2] == rp)),
            ]
        return _apply(status, good, checks)


# ------------------------------------------------------------ heralded-source
class HeraldedSource:
    """Figure-6 points at seeded squeeze factors: the `circuit` simulator."""

    name = "heralded-source"
    in_process = True
    # Every round runs each cutoff once, so a round's cost does not depend on
    # the seed; five equal classes put the 90th percentile inside cutoff 30.
    CUTOFFS = (14, 18, 22, 26, 30)
    R_RANGE = (0.3, 2.0)

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def next_round(self) -> list[tuple[float, int]]:
        rs = self.rng.uniform(*self.R_RANGE, len(self.CUTOFFS))
        ops = [(float(r), c) for r, c in zip(rs, self.CUTOFFS)]
        self.rng.shuffle(ops)
        return ops

    def run(self, op):
        r, cutoff = op
        return _NOONLIKE.circuit.experiment_qcrb_comparison([r], cutoff=cutoff)

    @staticmethod
    def record(op, out):
        noon, ecs, phi = (curve.points[0] for curve in out)
        return phi[0], noon[1], ecs[1], phi[1], noon[2], ecs[0], noon[0]

    def check(self, ops, records) -> list[str]:
        status = [f"{rec.kind}: {rec.message}" if isinstance(rec, Error) else "ok" for rec in records]
        good = [i for i, s in enumerate(status) if s == "ok"]
        if not good:
            return status
        r = np.array([ops[i][0] for i in good])
        rec = np.array([records[i] for i in good], dtype=np.float64)
        n_bar, q_noon, q_ecs, q_phi, r_echo = rec[:, 0], rec[:, 1], rec[:, 2], rec[:, 3], rec[:, 4]
        mean, mean2 = refs.heralded_moments(r)
        alpha = refs.solve_parameter("ecs", 1.0, mean)
        dense = refs.dense_inverse_bound(1, mean, mean2, np.full_like(mean, refs.balanced_b2(1.0, 0.0)))
        checks = [
            ("n_bar differs from the heralded amplitudes", close(n_bar, mean, rtol=1e-10)),
            ("curves disagree on n_bar", (rec[:, 5] == n_bar) & (rec[:, 6] == n_bar) & (r_echo == r)),
            ("heralded bound differs from the reference",
             close(q_phi, refs.bound_from_f(1.0, mean, mean / mean2), rtol=1e-9)),
            ("heralded bound differs from the dense inverse", close(q_phi, dense, rtol=1e-9)),
            ("NOON bound differs from d(d+1)/(2 n^2)", close(q_noon, refs.noon_bound(1.0, n_bar), rtol=1e-12)),
            ("ECS bound differs from the reference",
             close(q_ecs, refs.balanced_report("ecs", 1.0, alpha)["qcrb"], rtol=1e-7)),
            ("not ECS < heralded < NOON", (q_ecs < q_phi) & (q_phi < q_noon)),
        ]
        return _apply(status, good, checks)


# -------------------------------------------------------------------- cli-mix
def _fmt(x: float) -> str:
    return f"{x:.6g}"


def parse_table(text: str) -> tuple[list[str], list[list]]:
    """Columns and rows of the CLI's CSV or JSON output; numbers as floats."""
    if text.startswith("{"):
        obj = json.loads(text)
        return obj["columns"], [[row[c] for c in obj["columns"]] for row in obj["rows"]]
    lines = text.splitlines()

    def value(tok: str):
        if tok == "":
            return None
        try:
            return float(tok)
        except ValueError:
            return tok

    return lines[0].split(","), [[value(t) for t in line.split(",")] for line in lines[1:]]


class CliMix:
    """One closed-loop client running `python -m noonlike.cli` processes."""

    name = "cli-mix"
    in_process = False
    DS = (1, 2, 5, 50)
    KNOWN_FAULT = ("qcrb", "--family", "esvs", "--d", "5", "--r", "2", "--optimized-b")

    def __init__(self, seed: int, python: str = "python3", env: dict | None = None):
        rng = np.random.default_rng(seed)
        self.python, self.env = python, env

        def d():
            return str(int(rng.choice(self.DS)))

        def budget(dv: str) -> str:
            lo = 1.02 * _escs_floor(float(dv), 1.2)
            return _fmt(math.exp(rng.uniform(math.log(lo), math.log(30.0))))

        d_cmp, d_sweep = d(), d()
        argvs = [
            ("qcrb", "--family", "noon", "--d", d(), "--n", _fmt(rng.uniform(1.0, 20.0))),
            ("qcrb", "--family", "ecs", "--d", d(), "--alpha", _fmt(rng.uniform(0.3, 3.0)), "--format", "json"),
            ("qcrb", "--family", "escs", "--d", d(), "--alpha", _fmt(rng.uniform(0.3, 3.0)),
             "--r-prime", _fmt(rng.uniform(0.2, 1.5))),
            ("qcrb", "--family", "esvs", "--d", d(), "--r", _fmt(rng.uniform(0.2, 2.0)), "--format", "json"),
            self.KNOWN_FAULT,
            ("compare", "--d", d_cmp, "--n-bar", budget(d_cmp)),
            ("sweep-escs", "--d", d_sweep, "--n-bar", budget(d_sweep), "--format", "json"),
            ("unbalanced", "--d", d(), "--r-min", _fmt(rng.uniform(0.2, 1.0)),
             "--r-max", _fmt(rng.uniform(1.5, 3.0)), "--steps", str(int(rng.integers(20, 61)))),
            ("experiment", "--r", "1"),
            ("figure", "--id", "4"),
        ]
        rng.shuffle(argvs)
        self.argvs = [tuple(a) for a in argvs]
        self.in_process_out: dict[tuple, tuple[int, bytes]] = {}

    def next_round(self) -> list[tuple[str, ...]]:
        return list(self.argvs)

    def run(self, argv):
        proc = subprocess.run(
            [self.python, "-m", "noonlike.cli", *argv],
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}")
        return proc.stdout

    def run_in_process(self, argv):
        """The same invocation through noonlike.cli.main in this process."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = _NOONLIKE.cli.main(list(argv))
        self.in_process_out[argv] = (code, out.getvalue().encode())

    @staticmethod
    def record(argv, out):
        return out

    def check(self, ops, records) -> list[str]:
        status = ["ok"] * len(ops)
        first: dict[tuple, bytes] = {}
        verdict: dict[tuple, str] = {}
        for i, (argv, rec) in enumerate(zip(ops, records)):
            if isinstance(rec, Error):
                status[i] = f"{rec.kind}: {rec.message}"
                continue
            if argv not in first:
                first[argv] = rec
                try:
                    verdict[argv] = self.check_output(argv, rec.decode())
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    verdict[argv] = f"unparsable output: {exc!r}"
            if rec != first[argv]:
                status[i] = "identical invocations gave different bytes"
            elif self.in_process_out.get(argv, (0, rec)) != (0, rec):
                status[i] = "cli.main in process gave different bytes"
            else:
                status[i] = verdict[argv]
        return status

    def check_output(self, argv: tuple, text: str) -> str:
        cmd = argv[0]
        args = {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}
        cols, rows = parse_table(text)
        table = [dict(zip(cols, row)) for row in rows]
        if cmd == "qcrb":
            return self._check_qcrb(argv, args, table)
        if cmd == "compare":
            return self._check_compare(args, table)
        if cmd == "sweep-escs":
            return self._check_sweep(args, table)
        if cmd == "unbalanced":
            grid = np.linspace(float(args["r-min"]), float(args["r-max"]), int(args["steps"]))
            return self._check_unbalanced(int(args["d"]), grid, table)
        if cmd == "experiment":
            return self._check_experiment(float(args["r"]), table)
        if cmd == "figure":  # figure 4: d=5, squeeze 0.3..3 in 60 points
            return self._check_unbalanced(5, np.linspace(0.3, 3.0, 60), table)
        return f"no check for {cmd}"

    @staticmethod
    def _compare_columns(row: dict, ref: dict, keys, rtol=1e-9) -> list[str]:
        return [k for k in keys if not close(row[k], ref[k], rtol=rtol)]

    def _check_qcrb(self, argv, args, table) -> str:
        fam, d = args["family"], int(args["d"])
        p1 = float(args["n"] if fam == "noon" else args["r"] if fam == "esvs" else args["alpha"])
        p2 = float(args["r-prime"]) if fam == "escs" else None
        if len(table) != 1 or table[0]["family"] != fam:
            return "qcrb row missing"
        row = table[0]
        if "--optimized-b" in argv:
            ref = refs.optimized_report(fam, d, p1, p2)
            bad = self._compare_columns(row, ref, ("qcrb", "f", "R", "b2", "n_tilde", "n_bar"))
            if bad == ["n_bar"] and argv == self.KNOWN_FAULT:
                return "known"
            return f"optimized qcrb columns {bad} differ" if bad else "ok"
        ref = refs.balanced_report(fam, d, p1, p2)
        bad = self._compare_columns(row, ref, ("qcrb", "f", "R", "b2", "n_tilde", "n_bar"))
        if bad:
            return f"qcrb columns {bad} differ"
        mean, mean2, vac = refs.moments(fam, p1, p2)
        dense = refs.dense_inverse_bound(d, mean, mean2, refs.balanced_b2(d, vac))[0]
        if not close(row["qcrb"], dense, rtol=1e-9) or row["qcrb"] > refs.noon_bound(d, row["n_bar"]) * (1 + 1e-9):
            return "qcrb disagrees with the dense inverse or the NOON bound"
        return "ok"

    def _check_compare(self, args, table) -> str:
        d, n = int(args["d"]), float(args["n-bar"])
        if [row["family"] for row in table] != list(refs.FAMILIES):
            return "compare rows missing"
        for row in table:
            fam = row["family"]
            ref = refs.balanced_report(fam, d, row["parameter"], 1.0 if fam == "escs" else None)
            bad = self._compare_columns(row, ref, ("qcrb", "f", "R", "b2", "n_tilde", "n_bar"))
            if bad or not close(row["n_bar"], n, rtol=1e-9):
                return f"compare {fam} columns {bad or ['n_bar']} differ"
            if row["qcrb"] > refs.noon_bound(d, n) * (1 + 1e-9):
                return "compare bound above NOON"
        q = [row["qcrb"] for row in table]
        f = [row["f"] for row in table]
        if not all(a > b for a, b in zip(q, q[1:])) or not all(a > b for a, b in zip(f, f[1:])):
            return "compare families not strictly ordered"
        return "ok"

    def _check_sweep(self, args, table) -> str:
        d, n = int(args["d"]), float(args["n-bar"])
        grid = np.linspace(0.4, 1.2, 3)
        if len(table) != len(grid):
            return "sweep rows missing"
        q = []
        for row, rp in zip(table, grid):
            alpha = refs.solve_parameter("escs", d, n, rp)
            ref_q = refs.balanced_report("escs", d, alpha, rp)["qcrb"]
            if not (close(row["r_prime"], rp, rtol=1e-11) and close(row["n_bar"], n, rtol=1e-11)
                    and close(row["qcrb"], ref_q, rtol=1e-7)):
                return f"sweep row r'={rp} differs from the reference"
            q.append(row["qcrb"])
        if not all(a > b for a, b in zip(q, q[1:])):
            return "sweep not strictly decreasing"
        return "ok"

    def _check_unbalanced(self, d: int, grid: np.ndarray, table) -> str:
        if len(table) != len(grid):
            return "unbalanced rows missing"
        r = np.array([row["r"] for row in table])
        got = {k: np.array([row[k] for row in table]) for k in table[0]}
        bal = refs.balanced_report("esvs", d, grid)
        unb = refs.optimized_report("esvs", d, grid)
        checks = {
            "r": close(r, grid, rtol=1e-11),
            "n_bar_balanced": close(got["n_bar_balanced"], bal["n_bar"], rtol=1e-9),
            "qcrb_balanced": close(got["qcrb_balanced"], bal["qcrb"], rtol=1e-9),
            "n_bar_unbalanced": close(got["n_bar_unbalanced"], unb["n_bar"], rtol=1e-9),
            "qcrb_unbalanced": close(got["qcrb_unbalanced"], unb["qcrb"], rtol=1e-9),
            "NOON bound": got["qcrb_balanced"] <= refs.noon_bound(d, got["n_bar_balanced"]) * (1 + 1e-9),
        }
        bad = [k for k, ok in checks.items() if not np.all(ok)]
        return f"unbalanced columns {bad} differ" if bad else "ok"

    def _check_experiment(self, r: float, table) -> str:
        if len(table) != 1:
            return "experiment row missing"
        row = table[0]
        amps = refs.heralded_amplitudes(r)
        mean, _ = refs.heralded_moments(r)
        got = np.array([row[f"abs_c{k}"] for k in range(5)])
        checks = {
            "amplitudes": np.all(close(got, amps, rtol=0.0, atol=1e-10)),
            "n_bar": close(row["n_bar"], mean, rtol=1e-10),
            "success_prob": close(row["success_prob"], refs.heralded_success_probability(r), rtol=1e-9),
            "fidelity": row["fidelity"] >= 1.0 - 1e-9,
            "branch_phase": abs(abs(row["branch_phase"]) - math.pi) < 1e-9,
        }
        bad = [k for k, ok in checks.items() if not ok]
        return f"experiment {bad} differ from the reference" if bad else "ok"


WORKLOADS = {w.name: w for w in (BudgetSweep, HeraldedSource, CliMix)}
