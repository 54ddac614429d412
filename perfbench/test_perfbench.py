"""Tests of the benchmark itself: its reference formulas and a smoke pass.

The reference formulas are checked against each other and against
computations that share no code with them: Fock-series sums, operator
exponentials in a truncated Fock space, and a permanent-based evaluation of
the heralded circuit.  The smoke tests run one round of each workload and
check that a perturbed output is caught.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import refs  # noqa: E402
import workloads  # noqa: E402


def _series_moments(amps: np.ndarray) -> tuple[float, float, float]:
    p = np.abs(amps) ** 2
    n = np.arange(len(p), dtype=np.float64)
    return float(p @ n), float(p @ (n * n)), float(p[0])


def _coherent_series(alpha: float, n_max: int = 200) -> np.ndarray:
    n = np.arange(n_max + 1)
    logs = -0.5 * alpha**2 + n * math.log(alpha) - 0.5 * np.array([math.lgamma(k + 1.0) for k in n])
    return np.exp(logs)


def _squeezed_series(r: float, n_max: int = 400) -> np.ndarray:
    out = np.zeros(n_max + 1)
    t = math.tanh(r)
    for m in range(n_max // 2 + 1):
        log_mag = (-0.5 * math.log(math.cosh(r)) + m * math.log(t) + 0.5 * math.lgamma(2 * m + 1.0)
                   - m * math.log(2.0) - math.lgamma(m + 1.0))
        out[2 * m] = (-1) ** m * math.exp(log_mag)
    return out


def _expm_antihermitian(g: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(1j * g)  # 1j g is Hermitian
    return (vecs * np.exp(-1j * vals)) @ vecs.conj().T


def _squeezed_coherent_operator(alpha: float, r: float, dim: int = 160) -> np.ndarray:
    """D(alpha) S |0> with the squeeze axis along the displacement's anti-squeezed quadrature."""
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    ad = a.T
    squeeze = _expm_antihermitian(0.5 * r * (ad @ ad - a @ a))
    displace = _expm_antihermitian(alpha * (ad - a))
    vac = np.zeros(dim)
    vac[0] = 1.0
    return displace @ squeeze @ vac


class TestReferenceFormulas:
    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5, 4.0])
    def test_coherent_moments_match_series(self, alpha):
        want = _series_moments(_coherent_series(alpha))
        got = [float(x) for x in refs.moments("ecs", alpha)]
        np.testing.assert_allclose(got, want, rtol=1e-10)

    @pytest.mark.parametrize("r", [0.2, 0.8, 1.5])
    def test_squeezed_vacuum_moments_match_series(self, r):
        want = _series_moments(_squeezed_series(r))
        got = [float(x) for x in refs.moments("esvs", r)]
        np.testing.assert_allclose(got, want, rtol=1e-10)

    @pytest.mark.parametrize("alpha,r", [(0.5, 0.3), (1.2, 0.6), (2.0, 0.9)])
    def test_squeezed_coherent_moments_match_operators(self, alpha, r):
        want = _series_moments(_squeezed_coherent_operator(alpha, r))
        got = [float(x) for x in refs.moments("escs", alpha, r)]
        np.testing.assert_allclose(got, want, rtol=1e-8)

    @pytest.mark.parametrize("d", [1, 2, 5, 50])
    def test_closed_forms_match_dense_inverse(self, d):
        rng = np.random.default_rng(d)
        for fam in refs.FAMILIES:
            p1 = rng.uniform(0.3, 2.5, 20)
            p2 = rng.uniform(0.2, 1.5, 20) if fam == "escs" else None
            mean, mean2, vac = refs.moments(fam, p1, p2)
            b2 = refs.balanced_b2(d, vac)
            dense = refs.dense_inverse_bound(d, mean, mean2, b2)
            np.testing.assert_allclose(refs.bound_from_weights(d, mean, mean2, b2), dense, rtol=1e-9)
            np.testing.assert_allclose(refs.balanced_report(fam, d, p1, p2)["qcrb"], dense, rtol=1e-9)

    @pytest.mark.parametrize("d", [1, 5, 50])
    def test_noon_report_is_the_noon_bound(self, d):
        n = np.array([0.5, 1.0, 2.0, 7.5, 30.0])
        np.testing.assert_allclose(refs.balanced_report("noon", d, n)["qcrb"], refs.noon_bound(d, n), rtol=1e-13)

    @pytest.mark.parametrize("d", [1, 2, 5, 50])
    def test_ellipse_holds_the_balanced_point(self, d):
        r = np.linspace(0.2, 2.5, 12)
        mean, _, vac = refs.moments("esvs", r)
        b2 = refs.balanced_b2(d, vac)
        c = refs.ellipse_reference_weight(d, vac, b2)
        np.testing.assert_allclose(c, np.sqrt(b2), rtol=1e-10)
        np.testing.assert_allclose((c * c + d * b2) * mean, refs.balanced_nbar(d, mean, vac), rtol=1e-10)

    @pytest.mark.parametrize("d", [1, 5, 50])
    def test_optimized_weights_lie_on_the_ellipse(self, d):
        r = np.linspace(0.2, 3.0, 30)  # reaches the ellipse boundary at the large end
        _, _, vac = refs.moments("esvs", r)
        rep = refs.optimized_report("esvs", d, r)
        b2, c = rep["b2"], rep["c"]
        norm = (d + d * (d - 1) * vac) * b2 + 2 * d * vac * np.sqrt(b2) * c + c * c
        np.testing.assert_allclose(norm, 1.0, rtol=1e-10)
        np.testing.assert_allclose(rep["n_bar"], (c * c + d * b2) * rep["n_tilde"], rtol=1e-13)
        assert np.any(b2 < rep["R"] / (d + np.sqrt(d)))

    @pytest.mark.parametrize("fam", ["ecs", "escs", "esvs"])
    def test_solved_parameter_reaches_the_budget(self, fam):
        d = np.array([1.0, 2.0, 5.0, 50.0] * 3)
        n = np.array([1.6, 2.0, 7.0, 29.0] * 3) * np.repeat([1.0, 1.3, 0.97], 4)
        p = refs.solve_parameter(fam, d, n, 1.2)
        mean, _, vac = refs.moments(fam, p, 1.2)
        np.testing.assert_allclose(refs.balanced_nbar(d, mean, vac), n, rtol=1e-12)


def _permanent(m: np.ndarray) -> complex:
    k = m.shape[0]
    return sum(np.prod([m[i, s[i]] for i in range(k)]) for s in itertools.permutations(range(k))) if k else 1.0


def _heralded_by_permanents(r: float) -> tuple[np.ndarray, float]:
    """Heralded branch magnitudes and success probability of the reference circuit.

    The circuit (README): beam splitter on modes 2,3, photon-number phase
    -pi/2 on mode 2, beam splitter on modes 1,2, phase pi on mode 2, all
    50:50 with the 'real' convention; herald one photon in mode 3, keep at
    most four photons in modes 1 and 2.  Every element conserves photon
    number, so input terms with at most five photons decide the output.
    """
    alpha = math.sqrt(1.5 * math.tanh(r))
    coh, sq = _coherent_series(alpha, 5), _squeezed_series(r, 5)

    def splitter(a, b):
        u = np.eye(3, dtype=complex)
        tau = rho = math.sqrt(0.5)
        u[a, a], u[b, a], u[a, b], u[b, b] = tau, -rho, rho, tau
        return u

    def phase(mode, phi):
        u = np.eye(3, dtype=complex)
        u[mode, mode] = np.exp(1j * phi)
        return u

    u = phase(1, math.pi) @ splitter(0, 1) @ phase(1, -math.pi / 2) @ splitter(1, 2)
    out = {}
    for o1 in range(5):
        for o2 in range(5 - o1):
            total = o1 + o2 + 1
            amp = 0j
            for n1 in range(total + 1):
                n2 = total - n1
                rows = [0] * o1 + [1] * o2 + [2]
                cols = [0] * n1 + [1] * n2
                norm = math.sqrt(math.factorial(o1) * math.factorial(o2) * math.factorial(n1) * math.factorial(n2))
                amp += coh[n1] * sq[n2] * _permanent(u[np.ix_(rows, cols)]) / norm
            out[(o1, o2)] = amp
    prob = sum(abs(a) ** 2 for a in out.values())
    mags = np.array([math.sqrt(2.0) * abs(out[(n, 0)]) for n in range(5)]) / math.sqrt(prob)
    return mags, prob


class TestHeraldedReference:
    @pytest.mark.parametrize("r", [0.3, 1.0, 1.9])
    def test_amplitudes_and_probability_match_permanents(self, r):
        mags, prob = _heralded_by_permanents(r)
        np.testing.assert_allclose(refs.heralded_amplitudes(r), mags, atol=1e-12)
        np.testing.assert_allclose(refs.heralded_success_probability(r), prob, rtol=1e-12)


@pytest.fixture(scope="module")
def package():
    import noonlike
    import noonlike.circuit
    import noonlike.cli
    import noonlike.families

    workloads.bind(noonlike)
    return noonlike


def _one_round(workload):
    ops = workload.next_round()
    records = []
    for op in ops:
        try:
            records.append(workload.record(op, workload.run(op)))
        except Exception as exc:
            records.append(workloads.Error(type(exc).__name__, str(exc)))
    return ops, records


class TestSmoke:
    def test_budget_sweep_round(self, package):
        w = workloads.BudgetSweep(seed=3)
        ops, records = _one_round(w)
        status = w.check(ops, records)
        assert status.count("known") == 1 and status.count("ok") == len(ops) - 1
        i = status.index("ok")
        records[i][2 * 7] *= 1 + 1e-6  # the ESCS bound
        assert w.check(ops, records)[i] == "escs qcrb differs from the reference"

    def test_heralded_source_round(self, package):
        w = workloads.HeraldedSource(seed=3)
        w.CUTOFFS = (5, 14)  # the cutoffs change the cost, not the output
        ops, records = _one_round(w)
        assert w.check(ops, records) == ["ok", "ok"]
        records[0] = (records[0][0] * (1 + 1e-8),) + records[0][1:]
        assert w.check(ops, records)[0] != "ok"

    def test_cli_mix_round_in_process(self, package):
        w = workloads.CliMix(seed=3)
        ops = w.next_round()
        for argv in ops:
            w.run_in_process(argv)
        records = [w.in_process_out[argv][1] for argv in ops]
        status = w.check(ops, records)
        assert status.count("known") == 1 and status.count("ok") == len(ops) - 1
        i = status.index("ok")
        w.in_process_out[ops[i]] = (0, records[i] + b"\n")
        assert w.check(ops, records)[i] == "cli.main in process gave different bytes"

    def test_run_prints_a_result(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "budget-sweep", "--seed", "1",
             "--seconds", "0.05", "--trace", "0"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert result["correct"] is True
        assert result["failed"] * 13 == result["attempted"]
        assert set(result["metrics"]) == {"setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "alloc_peak_mib"}
        assert set(json.loads(lines[-2].removeprefix("raw "))) == set(result["metrics"])

    def test_run_fails_without_the_program(self, tmp_path):
        shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "budget-sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
