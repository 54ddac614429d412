"""Gates on work counts that do not depend on the machine.

These gates count operations, never seconds, so they hold on any hardware:
a change that makes a layer do more work fails here even where a timing
benchmark could not tell it apart from noise.
"""

import math

import pytest

from noonlike import circuit, cli, families, states
from noonlike.circuit import CircuitConfig, experiment_qcrb_comparison, run_experiment
from noonlike.families import solve_param_for_nbar
from noonlike.qcrb import QcrbReport
from noonlike.states import Coherent, Fock, SqueezedCoherent, SqueezedVacuum

# the reference circuit's transfer table: its 15 kept sectors, and at most 54
# nonzero terms over them, one triple product each in a run_experiment call
KEPT_SECTORS = 15
MAX_TRANSFER_TERMS = 54
MAX_BISECTION_STEPS = 49  # the ECS bisection's map evaluations in one solve
MAX_NEWTON_STEPS = 8
QCRB_MODULES = {"noonlike.errors", "noonlike.states", "noonlike.qcrb", "noonlike.families", "noonlike.cli"}


def _count_builds(monkeypatch) -> list[int]:
    """Empty ``circuit``'s cache for the test, and count its sector builds in [0]."""
    builds = [0]
    transfer_terms = circuit._transfer_terms

    def counted(*args):
        builds[0] += 1
        return transfer_terms(*args)

    monkeypatch.setattr(circuit, "_transfer_terms", counted)
    monkeypatch.setattr(circuit, "_COMPILED", {})
    return builds


@pytest.fixture
def table(monkeypatch):
    """The reference circuit's transfer table, and the terms that runs read from it.

    Returns (kept, read): kept is what ``_compiled`` gives, compiled afresh
    in an empty cache, one build per kept sector, and read[0] counts the
    (m, k, T) terms read from its rows, one triple product each.  The
    counting table is served in place of ``_compiled``, so it enters no
    cache, and the module's own cache is back as it was after the test.
    """
    read = [0]

    class Terms(tuple):
        def __iter__(self):
            read[0] += len(self)
            return super().__iter__()

    builds = _count_builds(monkeypatch)
    budget, kept = circuit._compiled(circuit.default_circuit_config())
    assert builds == [KEPT_SECTORS]
    counted = tuple((n1, n2, Terms(terms)) for n1, n2, terms in kept)
    monkeypatch.setattr(circuit, "_compiled", lambda cfg: (budget, counted))
    return kept, read


def test_reference_circuit_transfer_table(table):
    kept, _ = table
    assert len(kept) == KEPT_SECTORS
    assert sum(len(terms) for _, _, terms in kept) <= MAX_TRANSFER_TERMS


def test_reference_circuit_products(table):
    _, read = table
    run_experiment(1.0)
    assert 0 < read[0] <= MAX_TRANSFER_TERMS


def test_figure_6_builds_the_circuit_once(monkeypatch, capsys):
    # the transfer table depends on the config alone, so a grid of r
    # compiles the circuit once: one build per kept sector for 20 points
    builds = _count_builds(monkeypatch)
    assert cli.main(["figure", "--id", "6", "--steps", "20"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 20
    assert builds == [KEPT_SECTORS]


def test_cache_starts_over_past_128_configs(monkeypatch):
    # keyed on identity, each new config compiles once; the cache holds at
    # most 128, the bound of the functools cache it replaced
    builds = _count_builds(monkeypatch)
    configs = [CircuitConfig(0, 1, (), 2, 0, 0) for _ in range(129)]
    for cfg in configs[:128]:
        circuit._compiled(cfg)
    assert builds == [128] and len(circuit._COMPILED) == 128
    circuit._compiled(configs[0])
    assert builds == [128]
    circuit._compiled(configs[128])
    assert builds == [129] and len(circuit._COMPILED) == 1


def test_warm_run_hashes_no_config(monkeypatch):
    # the cache is keyed on the config's identity: a warm run hashes nothing
    hashes = [0]
    config_hash = CircuitConfig.__hash__

    def counted(cfg):
        hashes[0] += 1
        return config_hash(cfg)

    run_experiment(1.0)
    monkeypatch.setattr(CircuitConfig, "__hash__", counted)
    run_experiment(1.0)
    assert hashes == [0]
    hash(circuit.default_circuit_config())
    assert hashes == [1]  # the count sees a hash


def test_parser_fills_only_the_named_command():
    # parse_args adds the options of the command in argv alone; the other
    # commands stay choices without options
    parser = cli._build_parser("qcrb")
    [choices] = [a.choices for a in parser._actions if a.dest == "command"]
    filled = {name: len(p._actions) - 1 for name, p in choices.items()}  # less each -h
    assert filled == {name: len(cli._takes(name)) if name == "qcrb" else 0 for name in choices}


@pytest.mark.parametrize(
    "family, r_prime, bisects", [("ecs", None, True), ("escs", 1.0, False), ("esvs", None, False)]
)
@pytest.mark.parametrize("d, n_bar", [(1, 4.0), (5, 4.0), (5, 20.0)])
def test_solve_nbar_evaluations(monkeypatch, bounds, family, r_prime, bisects, d, n_bar):
    # only the ECS inverse evaluates n_bar, by bisection; the solve checks
    # the solved state once, through its moments
    steps = 0
    bisect = states._bisect_increasing

    def counted_bisect(fn, *args):
        def step(p):
            nonlocal steps
            steps += 1
            return fn(p)

        return bisect(step, *args)

    monkeypatch.setattr(states, "_bisect_increasing", counted_bisect)
    solve_param_for_nbar(family, d, n_bar, r_prime)
    assert (steps > 0) == bisects and steps <= MAX_BISECTION_STEPS
    assert bounds == {"moments": 1, "reports": 0}


@pytest.fixture
def bounds(monkeypatch):
    """Counts of the constituent ``moments()`` calls and of the ``QcrbReport``s built."""
    count = {"moments": 0, "reports": 0}

    def counted(method, key):
        def call(*args, **kwargs):
            count[key] += 1
            return method(*args, **kwargs)

        return call

    for cls in (Fock, Coherent, SqueezedCoherent, SqueezedVacuum):
        monkeypatch.setattr(cls, "moments", counted(cls.moments, "moments"))
    monkeypatch.setattr(QcrbReport, "__init__", counted(QcrbReport.__init__, "reports"))
    return count


@pytest.mark.parametrize(
    "family, r_prime",
    [("noon", None), ("ecs", None), ("escs", 0.4), ("escs", 1.0), ("esvs", None)],
)
@pytest.mark.parametrize("d, n_bar", [(1, 4.0), (5, 4.0), (5, 20.0)])
def test_matched_bound_takes_moments_and_builds_one_report(bounds, family, r_prime, d, n_bar):
    # the moments that check the solve give the bound: one moments() call and
    # one report per matched bound
    report = families.matched_report(family, d, n_bar, r_prime)
    assert bounds == {"moments": 1, "reports": 1}
    assert report.family == family


def test_compare_takes_moments_and_builds_a_report_once_per_family(bounds):
    families.compare_families_at_nbar(5, 4.0)
    assert bounds == {"moments": 4, "reports": 4}


class _CountedExp:
    """``math`` with a count of its ``exp`` calls."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def exp(self, x):
        self.calls += 1
        return math.exp(x)


@pytest.mark.parametrize("r_prime", [0.4, 1.0])
@pytest.mark.parametrize("d, n_bar", [(1, 4.0), (5, 4.0), (5, 20.0)])
def test_escs_newton_steps(monkeypatch, r_prime, d, n_bar):
    # the ESCS inverse takes one exp for its start and one per Newton step
    counted = _CountedExp()
    monkeypatch.setattr(states, "math", counted)
    states.FAMILIES["escs"].inverse(d, r_prime, n_bar)
    assert 2 <= counted.calls <= 1 + MAX_NEWTON_STEPS


@pytest.fixture
def solves(monkeypatch):
    """One-element list counting the passes of ``families._match``.

    Every matched budget in the package is solved by that one pass, which
    ``solve_param_for_nbar`` and ``matched_report`` share, so the count sees
    the calls of ``circuit`` and ``cli`` too.
    """
    count = [0]
    original = families._match

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(families, "_match", counted)
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


@pytest.mark.parametrize(
    "argv, compared",
    [
        pytest.param(["figure", "--id", "4"], 58, id="figure 4"),
        pytest.param(["unbalanced", "--d", "1", "--r-max", "6", "--steps", "120"], 119,
                     id="unbalanced d=1 golden"),
    ],
)
def test_unbalanced_solves_once_per_compared_point(solves, capsys, argv, compared):
    # the balanced bound is solved at each unbalanced n_bar inside the overlap
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert solves == [compared]


def test_qcrb_command_modules(cli_in_fresh_interpreter):
    code, modules = cli_in_fresh_interpreter(["qcrb", "--family", "esvs", "--d", "5", "--r", "2"])
    assert code == 0
    assert {m for m in modules if m.startswith("noonlike.")} <= QCRB_MODULES
