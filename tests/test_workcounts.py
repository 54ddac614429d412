"""Gates on work counts that do not depend on the machine.

These gates count operations, never seconds, so they hold on any hardware:
a change that makes a layer do more work fails here even where a timing
benchmark could not tell it apart from noise.
"""

import pytest

from noonlike import circuit, cli, families
from noonlike.circuit import experiment_qcrb_comparison, run_experiment
from noonlike.families import Family, solve_param_for_nbar

# what run_experiment builds for the reference circuit: the 30 sectors that can
# feed its herald, of 56 in its budget, and tables of at most the 55
# creation-operator entries that stay within them, of 105
MAX_SECTORS = 30
MAX_CREATION_ENTRIES = 55
# complex multiply-adds that apply the tables in one run_experiment(1.0)
MAX_TABLE_PRODUCTS = 176
MAX_NBAR_EVALS = 51
QCRB_MODULES = {"noonlike.errors", "noonlike.states", "noonlike.qcrb", "noonlike.families", "noonlike.cli"}


@pytest.fixture
def tables(monkeypatch):
    """The (occs, tables) that each ``budget_amplitudes`` call reads, and its products.

    Returns (built, products): built lists what ``_raising_tables`` gives per
    call, and products[0] counts the (dst, w) pairs read from the tables,
    one complex multiply-add each.
    """
    built, products = [], [0]
    original = circuit._raising_tables

    class Row(tuple):
        def __iter__(self):
            products[0] += len(self)
            return super().__iter__()

    def counted(*args):
        occs, tables = original(*args)
        built.append((occs, tables))
        return occs, tuple(tuple(map(Row, table)) for table in tables)

    monkeypatch.setattr(circuit, "_raising_tables", counted)
    return built, products


def test_reference_circuit_sectors(tables):
    built, _ = tables
    run_experiment(1.0)
    [(occs, per_mode)] = built
    assert len(occs) <= MAX_SECTORS
    assert len(per_mode) == 3 and all(len(table) == len(occs) for table in per_mode)
    assert all(sum(map(len, table)) <= MAX_CREATION_ENTRIES for table in per_mode)


def test_reference_circuit_products(tables):
    _, products = tables
    run_experiment(1.0)
    assert 0 < products[0] <= MAX_TABLE_PRODUCTS


def test_figure_6_builds_the_circuit_once(capsys):
    # the mode matrix, the tables and the post-selection index depend on the
    # config alone, so a grid of r builds each once
    caches = (circuit._composed, circuit._raising_tables, circuit._kept_sectors)
    for cache in caches:
        cache.cache_clear()
    assert cli.main(["figure", "--id", "6", "--steps", "20"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 20
    assert [cache.cache_info()[:2] for cache in caches] == [(19, 1)] * 3  # (hits, misses)


def test_parser_fills_only_the_named_command():
    # parse_args adds the options of the command in argv alone; the other
    # commands stay choices without options
    parser = cli._build_parser("qcrb")
    [choices] = [a.choices for a in parser._actions if a.dest == "command"]
    filled = {name: len(p._actions) - 1 for name, p in choices.items()}  # less each -h
    assert filled == {name: len(cli._takes(name)) if name == "qcrb" else 0 for name in choices}


@pytest.mark.parametrize("family, r_prime", [(Family.ECS, None), (Family.ESCS, 1.0), (Family.ESVS, None)])
@pytest.mark.parametrize("d, n_bar", [(1, 4.0), (5, 4.0), (5, 20.0)])
def test_solve_nbar_evaluations(monkeypatch, family, r_prime, d, n_bar):
    # the bisection steps evaluate the family's n_bar map; the residual check
    # then evaluates the solved state once through the general moments path
    steps = residuals = 0
    make_map, general = families.nbar_map, families.mean_total_photons

    def counted_map(*args):
        nbar = make_map(*args)

        def step(p):
            nonlocal steps
            steps += 1
            return nbar(p)

        return step

    def counted_residual(*args):
        nonlocal residuals
        residuals += 1
        return general(*args)

    monkeypatch.setattr(families, "nbar_map", counted_map)
    monkeypatch.setattr(families, "mean_total_photons", counted_residual)
    solve_param_for_nbar(family, d, n_bar, r_prime)
    assert residuals == 1
    assert 0 < steps and steps + residuals <= MAX_NBAR_EVALS


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
