"""Property tests of the paper's proven orderings over random inputs.

NOON is the worst probe of the class (the paper's headline claim): the
balanced bound is ``qcrb_from_f(d, n_bar, f)``, increasing in
f = <n>/<n^2>.  By Jensen f <= 1/<n>, and n_bar = <n>/(1 + d p0) <= <n>,
so f <= 1/n_bar = f_NOON, with equality only for a number state, where
Var(n) = 0 and p0 = 0.

The squeezed families' inverses, which match a probe to a budget n_bar,
``mean_total_photons`` of its state, are drawn the same way: each round
trip lands within a few ulp of the budget, and a budget below the ESCS
floor stays unreachable.
"""

import math

import pytest

from noonlike import (
    FAMILIES,
    Balanced,
    BracketFailure,
    FockSuperposition,
    SqueezedCoherent,
    mean_total_photons,
    moments,
    noon_qcrb,
    qcrb_closed_form,
    solve_param_for_nbar,
)
from noonlike.families import constituent
from noonlike.qcrb import noon_ceiling

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# (real, imaginary) parts of the amplitudes of |0> .. |n>, n <= 12, before normalizing
PARTS = st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=13)


@hypothesis.settings(max_examples=300, derandomize=True, deadline=None, database=None)
@hypothesis.given(parts=PARTS, d=st.integers(1, 1000))
def test_noon_is_the_worst_of_the_class(parts, d):
    # scaled so that the largest component is 1: a subnormal squared norm would
    # make 1 / sqrt(norm) inexact, and the state unnormalized
    big = max(abs(v) for part in parts for v in part) or 1.0  # the zero state fails the assume
    parts = [(x / big, y / big) for x, y in parts]
    norm = math.fsum(x * x + y * y for x, y in parts)
    photons = math.fsum(x * x + y * y for x, y in parts[1:])
    hypothesis.assume(photons > 1e-12 * norm)  # vacuum-dominated states have no bound
    scale = 1.0 / math.sqrt(norm)
    state = FockSuperposition(tuple(complex(x, y) * scale for x, y in parts))
    report = qcrb_closed_form(d, state, Balanced())
    n_bar = report.n_bar
    assert report.qcrb <= noon_ceiling(d, n_bar)
    m = moments(state)
    if m.variance / m.mean_n**2 > 1e-9 or m.vacuum_prob > 1e-9:  # not one-hot
        assert report.qcrb < noon_qcrb(d, n_bar)


EPS = 2.0**-52


def _slope(nbar, p):
    """p dn_bar/dp of the map ``nbar`` at p, by a central difference; 0 at p = 0."""
    return (nbar(p * (1 + 1e-7)) - nbar(p * (1 - 1e-7))) / 2e-7


@hypothesis.settings(max_examples=400, derandomize=True, deadline=None, database=None)
@hypothesis.given(
    family=st.sampled_from(["escs", "esvs"]),
    d=st.one_of(st.integers(1, 60), st.sampled_from([10**3, 10**6, 10**12])),
    decade=st.floats(-12.0, 140.0),
    r_prime=st.one_of(st.just(0.0), st.floats(1e-8, 4.0), st.floats(4.0, 40.0)),
)
def test_inverse_round_trip(family, d, decade, r_prime):
    # the inverse hits the budget to a few ulp of its parameter, which the
    # condition number of n_bar(p) carries into n_bar
    build = constituent(family, r_prime)

    def nbar(p):
        return mean_total_photons(d, build(p))

    n_bar = 10.0**decade
    hypothesis.assume(n_bar >= nbar(0.0))
    p = FAMILIES[family].inverse(d, r_prime, n_bar)
    assert abs(nbar(p) - n_bar) <= 4 * EPS * (n_bar + abs(_slope(nbar, p)))


@hypothesis.settings(max_examples=200, derandomize=True, deadline=None, database=None)
@hypothesis.given(
    d=st.one_of(st.integers(1, 60), st.sampled_from([10**3, 10**6])),
    r_prime=st.floats(0.05, 40.0),
    share=st.floats(0.0, 1.0, exclude_max=True),
)
def test_below_the_escs_floor_raises(d, r_prime, share):
    floor = mean_total_photons(d, SqueezedCoherent(0.0, r_prime))
    n_bar = share * floor
    hypothesis.assume(n_bar > 1e-150 and floor - n_bar > 1e-10)
    with pytest.raises(BracketFailure, match="is below the floor"):
        solve_param_for_nbar("escs", d, n_bar, r_prime)
