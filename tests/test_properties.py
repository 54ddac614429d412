"""Property tests of the paper's proven orderings over random inputs.

NOON is the worst probe of the class (the paper's headline claim): the
balanced bound is ``qcrb_from_f(d, n_bar, f)``, increasing in
f = <n>/<n^2>.  By Jensen f <= 1/<n>, and n_bar = <n>/(1 + d p0) <= <n>,
so f <= 1/n_bar = f_NOON, with equality only for a number state, where
Var(n) = 0 and p0 = 0.
"""

import math

import pytest

from noonlike import Balanced, FockSuperposition, ProbeSpec, moments, noon_qcrb, qcrb_closed_form
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
    report = qcrb_closed_form(ProbeSpec(d, state, Balanced()))
    n_bar = report.n_bar
    assert report.qcrb <= noon_ceiling(d, n_bar)
    m = moments(state)
    if m.variance / m.mean_n**2 > 1e-9 or m.vacuum_prob > 1e-9:  # not one-hot
        assert report.qcrb < noon_qcrb(d, n_bar)
