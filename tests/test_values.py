"""Value semantics of the immutable classes of ``noonlike``.

They share one frozen-value base: objects of one class with equal fields are
equal and hash alike, objects of different classes are never equal (even
with no fields, or the same field values), the repr reads
``Name(field=value, ...)``, no field can be assigned or deleted, and copy
and pickle rebuild an equal object.
"""

import copy
import pickle

import pytest

from noonlike.circuit import ExperimentResult
from noonlike.families import SweepCurve
from noonlike.qcrb import Balanced, FixedB, OptimizedB, QcrbReport
from noonlike.states import (
    Coherent,
    FamilyRow,
    Fock,
    FockSuperposition,
    Moments,
    SqueezedCoherent,
    SqueezedVacuum,
)

# (class, keyword arguments, the same with one field changed or None, repr)
CASES = [
    (Fock, dict(n=2.0), dict(n=3.0), "Fock(n=2.0)"),
    (Coherent, dict(alpha=1.0), dict(alpha=1.5), "Coherent(alpha=1.0)"),
    (SqueezedVacuum, dict(r=0.5), dict(r=0.75), "SqueezedVacuum(r=0.5)"),
    (
        SqueezedCoherent,
        dict(alpha=1.0, r=0.5),
        dict(alpha=1.0, r=0.75),
        "SqueezedCoherent(alpha=1.0, r=0.5)",
    ),
    (
        FockSuperposition,
        dict(amps=(0.6, 0.8)),
        dict(amps=(0.8, 0.6)),
        "FockSuperposition(amps=((0.6+0j), (0.8+0j)))",
    ),
    (
        FamilyRow,
        dict(parameter="n", needs_r_prime=False, state=Fock, inverse=None),
        dict(parameter="n", needs_r_prime=True, state=Fock, inverse=None),
        "FamilyRow(parameter='n', needs_r_prime=False, state=<class 'noonlike.states.Fock'>,"
        " inverse=None)",
    ),
    (
        Moments,
        dict(mean_n=1.0, mean_n2=2.0, vacuum_prob=0.5),
        dict(mean_n=1.0, mean_n2=2.5, vacuum_prob=0.5),
        "Moments(mean_n=1.0, mean_n2=2.0, vacuum_prob=0.5)",
    ),
    (Balanced, dict(), None, "Balanced()"),
    (FixedB, dict(b2=0.1), dict(b2=0.2), "FixedB(b2=0.1)"),
    (OptimizedB, dict(), None, "OptimizedB()"),
    (
        QcrbReport,
        dict(qcrb=1.0, f=0.5, R=2.0, b2=0.1, n_tilde=2.0, n_bar=1.5, family="ecs", parameter=1.25),
        dict(qcrb=1.0, f=0.5, R=2.0, b2=0.1, n_tilde=2.0, n_bar=1.5, family="", parameter=1.25),
        "QcrbReport(qcrb=1.0, f=0.5, R=2.0, b2=0.1, n_tilde=2.0, n_bar=1.5,"
        " family='ecs', parameter=1.25)",
    ),
    (
        SweepCurve,
        dict(points=((1.0, 0.5, 0.3),)),
        dict(points=((1.0, 0.5, 0.4),)),
        "SweepCurve(points=((1.0, 0.5, 0.3),))",
    ),
    (
        ExperimentResult,
        dict(phi_amps=(0j, 0.6, 0.8j), fidelity_to_noonlike=1.0, n_bar=1.64, success_prob=0.1,
             branch_phase=3.0),
        dict(phi_amps=(0j, 0.6, -0.8j), fidelity_to_noonlike=1.0, n_bar=1.64, success_prob=0.1,
             branch_phase=3.0),
        "ExperimentResult(phi_amps=(0j, 0.6, 0.8j), fidelity_to_noonlike=1.0, n_bar=1.64,"
        " success_prob=0.1, branch_phase=3.0)",
    ),
]


def _ids(case):
    return case[0].__name__


@pytest.fixture(params=CASES, ids=_ids)
def case(request):
    return request.param


def test_every_value_class_is_covered():
    assert len({c[0] for c in CASES}) == len(CASES) == 13


def test_equal_fields_give_equal_objects(case):
    cls, kwargs, _, _ = case
    a, b = cls(**kwargs), cls(**kwargs)
    assert a is not b
    assert a == b
    assert not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("case", [c for c in CASES if c[2] is not None], ids=_ids)
def test_changed_field_gives_unequal_object(case):
    cls, kwargs, changed, _ = case
    assert cls(**kwargs) != cls(**changed)


@pytest.mark.parametrize(
    "a, b",
    [
        (Balanced(), OptimizedB()),
        (Coherent(1.0), SqueezedVacuum(1.0)),
        (Fock(1.0), Coherent(1.0)),
        (Balanced(), ()),
        (Coherent(1.0), (1.0,)),
        (Moments(1.0, 2.0, 0.5), (1.0, 2.0, 0.5)),
    ],
    ids=lambda v: type(v).__name__,
)
def test_different_types_are_unequal(a, b):
    assert a != b
    assert b != a
    assert not a == b


def test_repr_is_the_dataclass_form(case):
    cls, kwargs, _, text = case
    assert repr(cls(**kwargs)) == text


def test_fields_cannot_be_assigned_or_deleted(case):
    cls, kwargs, _, _ = case
    obj = cls(**kwargs)
    for name in list(kwargs) + ["not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(obj, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert repr(obj) == case[3]


def test_keyword_and_positional_construction_agree(case):
    cls, kwargs, _, _ = case
    obj = cls(**kwargs)
    assert obj == cls(*kwargs.values())
    for name, value in kwargs.items():
        assert getattr(obj, name) == value


def test_defaults():
    report = QcrbReport(1.0, 0.5, 2.0, 0.1, 2.0, 1.5)
    assert (report.family, report.parameter) == ("", None)


def test_copy_and_pickle_give_equal_objects(case):
    cls, kwargs, _, _ = case
    obj = cls(**kwargs)
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is cls
        assert twin == obj
        assert repr(twin) == repr(obj)
