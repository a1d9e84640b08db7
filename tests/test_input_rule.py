"""Every scalar the package takes in is checked by one rule, blockop.check_number.

One table lists each entry point and parameter with the values the rule rejects: a
bool, a float for an integer parameter, NaN, +-inf, an int beyond float range and
values below and above the parameter's range. Each must raise the entry point's own
GapeigError subclass, naming the parameter, before numpy or Python raises or warns.
"""

import math

import numpy as np
import pytest

from conftest import CANONICAL
from gapeig import (
    ApsSpec,
    BadSplit,
    BlockOperator,
    ConfigParse,
    DiracSpec,
    KOutOfRange,
    NonFinite,
    RandomSpec,
    SchurSystem,
    SpecInvalid,
    analytic_dirac_energy,
    assemble_block,
    gap_spectrum,
    lambda_k,
)
from gapeig.blockop import check_number
from gapeig.cli import config_from_dict

pytestmark = pytest.mark.filterwarnings("error")

HUGE = 10**400  # an exact int beyond float range: float() of it overflows
NOT_FINITE = [("nan", math.nan), ("+inf", math.inf), ("-inf", -math.inf),
              ("huge", HUGE), ("-huge", -HUGE)]


def _decoupled() -> BlockOperator:
    """n_plus = 2: levels at 2 and 3 above lambda0 = -1."""
    return BlockOperator(p=np.diag([2.0, 3.0]), c=np.zeros((1, 2)), amm=np.array([[-1.0]]))


def _dirac(**kw):
    return DiracSpec(**{"nu": 0.5, "kappa": -1, "n": 16, "r_max": 20.0, **kw})


def _aps(**kw):
    return ApsSpec(**{"modes": (0.0,), "length_l": 1.0, "n": 8, **kw})


def _random(**kw):
    return RandomSpec(**{"n_plus": 2, "n_minus": 2, **kw})


def _analytic(**kw):
    return analytic_dirac_energy(**{"nu": 0.5, "kappa": -1, "n_r": 0, **kw})


# (entry point, parameter, call with the value, error, a valid value, values out of
# range); the parameter is an integer one when its valid value is an int
PARAMETERS = [
    ("SchurSystem.value", "k", lambda v: SchurSystem(_decoupled(), 0.5).value(v),
     KOutOfRange, 2, [0, 3]),
    ("SchurSystem.levels", "m", lambda v: SchurSystem(_decoupled(), 0.5).levels(v),
     KOutOfRange, 2, [0, 3]),
    ("SchurSystem.vector", "k", lambda v: SchurSystem(_decoupled(), 0.5).vector(v),
     KOutOfRange, 2, [0, 3]),
    ("SchurSystem", "energy", lambda v: SchurSystem(_decoupled(), v), NonFinite, 0.5, []),
    ("lambda_k", "k", lambda v: lambda_k(_decoupled(), v), KOutOfRange, 2, [0, 3]),
    ("gap_spectrum", "k_max", lambda v: gap_spectrum(_decoupled(), v), KOutOfRange, 2,
     [0, 3]),
    ("DiracSpec", "nu", lambda v: _dirac(nu=v), SpecInvalid, 0.5, [-0.1, 1.5]),
    ("DiracSpec", "kappa", lambda v: _dirac(kappa=v), SpecInvalid, -1, [0]),
    ("DiracSpec", "n", lambda v: _dirac(n=v), SpecInvalid, 16, [15]),
    ("DiracSpec", "r_max", lambda v: _dirac(r_max=v), SpecInvalid, 20.0, [0.0, -1.0]),
    ("ApsSpec", "modes", lambda v: _aps(modes=(0.0, v)), SpecInvalid, 3.0, []),
    ("ApsSpec", "length_l", lambda v: _aps(length_l=v), SpecInvalid, 1.0, [0.0, -1.0]),
    ("ApsSpec", "n", lambda v: _aps(n=v), SpecInvalid, 8, [7]),
    ("RandomSpec", "n_plus", lambda v: _random(n_plus=v), SpecInvalid, 1, [0]),
    ("RandomSpec", "n_minus", lambda v: _random(n_minus=v), SpecInvalid, 1, [0]),
    ("RandomSpec", "gap_target", lambda v: _random(gap_target=v), SpecInvalid, 1.0,
     [0.0, -1.0]),
    ("RandomSpec", "seed", lambda v: _random(seed=v), SpecInvalid, 3, [-1]),
    ("analytic_dirac_energy", "nu", lambda v: _analytic(nu=v), SpecInvalid, 0.5,
     [-0.1, 1.0, 1.5]),
    ("analytic_dirac_energy", "kappa", lambda v: _analytic(kappa=v), SpecInvalid, -1, [0]),
    ("analytic_dirac_energy", "n_r", lambda v: _analytic(n_r=v), SpecInvalid, 1, [-1]),
    ("assemble_block", "n_plus", lambda v: assemble_block(CANONICAL, v), BadSplit, 1,
     [0, 2]),
    ("ExperimentConfig", "k_max", lambda v: config_from_dict({"k_max": v}), ConfigParse, 2,
     [0]),
    ("ExperimentConfig", "count", lambda v: config_from_dict({"count": v}), ConfigParse, 2,
     [0]),
    ("ExperimentConfig", "seed", lambda v: config_from_dict({"seed": v}), ConfigParse, 3,
     [-1]),
]
IDS = [f"{entry}-{name}" for entry, name, *_ in PARAMETERS]


def _rows():
    for entry, name, call, error, valid, out_of_range in PARAMETERS:
        bad = [("bool", True), *NOT_FINITE, *((repr(v), v) for v in out_of_range)]
        if isinstance(valid, int):
            # JSON takes 2.0 as an integer, so a config's float must not be integral
            as_float = valid + 0.5 if entry == "ExperimentConfig" else float(valid)
            bad.insert(1, ("float", as_float))
        for label, value in bad:
            yield pytest.param(call, value, error, name, id=f"{entry}-{name}-{label}")


@pytest.mark.parametrize("call,value,error,name", list(_rows()))
def test_a_bad_number_raises_the_entry_points_error_naming_it(call, value, error, name):
    with pytest.raises(error, match=rf"^\|?{name}\|? must "):
        call(value)


@pytest.mark.parametrize("call,valid", [(p[2], p[4]) for p in PARAMETERS], ids=IDS)
def test_each_entry_point_takes_a_numpy_scalar_in_range(call, valid):
    call(np.int64(valid) if isinstance(valid, int) else np.float64(valid))


def test_messages_name_the_domain():
    for value, kw, message in [
        (4, {"low": 1, "high": 3, "integer": True}, "k must lie in [1, 3], got 4"),
        (1.5, {"integer": True}, "k must be an integer, got 1.5"),
        (0.0, {"low": 0, "above": True}, "k must be positive, got 0.0"),
        (-1, {"low": 0, "integer": True}, "k must be at least 0, got -1"),
        (1.0, {"low": 0, "high": 1, "below": True}, "k must lie in [0, 1), got 1.0"),
        (np.float32("nan"), {}, "k must be finite, got nan"),
        (HUGE, {"integer": True}, "k must be finite, got an integer beyond float range"),
        ("1", {}, "k must be real, got '1'"),
    ]:
        with pytest.raises(SpecInvalid) as exc:
            check_number(value, "k", SpecInvalid, **kw)
        assert str(exc.value) == message
    assert check_number(np.float32(0.5), "k", SpecInvalid, 0, 1) == np.float32(0.5)
