"""The package's record types: validation on every construction path, and
the tuple behaviour that callers may rely on."""

import pickle
from pathlib import Path

import pytest

from literal import bcg_matrix
from strategyshift import config
from strategyshift.analytics import TransformContext
from strategyshift.errors import ConfigError, DomainError
from strategyshift.oracle import AxisExits, EmpiricalExitSummary
from strategyshift.params import (IntervalDistribution, MarkDistribution, ModelParams,
                                  Thresholds)
from strategyshift.report import ConformanceRow
from strategyshift.series import TruncatedSeries

EXP1 = IntervalDistribution("exponential", 1.0)
PARAMS = ModelParams(1.0, 2.0, EXP1, IntervalDistribution("deterministic", 0.5),
                     MarkDistribution("geometric", p=0.3), MarkDistribution("fixed", 4))

#: A valid record, a change to one of its checked fields that makes it
#: invalid, the error that change raises and a fragment of its message.
INVALID = {
    "mark-family": (MarkDistribution(), {"family": "poisson"},
                    ConfigError, "unsupported mark family"),
    "fixed-negative": (MarkDistribution("fixed", 2), {"value": -1},
                       DomainError, "fixed mark value"),
    "fixed-fractional": (MarkDistribution("fixed", 2), {"value": 1.5},
                         DomainError, "fixed mark value"),
    "geometric-p-0": (MarkDistribution("geometric", p=0.5), {"p": 0.0},
                      DomainError, "geometric mark parameter"),
    "geometric-p-above-1": (MarkDistribution("geometric", p=0.5), {"p": 1.5},
                            DomainError, "geometric mark parameter"),
    "interval-family": (EXP1, {"family": "gamma"}, ConfigError,
                        "unsupported interval family"),
    "interval-mean-0": (EXP1, {"mean": 0.0}, DomainError, "interval mean must be positive"),
    "negative-lambda-a": (PARAMS, {"lambda_a": -1.0}, DomainError, "intensities"),
    "negative-lambda-b": (PARAMS, {"lambda_b": -1.0}, DomainError, "intensities"),
    "fractional-m": (Thresholds(1, 2), {"m": 1.5}, DomainError, "threshold m"),
    "negative-n": (Thresholds(1, 2), {"n": -1}, DomainError, "threshold n"),
    "boolean-m": (Thresholds(1, 2), {"m": True}, DomainError, "threshold m"),
    "z-above-1": (TransformContext(), {"z": 1.2}, DomainError, "z and g"),
    "g-negative": (TransformContext(), {"g": -0.1}, DomainError, "z and g"),
    "g-above-1": (TransformContext(), {"g": 1.5}, DomainError, "z and g"),
    "theta1-negative": (TransformContext(), {"theta1": -0.1}, DomainError,
                        "exponential transform arguments"),
    "vartheta0-negative": (TransformContext(), {"vartheta0": -0.1}, DomainError,
                           "exponential transform arguments"),
}


@pytest.mark.parametrize("record, change, error, match", INVALID.values(), ids=INVALID)
def test_every_construction_path_validates(record, change, error, match):
    fields = {**record._asdict(), **change}
    with pytest.raises(error, match=match):
        type(record)(**fields)
    with pytest.raises(error, match=match):
        type(record)._make(fields.values())
    with pytest.raises(error, match=match):
        record._replace(**change)


def test_replace_normalises_as_the_constructor_does():
    replaced = Thresholds(1, 2)._replace(m=2.0)
    assert replaced == Thresholds(2, 2) and type(replaced.m) is int
    assert MarkDistribution()._replace(value=3).value == 1
    assert MarkDistribution("geometric", p=0.5)._replace(value=0).value == 1
    with pytest.raises(ValueError):
        Thresholds(1, 2)._replace(k=3)


RECORDS = {
    "mark": MarkDistribution("geometric", p=0.3),
    "interval": EXP1,
    "params": PARAMS,
    "thresholds": Thresholds(3, 0),
    "context": TransformContext(z=0.5, theta1=0.2),
    "context-z-0": TransformContext(z=0.0),  # z and g range over [0, 1], closed
    "context-g-0": TransformContext(g=0.0),
    "matrix": bcg_matrix(),
    "row": ConformanceRow("q", "ref", "a note", 1.5, 0.1, None, "not-assertable"),
    "config": config.load(Path(__file__).resolve().parents[1] / "configs"
                          / "reference.json"),
}


@pytest.mark.parametrize("record", RECORDS.values(), ids=RECORDS)
def test_pickle_round_trip(record):
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and type(copy) is type(record)


#: Every record type and the series type, each one instance: ``__slots__``
#: leaves them no per-instance ``__dict__``.
SLOTTED = {
    **RECORDS,
    "entry": config.SCHEMA["process"]["lambda_a"],
    "axis-exits": AxisExits([0], [0.0], [0.5], [1.0]),
    "summary": EmpiricalExitSummary(*[None] * 5),
    "series": TruncatedSeries([1.0, 0.5]),
}


@pytest.mark.parametrize("record", SLOTTED.values(), ids=SLOTTED)
def test_no_instance_dict(record):
    assert not hasattr(record, "__dict__")


def test_records_are_tuples_of_their_fields():
    # Equal to a plain tuple of the same fields, hashed as that tuple, and
    # unpackable; setting a field is refused.
    thresholds = Thresholds(3, 4)
    assert thresholds == (3, 4) and hash(thresholds) == hash((3, 4))
    m, n = thresholds
    assert (m, n) == (3, 4)
    assert repr(thresholds) == "Thresholds(m=3, n=4)"
    with pytest.raises(AttributeError):
        thresholds.m = 5
