"""The records: a record whose constructor checks or copies is a frozen
dataclass with a __post_init__; every other record is a NamedTuple."""

import dataclasses
import inspect
import json
from types import MappingProxyType

import numpy as np
import pytest

from entropic import dataset, persistence, signal, stats, svm

MATRIX = stats.EntropyMatrix(np.zeros((1, 1)), (stats.ActorInfo(1, "male"),),
                             (stats.AudioInfo("calm", "normal", 1, 1),))
LINEAR = svm.KernelSpec("linear")
MODEL = svm.SvmModel(np.zeros((0, 1)), np.zeros(0), 0.5, LINEAR, ("a", "b"))
CV = svm.CvResult((0.5, 1.0), 0.75, 2, 30, 1e-4, 0)

# Each converted record with the values of one instance.
PLAIN = [
    (svm.SvmModel, tuple(MODEL)),
    (svm.MulticlassModel, (("a", "b"), (MODEL,))),
    (svm.CvResult, tuple(CV)),
    (svm.GridSearchResult, (LINEAR, 1.0, 0.75, (("linear", 1.0, 0.75),), (CV,))),
    (stats.BoxplotSummary, (0.0, 1.0, 2.0, 3.0, 4.0, 2.0, ())),
    (dataset.EntropyTableResult, (MATRIX, (("x.wav", "x.wav: bad"),))),
    (dataset.ExperimentResult, (1, "linear", {"cv_mean": 0.75}, (0.5, 1.0), {}, {"seed": 0},
                                svm.fit_roll_up([CV]), {})),
]


FIELDS = [(record, values, field) for record, values in PLAIN for field in record._fields]


@pytest.mark.parametrize("record,values,field", FIELDS,
                         ids=[f"{record.__name__}.{field}" for record, _, field in FIELDS])
def test_field_cannot_be_assigned(record, values, field):
    value = record(*values)
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))


@pytest.mark.parametrize("record,values", PLAIN, ids=[record.__name__ for record, _ in PLAIN])
def test_plain_record_is_a_tuple_of_its_values(record, values):
    value = record(*values)
    assert len(record._fields) == len(values)
    assert tuple(value) == values and value[0] is values[0]
    assert value._replace(**{record._fields[0]: values[0]}) == values


def test_every_dataclass_checks_or_copies_and_every_other_record_is_a_named_tuple():
    dataclasses_, plain = set(), set()
    for module in (dataset, persistence, signal, stats, svm):
        for cls in vars(module).values():
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            if dataclasses.is_dataclass(cls):
                assert cls.__dataclass_params__.frozen and "__post_init__" in vars(cls), cls
                dataclasses_.add(cls.__name__)
            elif issubclass(cls, tuple):
                plain.add(cls.__name__)
    assert dataclasses_ == {"Signal", "CanonicalSignal", "Barcode", "EntropyMatrix", "KernelSpec",
                            "RecordingMeta", "ExperimentConfig"}
    assert plain == {record.__name__ for record, _ in PLAIN} | {"LabeledPoint", "ActorInfo", "AudioInfo",
                                                                "_Problem"}


def test_experiment_result_defaults_are_read_only_and_written_as_objects():
    first, second = (dataset.ExperimentResult(2, "linear", {"full": 1.0}) for _ in range(2))
    for name in ("pairwise", "config", "fits", "pairwise_fits"):
        default = getattr(first, name)
        assert isinstance(default, MappingProxyType) and default == {}
        with pytest.raises(TypeError):
            default["x"] = 1
        assert getattr(second, name) == {}
    doc = json.loads(first.to_json())
    assert {name: doc[name] for name in ("pairwise", "config", "fits", "pairwise_fits")} == dict.fromkeys(
        ("pairwise", "config", "fits", "pairwise_fits"), {})
