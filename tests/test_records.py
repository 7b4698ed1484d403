"""The package's records: one validating path, read-only fields, row counts, and no tuple semantics."""

import importlib
import pkgutil

import pytest

import dragonwatch
from dragonwatch.behaviour import BehaviourKind, Episode, FrameStates
from dragonwatch.evaluation import Boxes
from dragonwatch.ingest import RunConfig
from dragonwatch.model import ClassLabel, Columns, FrameGeometry, Record
from dragonwatch.pipeline import TrackContinuity
from dragonwatch.synth import InvalidScenario, Scenario
from dragonwatch.tracks import Track

RECORDS = sorted(
    {
        value
        for m in pkgutil.iter_modules(dragonwatch.__path__)
        for value in vars(importlib.import_module(f"dragonwatch.{m.name}")).values()
        if isinstance(value, type) and issubclass(value, Record) and value is not Record
    },
    key=lambda cls: cls.__name__,
)


def test_every_record_of_the_package_is_a_record():
    assert [cls.__name__ for cls in RECORDS] == [
        "ActivityReport", "AnalysisResult", "Boxes", "ClassMetrics", "Columns", "ConfusionMatrix",
        "Episode", "EvalReport", "FrameGeometry", "FrameStates", "GeneratedScenario", "RunConfig",
        "Scenario", "Threshold", "Timeline", "Track", "TrackContinuity", "_Body",
    ]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_annotations_name_the_fields_in_order(cls):
    assert tuple(cls.__annotations__) == cls.__slots__
    assert not issubclass(cls, tuple)


def columns(rows: int) -> Columns:
    return Columns(*([0.5] * rows for _ in range(6)))


# (a valid record, a change that makes it invalid, the error)
INVALID_CHANGES = [
    (FrameGeometry(640, 480, 30.0), {"fps": -1.0}, ValueError),
    (FrameGeometry(640, 480, 30.0), {"width": 0}, ValueError),
    (RunConfig(), {"beta": -1}, ValueError),
    (RunConfig(), {"max_gap": -1}, ValueError),
    (RunConfig(), {"cricket_gate": 2.0}, ValueError),
    (Scenario(kind=BehaviourKind.IDLE, frames=10), {"dropout_rate": 1.0}, InvalidScenario),
    (Scenario(kind=BehaviourKind.IDLE, frames=10), {"frames": 0}, InvalidScenario),
]


@pytest.mark.parametrize("valid, change, error", INVALID_CHANGES)
def test_bad_value_is_rejected_when_built_and_when_copied(valid, change, error):
    with pytest.raises(error):
        type(valid)(**{**valid._asdict(), **change})
    with pytest.raises(error):
        valid._replace(**change)


def test_replace_changes_only_the_given_fields():
    cfg = RunConfig(beta=0.2)
    copy = cfg._replace(gamma=0.5)
    assert copy == RunConfig(beta=0.2, gamma=0.5)
    assert cfg == RunConfig(beta=0.2)


def test_fields_are_read_only():
    cfg = RunConfig()
    with pytest.raises(AttributeError):
        cfg.beta = -1
    with pytest.raises(AttributeError):
        del cfg.beta
    with pytest.raises(AttributeError):
        cfg.other = 1
    assert cfg == RunConfig()


@pytest.mark.parametrize(
    "args, kwargs",
    [((640, 480), {}), ((640, 480, 30.0, 1), {}), ((640, 480, 30.0), {"width": 1}), ((640, 480), {"rate": 1.0})],
)
def test_fields_must_be_given_once_each(args, kwargs):
    with pytest.raises(TypeError):
        FrameGeometry(*args, **kwargs)


@pytest.mark.parametrize(
    "record",
    [
        FrameGeometry(640, 480, 30.0),
        RunConfig(),
        Episode(BehaviourKind.IDLE, 0, 9, 1.0),
        TrackContinuity(1.0, 1.0),
        columns(2),
    ],
    ids=lambda record: type(record).__name__,
)
def test_a_record_never_equals_a_plain_tuple(record):
    values = tuple(record._asdict().values())
    assert record != values and values != record
    assert record == type(record)(*values)


def test_equal_records_hash_alike():
    assert hash(FrameGeometry(640, 480, 30.0)) == hash(FrameGeometry(640, 480, 30.0))
    assert hash(RunConfig()) == hash(RunConfig()._replace())


def test_len_counts_rows():
    assert len(columns(3)) == 3
    assert len(Track(ClassLabel.CRICKET, columns(2), [False, True])) == 2
    assert len(FrameStates(*([None] * 4 for _ in range(6)))) == 4
    assert len(Boxes(["a:0"], [ClassLabel.CRICKET], [(0.0, 0.0, 1.0, 1.0)], [1.0])) == 1
