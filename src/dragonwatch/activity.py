"""Per-behaviour activity metrics: coverage, mean separation, jitter, drift.

Coverage comes from the behaviour runs that tile the clip. The other
metrics are computed over the frames in the behaviour where the dragon-lamp
separation was measurable; only frames with a state can have one, and one
pass over the state columns gathers them for every behaviour. When too
few such frames exist the metric is absent (None), never zero; reports
render it as "-".
"""

from __future__ import annotations

from typing import Sequence

from .behaviour import BehaviourKind, FrameStates, Run
from .model import Record, sequential_sum

__all__ = [
    "ActivityReport",
    "coverage",
    "mean_vertical_diff",
    "jitter",
    "drift_slope",
    "activity_reports",
]


class ActivityReport(Record):
    __slots__ = ("coverage", "mean_vertical_diff", "jitter", "drift_slope", "frames_used")
    coverage: float
    mean_vertical_diff: float | None
    jitter: float | None
    drift_slope: float | None
    frames_used: int

    def to_json_dict(self) -> dict:
        """The metrics only; the behaviour is the key this dict is stored under."""
        return {
            "coverage": self.coverage,
            "mean_vertical_diff": self.mean_vertical_diff,
            "jitter": self.jitter,
            "drift_slope": self.drift_slope,
            "frames_used": self.frames_used,
        }


def coverage(runs: Sequence[Run], kind: BehaviourKind, frame_count: int) -> float:
    """Percentage of clip frames carrying the given behaviour, from the runs tiling the clip."""
    if frame_count < 1:
        raise ValueError(f"frame_count must be >= 1, got {frame_count}")
    return 100.0 * sum(end - start + 1 for start, end, k in runs if k is kind) / frame_count


def mean_vertical_diff(values: Sequence[float]) -> float | None:
    """Arithmetic mean of the separation values; None when there are none."""
    if not values:
        return None
    return sequential_sum(values) / len(values)


def jitter(samples: Sequence[tuple[int, float]]) -> float | None:
    """Mean absolute change of the separation across adjacent frames.

    ``samples`` are (frame, value) pairs sorted by frame. Pairs spanning a
    hole (non-consecutive frames) are excluded; None when no adjacent pair
    exists.
    """
    diffs = [
        abs(v1 - v0)
        for (f0, v0), (f1, v1) in zip(samples, samples[1:])
        if f1 == f0 + 1
    ]
    if not diffs:
        return None
    return sequential_sum(diffs) / len(diffs)


def drift_slope(times_s: Sequence[float], values: Sequence[float]) -> float | None:
    """Ordinary least squares slope of value against time, per second.

    None with fewer than two samples or when all timestamps coincide.
    """
    n = len(times_s)
    if n != len(values):
        raise ValueError("times and values must have the same length")
    if n < 2:
        return None
    t_mean = sequential_sum(times_s) / n
    v_mean = sequential_sum(values) / n
    denom = sequential_sum((t - t_mean) ** 2 for t in times_s)
    if denom == 0:
        return None
    num = sequential_sum((t - t_mean) * (v - v_mean) for t, v in zip(times_s, values))
    return num / denom


def activity_reports(
    states: FrameStates, runs: Sequence[Run], frame_count: int, fps: float
) -> dict[BehaviourKind, ActivityReport]:
    """One report per behaviour kind, from the runs and the frame states in them."""
    measured: dict[BehaviourKind, tuple[list[int], list[float]]] = {
        kind: ([], []) for kind in BehaviourKind
    }
    for frame, kind, delta_y in zip(states.frame, states.kind, states.delta_y):
        if delta_y is not None:
            frames, values = measured[kind]
            frames.append(frame)
            values.append(delta_y)
    return {
        kind: ActivityReport(
            coverage=coverage(runs, kind, frame_count),
            mean_vertical_diff=mean_vertical_diff(values),
            jitter=jitter(list(zip(frames, values))),
            drift_slope=drift_slope([f / fps for f in frames], values),
            frames_used=len(values),
        )
        for kind, (frames, values) in measured.items()
    }
