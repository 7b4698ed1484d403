"""Per-behaviour activity metrics: coverage, mean separation, jitter, drift.

Coverage comes from the behaviour runs that tile the clip. The other
metrics are computed over the frames in the behaviour where the dragon-lamp
separation was measurable; only frames with a state can have one. When too
few such frames exist the metric is absent (None), never zero; reports
render it as "-".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .behaviour import BehaviourKind, FrameState, Run
from .model import sequential_sum

__all__ = [
    "ActivityReport",
    "coverage",
    "mean_vertical_diff",
    "jitter",
    "drift_slope",
    "activity_report",
    "activity_reports",
]


@dataclass(frozen=True)
class ActivityReport:
    behaviour: BehaviourKind
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


def activity_report(
    states: Sequence[FrameState],
    runs: Sequence[Run],
    kind: BehaviourKind,
    frame_count: int,
    fps: float,
) -> ActivityReport:
    """Build the four metrics for one behaviour from the runs and the frame states in them."""
    measured = [
        (s.frame, s.separation.delta_y)
        for s in states
        if s.kind is kind and s.separation is not None
    ]
    return ActivityReport(
        behaviour=kind,
        coverage=coverage(runs, kind, frame_count),
        mean_vertical_diff=mean_vertical_diff([v for _, v in measured]),
        jitter=jitter(measured),
        drift_slope=drift_slope([f / fps for f, _ in measured], [v for _, v in measured]),
        frames_used=len(measured),
    )


def activity_reports(
    states: Sequence[FrameState], runs: Sequence[Run], frame_count: int, fps: float
) -> dict[BehaviourKind, ActivityReport]:
    """One report per behaviour kind."""
    return {kind: activity_report(states, runs, kind, frame_count, fps) for kind in BehaviourKind}
