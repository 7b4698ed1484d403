"""End-to-end per-clip analysis: tracks, states, episodes, activity metrics.

Only the dragon and lamp tracks are gap-filled, for the frame states. Cricket
tracks stay rows of the timeline's cricket columns; every track's continuity
is counted from its observed frames.
"""

from __future__ import annotations

from .activity import ActivityReport, activity_reports
from .behaviour import (
    BehaviourKind,
    Episode,
    FrameStates,
    demote_short_basking,
    detect_hunting,
    kind_runs,
    resolve_frame_states,
    run_length_episodes,
)
from .ingest import RunConfig
from .model import ClassLabel, Record, Timeline, check_clip_length, check_frame_count
from .tracks import associate_crickets, continuity, fill_gaps, reduce_per_frame

__all__ = ["TrackContinuity", "AnalysisResult", "analyze_timeline"]

CONTINUITY_NOTE = (
    "fraction of frames between a track's first and last detection that are covered; "
    "toolkit-defined measure of interpolation benefit"
)


class TrackContinuity(Record):
    """Continuity of one track before and after gap filling."""

    observed: float | None
    interpolated: float | None


class AnalysisResult(Record):
    """Everything one clip analysis produces, ready for serialisation.

    ``states`` holds only the frames with a dragon or lamp box or a hunt, in
    frame order; every other frame is idle, with nothing measured.
    """

    config: RunConfig  # effective config, geometry resolved
    frame_count: int
    states: FrameStates
    episodes: list[Episode]
    hunting_event_frames: list[int]
    activity: dict[BehaviourKind, ActivityReport]
    dragon_continuity: TrackContinuity
    lamp_continuity: TrackContinuity
    cricket_continuity: list[TrackContinuity]

    def to_json_dict(self) -> dict:
        geom = self.config.geometry
        assert geom is not None
        return {
            "config": {**self.config._asdict(), "geometry": geom._asdict()},
            "frame_count": self.frame_count,
            "hunting_event_frames": list(self.hunting_event_frames),
            "episodes": [ep.to_json_dict() for ep in self.episodes],
            "activity": {
                kind.value: report.to_json_dict() for kind, report in self.activity.items()
            },
            "continuity": {
                "note": CONTINUITY_NOTE,
                "dragon": self.dragon_continuity._asdict(),
                "lamp": self.lamp_continuity._asdict(),
                "crickets": [tc._asdict() for tc in self.cricket_continuity],
            },
        }


def _continuity(frames: list[int], max_gap: int) -> TrackContinuity:
    return TrackContinuity(continuity(frames, 0), continuity(frames, max_gap))


def analyze_timeline(timeline: Timeline, cfg: RunConfig | None = None) -> AnalysisResult:
    """Run the full behaviour pipeline on one parsed clip.

    ValueError when the clip has over :data:`~dragonwatch.model.MAX_FRAME_COUNT`
    frames or, at the effective fps, lasts over
    :data:`~dragonwatch.model.MAX_CLIP_SECONDS`.
    """
    cfg = cfg if cfg is not None else RunConfig()
    geom = cfg.geometry if cfg.geometry is not None else timeline.geometry
    check_frame_count(timeline.frame_count)
    check_clip_length(timeline.frame_count, geom.fps)
    effective = cfg._replace(geometry=geom)

    max_gap = effective.max_gap
    dragon_raw, lamp_raw = reduce_per_frame(timeline)
    dragon, lamp = fill_gaps(dragon_raw, max_gap), fill_gaps(lamp_raw, max_gap)
    crickets = timeline.detections_for(ClassLabel.CRICKET)
    cricket_tracks = associate_crickets(timeline, gate_fraction=effective.cricket_gate, max_gap=max_gap)

    hunts = detect_hunting(cricket_tracks, crickets, dragon, geom, timeline.frame_count, effective)
    states = resolve_frame_states(dragon, lamp, hunts, geom, timeline.frame_count, effective)
    runs = demote_short_basking(states, kind_runs(states, timeline.frame_count), effective.min_episode)
    episodes = run_length_episodes(runs, geom.fps)
    if timeline.frame_count > 0:
        activity = activity_reports(states, runs, timeline.frame_count, geom.fps)
    else:
        activity = {}
    return AnalysisResult(
        config=effective,
        frame_count=timeline.frame_count,
        states=states,
        episodes=episodes,
        hunting_event_frames=hunts,
        activity=activity,
        dragon_continuity=_continuity(dragon_raw.columns.frame, max_gap),
        lamp_continuity=_continuity(lamp_raw.columns.frame, max_gap),
        cricket_continuity=[
            _continuity(list(map(crickets.frame.__getitem__, rows)), max_gap) for rows in cricket_tracks
        ],
    )
