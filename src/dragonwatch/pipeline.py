"""End-to-end per-clip analysis: tracks, states, episodes, activity metrics."""

from __future__ import annotations

from .activity import ActivityReport, activity_reports
from .behaviour import (
    BehaviourKind,
    Episode,
    FrameStates,
    demote_short_basking,
    detect_hunting,
    kind_runs,
    relabel,
    resolve_frame_states,
    run_length_episodes,
)
from .ingest import RunConfig
from .model import Record, Timeline, check_clip_length, check_frame_count
from .tracks import Track, associate_crickets, continuity, fill_gaps, reduce_per_frame

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


def _filled_with_continuity(track: Track, max_gap: int) -> tuple[Track, TrackContinuity]:
    filled = fill_gaps(track, max_gap)
    return filled, TrackContinuity(continuity(track), continuity(filled))


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

    dragon_raw, lamp_raw = reduce_per_frame(timeline)
    dragon, dragon_cont = _filled_with_continuity(dragon_raw, effective.max_gap)
    lamp, lamp_cont = _filled_with_continuity(lamp_raw, effective.max_gap)
    cricket_pairs = [
        _filled_with_continuity(track, effective.max_gap)
        for track in associate_crickets(
            timeline, gate_fraction=effective.cricket_gate, max_gap=effective.max_gap
        )
    ]
    crickets = [pair[0] for pair in cricket_pairs]

    hunts = detect_hunting(crickets, dragon, geom, timeline.frame_count, effective)
    raw_states = resolve_frame_states(
        dragon, lamp, hunts, geom, timeline.frame_count, effective
    )
    runs = demote_short_basking(
        kind_runs(raw_states, timeline.frame_count), effective.min_episode
    )
    states = relabel(raw_states, runs)
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
        dragon_continuity=dragon_cont,
        lamp_continuity=lamp_cont,
        cricket_continuity=[pair[1] for pair in cricket_pairs],
    )
