"""Rule-based behaviour classification and episode aggregation.

Basking holds in a frame when the lamp sits above the dragon, their pixel
row separation is at most ``beta * height`` and the off-vertical angle of
the dragon-lamp line stays under ``theta_max`` degrees. Hunting fires on
the last frame a cricket track is seen, provided the track then stays gone
for ``disappearance_window`` frames and the dragon was within
``gamma * width`` pixels at that moment. Everything else is idle.

The frame axis is sparse: only frames where the dragon or the lamp has a
box, or where a hunt fires, get a :class:`FrameState`. Every other frame is
idle, with no separation and no provenance. Episodes come from runs
``(start, end, kind)`` over the whole clip, so their cost follows the
number of states, not the header's frame count.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .ingest import RunConfig
from .model import FrameGeometry, Provenance, center_distance_px
from .tracks import Track

__all__ = [
    "BehaviourKind",
    "BaskingGeometry",
    "FrameState",
    "Run",
    "Episode",
    "classify_basking",
    "detect_hunting",
    "resolve_frame_states",
    "kind_runs",
    "relabel",
    "demote_short_basking",
    "run_length_episodes",
]


class BehaviourKind(enum.Enum):
    IDLE = "idle"
    BASKING = "basking"
    HUNTING = "hunting"


@dataclass(frozen=True)
class BaskingGeometry:
    """Dragon-lamp separation: row distance in pixels, off-vertical angle in degrees."""

    delta_y: float
    theta: float

    def __post_init__(self) -> None:
        if self.delta_y < 0:
            raise ValueError(f"delta_y must be >= 0, got {self.delta_y}")
        if not 0 <= self.theta <= 90:
            raise ValueError(f"theta must be in [0, 90] degrees, got {self.theta}")


@dataclass(frozen=True)
class FrameState:
    """Classification of one frame with a box or a hunt, plus the separation when measured."""

    frame: int
    kind: BehaviourKind
    separation: BaskingGeometry | None
    dragon_provenance: Provenance | None
    lamp_provenance: Provenance | None


# first frame, last frame (inclusive), behaviour
Run = tuple[int, int, BehaviourKind]
# a normalised box centre (cx, cy)
Centre = tuple[float, float]


@dataclass(frozen=True)
class Episode:
    """Maximal run of consecutive frames sharing one behaviour."""

    kind: BehaviourKind
    start_frame: int
    end_frame: int
    duration_s: float

    def to_json_dict(self) -> dict:
        return {
            "behaviour": self.kind.value,
            "start_frame": self.start_frame,
            "end_frame": self.end_frame,
            "duration_s": self.duration_s,
        }


def classify_basking(
    dragon: Centre | None,
    lamp: Centre | None,
    geom: FrameGeometry,
    cfg: RunConfig,
) -> tuple[bool, BaskingGeometry | None]:
    """Apply the basking rule to one frame, given the dragon's and the lamp's box centres.

    Returns (is_basking, separation). The separation is measured whenever
    both objects are present, basking or not. A lamp level with the dragon
    (zero row distance) counts as 90 degrees off vertical, so it never
    passes a theta_max below 90.
    """
    if dragon is None or lamp is None:
        return False, None
    # scale each centre, then subtract: the pinned outputs depend on this order
    dragon_y = dragon[1] * geom.height
    lamp_y = lamp[1] * geom.height
    delta_y = abs(dragon_y - lamp_y)
    if delta_y == 0:
        theta = 90.0
    else:
        dx = abs(dragon[0] * geom.width - lamp[0] * geom.width)
        theta = math.degrees(math.atan(dx / delta_y))
    separation = BaskingGeometry(delta_y=delta_y, theta=theta)
    lamp_above = lamp_y < dragon_y
    is_basking = lamp_above and delta_y <= cfg.beta * geom.height and theta < cfg.theta_max
    return is_basking, separation


def _nearest_dragon(dragon: Track, frame: int, max_gap: int) -> int | None:
    """The dragon's row at ``frame``, else at the closest frame within ``max_gap``; the earlier on a tie."""
    frames = dragon.columns.frame
    i = bisect_left(frames, frame)
    nearest = min(
        range(max(i - 1, 0), min(i + 1, len(frames))),
        key=lambda row: abs(frames[row] - frame),
        default=None,
    )
    if nearest is None or abs(frames[nearest] - frame) > max_gap:
        return None
    return nearest


def detect_hunting(
    cricket_tracks: Sequence[Track],
    dragon: Track,
    geom: FrameGeometry,
    frame_count: int,
    cfg: RunConfig,
) -> list[int]:
    """Find hunting events; each cricket track yields at most one.

    The event is pinned to the track's last observed frame. It fires only
    when at least ``disappearance_window`` frames remain in the clip after
    that frame (so the disappearance is confirmed, not cut off by the clip
    end) and the dragon sits strictly closer than ``gamma * width`` pixels.
    """
    events: list[int] = []
    near = dragon.columns
    for track in cricket_tracks:
        if track.is_empty:
            continue
        t_last = track.last_frame
        assert t_last is not None
        if frame_count - 1 - t_last < cfg.disappearance_window:
            continue
        row = _nearest_dragon(dragon, t_last, cfg.max_gap)
        if row is None:
            continue
        cricket = track.columns
        distance = center_distance_px(near.cx[row], near.cy[row], cricket.cx[-1], cricket.cy[-1], geom)
        if distance < cfg.gamma * geom.width:
            events.append(t_last)
    events.sort()
    return events


_PROVENANCE = {False: Provenance.OBSERVED, True: Provenance.INTERPOLATED}


def resolve_frame_states(
    dragon: Track,
    lamp: Track,
    hunting_frames: Iterable[int],
    geom: FrameGeometry,
    frame_count: int,
    cfg: RunConfig,
) -> list[FrameState]:
    """The states of the frames with a dragon or lamp box or a hunt, in frame order.

    Every other frame of ``[0, frame_count)`` is idle with no separation.
    Hunting frames take precedence over basking so each frame keeps a
    single state.
    """
    hunting = set(hunting_frames)
    d_frame, d_cx, d_cy = dragon.columns.frame, dragon.columns.cx, dragon.columns.cy
    l_frame, l_cx, l_cy = lamp.columns.frame, lamp.columns.cx, lamp.columns.cy
    d_end, l_end = len(d_frame), len(l_frame)
    d = l = 0  # the next dragon and lamp rows: each track's frames increase
    states: list[FrameState] = []
    previous = -1
    # sort the concatenation, not a set union: no hash table of every frame
    for t in sorted(chain(d_frame, l_frame, hunting)):
        if t == previous:
            continue
        previous = t
        d_row = l_row = None
        if d < d_end and d_frame[d] == t:
            d_row, d = d, d + 1
        if l < l_end and l_frame[l] == t:
            l_row, l = l, l + 1
        if not 0 <= t < frame_count:
            continue
        is_basking, separation = classify_basking(
            None if d_row is None else (d_cx[d_row], d_cy[d_row]),
            None if l_row is None else (l_cx[l_row], l_cy[l_row]),
            geom,
            cfg,
        )
        if t in hunting:
            kind = BehaviourKind.HUNTING
        elif is_basking:
            kind = BehaviourKind.BASKING
        else:
            kind = BehaviourKind.IDLE
        states.append(
            FrameState(
                frame=t,
                kind=kind,
                separation=separation,
                dragon_provenance=None if d_row is None else _PROVENANCE[dragon.interpolated[d_row]],
                lamp_provenance=None if l_row is None else _PROVENANCE[lamp.interpolated[l_row]],
            )
        )
    return states


def _merged(runs: Iterable[Run]) -> list[Run]:
    """The runs with neighbours of one kind joined."""
    out: list[Run] = []
    for start, end, kind in runs:
        if out and out[-1][2] is kind:
            start = out.pop()[0]
        out.append((start, end, kind))
    return out


def kind_runs(states: Sequence[FrameState], frame_count: int) -> list[Run]:
    """Maximal runs of one behaviour tiling ``[0, frame_count)``; frames without a state are idle.

    ``states`` are sparse and in frame order, as :func:`resolve_frame_states`
    returns them.
    """

    def pieces() -> Iterator[Run]:
        after = 0
        for state in states:
            if state.frame > after:
                yield after, state.frame - 1, BehaviourKind.IDLE
            yield state.frame, state.frame, state.kind
            after = state.frame + 1
        if after < frame_count:
            yield after, frame_count - 1, BehaviourKind.IDLE

    return _merged(pieces())


def relabel(states: Sequence[FrameState], runs: Sequence[Run]) -> list[FrameState]:
    """The states with each kind replaced by the kind of the run holding its frame."""
    out: list[FrameState] = []
    covering = iter(runs)
    end, kind = -1, BehaviourKind.IDLE
    for state in states:
        while state.frame > end:
            _, end, kind = next(covering)
        out.append(state if state.kind is kind else replace(state, kind=kind))
    return out


def demote_short_basking(runs: Sequence[Run], min_episode: int) -> list[Run]:
    """Turn basking runs shorter than ``min_episode`` frames into idle.

    ``runs`` are maximal (neighbours differ in kind); so is the result, as
    a demoted run merges with the idle runs beside it. Hunting frames are
    never demoted; the rule exists to drop flickery basking classifications.
    """
    return _merged(
        (start, end, BehaviourKind.IDLE)
        if kind is BehaviourKind.BASKING and end - start + 1 < min_episode
        else (start, end, kind)
        for start, end, kind in runs
    )


def run_length_episodes(runs: Sequence[Run], fps: float) -> list[Episode]:
    """One episode per run; the runs tile ``[0, frame_count)``."""
    return [Episode(kind, start, end, (end - start + 1) / fps) for start, end, kind in runs]
