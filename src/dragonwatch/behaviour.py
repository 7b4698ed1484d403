"""Rule-based behaviour classification and episode aggregation.

Basking holds in a frame when the lamp sits above the dragon, their pixel
row separation is at most ``beta * height`` and the off-vertical angle of
the dragon-lamp line stays under ``theta_max`` degrees. Hunting fires on
the last frame a cricket track is seen, provided the track then stays gone
for ``disappearance_window`` frames and the dragon was within
``gamma * width`` pixels at that moment. Everything else is idle.

The frame axis is sparse: only frames where the dragon or the lamp has a
box, or where a hunt fires, get a state, and the states are held as
parallel columns (:class:`FrameStates`), not as one object per frame.
Every other frame is idle, with no separation and no box. Episodes come
from runs ``(start, end, kind)`` over the whole clip, so their cost follows
the number of states, not the header's frame count.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from itertools import count
from typing import Iterable, Iterator, Sequence

from .ingest import RunConfig
from .model import Columns, FrameGeometry, Record, center_distance_px
from .tracks import Track

__all__ = [
    "BehaviourKind",
    "FrameStates",
    "Run",
    "Episode",
    "detect_hunting",
    "resolve_frame_states",
    "kind_runs",
    "demote_short_basking",
    "run_length_episodes",
]


class BehaviourKind(enum.Enum):
    IDLE = "idle"
    BASKING = "basking"
    HUNTING = "hunting"


class FrameStates(Record):
    """The frames with a dragon or lamp box or a hunt, as parallel columns in frame order.

    State ``i`` is frame ``frame[i]`` (increasing), with behaviour
    ``kind[i]``. ``delta_y[i]`` (row distance, px, ``>= 0``) and
    ``theta[i]`` (off-vertical angle, degrees, in [0, 90]) are the
    dragon-lamp separation, None unless both have a box. ``dragon[i]`` and
    ``lamp[i]`` are the box's interpolated flag, None where there is no box.
    ``len()`` counts the states.
    """

    frame: list[int]
    kind: list[BehaviourKind]
    delta_y: list[float | None]
    theta: list[float | None]
    dragon: list[bool | None]
    lamp: list[bool | None]

    def __len__(self) -> int:
        return len(self.frame)


# first frame, last frame (inclusive), behaviour
Run = tuple[int, int, BehaviourKind]


class Episode(Record):
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
    cricket_tracks: Sequence[Sequence[int]],
    crickets: Columns,
    dragon: Track,
    geom: FrameGeometry,
    frame_count: int,
    cfg: RunConfig,
) -> list[int]:
    """Find hunting events; each cricket track yields at most one.

    A track is a list of rows of ``crickets``, frames increasing; an empty
    one is skipped. The event is pinned to the track's last observed frame.
    It fires only when at least ``disappearance_window`` frames remain in
    the clip after that frame (so the disappearance is confirmed, not cut
    off by the clip end) and the dragon sits strictly closer than
    ``gamma * width`` pixels.
    """
    events: list[int] = []
    near = dragon.columns
    for rows in cricket_tracks:
        if not rows:
            continue
        last = rows[-1]
        t_last = crickets.frame[last]
        if frame_count - 1 - t_last < cfg.disappearance_window:
            continue
        row = _nearest_dragon(dragon, t_last, cfg.max_gap)
        if row is None:
            continue
        distance = center_distance_px(near.cx[row], near.cy[row], crickets.cx[last], crickets.cy[last], geom)
        if distance < cfg.gamma * geom.width:
            events.append(t_last)
    events.sort()
    return events


def _rows(track: Track, frames: list[int]) -> list[int | None]:
    """Each frame's row in ``track``, or None where the track has no box."""
    return list(map(dict(zip(track.columns.frame, count())).get, frames))


def resolve_frame_states(
    dragon: Track,
    lamp: Track,
    hunting_frames: Iterable[int],
    geom: FrameGeometry,
    frame_count: int,
    cfg: RunConfig,
) -> FrameStates:
    """The states of the frames with a dragon or lamp box or a hunt, in frame order.

    Every other frame of ``[0, frame_count)`` is idle with no separation.
    Where the dragon and the lamp both have a box, the state gets their
    ``delta_y`` and ``theta``, and the kind BASKING when the basking rule
    holds. A lamp level with the dragon (zero row distance) counts as 90
    degrees off vertical, so it never passes a theta_max below 90. Hunting
    frames take precedence over basking so each frame keeps a single state.
    """
    hunting = set(hunting_frames)
    present = sorted(hunting.union(dragon.columns.frame, lamp.columns.frame))
    frames = present[bisect_left(present, 0) : bisect_left(present, frame_count)]
    n = len(frames)
    d_rows, l_rows = _rows(dragon, frames), _rows(lamp, frames)
    states = FrameStates(
        frames,
        [BehaviourKind.IDLE] * n,
        [None] * n,
        [None] * n,
        [None if d is None else dragon.interpolated[d] for d in d_rows],
        [None if l is None else lamp.interpolated[l] for l in l_rows],
    )
    kind, delta_col, theta_col = states.kind, states.delta_y, states.theta
    width, height = geom.width, geom.height
    limit, theta_max = cfg.beta * height, cfg.theta_max
    d_cx, d_cy, l_cx, l_cy = dragon.columns.cx, dragon.columns.cy, lamp.columns.cx, lamp.columns.cy
    for i, d, l in zip(count(), d_rows, l_rows):
        if d is None or l is None:
            continue
        # scale each centre, then subtract: the pinned outputs depend on this order
        dragon_y = d_cy[d] * height
        lamp_y = l_cy[l] * height
        delta_y = abs(dragon_y - lamp_y)
        if delta_y == 0:
            theta = 90.0
        else:
            theta = math.degrees(math.atan(abs(d_cx[d] * width - l_cx[l] * width) / delta_y))
        delta_col[i] = delta_y
        theta_col[i] = theta
        if lamp_y < dragon_y and delta_y <= limit and theta < theta_max:
            kind[i] = BehaviourKind.BASKING
    for t in hunting:
        if 0 <= t < frame_count:
            kind[bisect_left(frames, t)] = BehaviourKind.HUNTING
    return states


def _merged(runs: Iterable[Run]) -> list[Run]:
    """The runs with neighbours of one kind joined."""
    out: list[Run] = []
    for start, end, kind in runs:
        if out and out[-1][2] is kind:
            start = out.pop()[0]
        out.append((start, end, kind))
    return out


def kind_runs(states: FrameStates, frame_count: int) -> list[Run]:
    """Maximal runs of one behaviour tiling ``[0, frame_count)``; frames without a state are idle."""

    def pieces() -> Iterator[Run]:
        after = 0
        for frame, kind in zip(states.frame, states.kind):
            if frame > after:
                yield after, frame - 1, BehaviourKind.IDLE
            yield frame, frame, kind
            after = frame + 1
        if after < frame_count:
            yield after, frame_count - 1, BehaviourKind.IDLE

    return _merged(pieces())


def demote_short_basking(states: FrameStates, runs: Sequence[Run], min_episode: int) -> list[Run]:
    """Turn basking runs shorter than ``min_episode`` frames into idle, and their states with them.

    ``runs`` tile the clip and are maximal (neighbours differ in kind), as
    :func:`kind_runs` returns them for ``states``; so is the result, as a
    demoted run merges with the idle runs beside it. The states of a
    demoted run are set to idle in ``states.kind``. Hunting frames are
    never demoted; the rule exists to drop flickery basking classifications.
    """
    frame, kind = states.frame, states.kind
    out: list[Run] = []
    for start, end, run_kind in runs:
        if run_kind is BehaviourKind.BASKING and end - start + 1 < min_episode:
            lo = bisect_left(frame, start)
            hi = bisect_right(frame, end, lo)
            kind[lo:hi] = [BehaviourKind.IDLE] * (hi - lo)
            run_kind = BehaviourKind.IDLE
        out.append((start, end, run_kind))
    return _merged(out)


def run_length_episodes(runs: Sequence[Run], fps: float) -> list[Episode]:
    """One episode per run; the runs tile ``[0, frame_count)``."""
    return [Episode(kind, start, end, (end - start + 1) / fps) for start, end, kind in runs]
