"""Rule-based behaviour classification and episode aggregation.

Basking holds in a frame when the lamp sits above the dragon, their pixel
row separation is at most ``beta * height`` and the off-vertical angle of
the dragon-lamp line stays under ``theta_max`` degrees. Hunting fires on
the last frame a cricket track is seen, provided the track then stays gone
for ``disappearance_window`` frames and the dragon was within
``gamma * width`` pixels at that moment. Everything else is idle.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .ingest import RunConfig
from .model import Detection, FrameGeometry, Provenance, center_distance_px
from .tracks import Track

__all__ = [
    "BehaviourKind",
    "BaskingGeometry",
    "FrameState",
    "Episode",
    "classify_basking",
    "detect_hunting",
    "resolve_frame_states",
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
    """Per-frame classification plus the measured separation when available."""

    frame: int
    kind: BehaviourKind
    separation: BaskingGeometry | None
    dragon_provenance: Provenance | None
    lamp_provenance: Provenance | None


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
    dragon: Detection | None,
    lamp: Detection | None,
    geom: FrameGeometry,
    cfg: RunConfig,
) -> tuple[bool, BaskingGeometry | None]:
    """Apply the basking rule to one frame.

    Returns (is_basking, separation). The separation is measured whenever
    both objects are present, basking or not. A lamp level with the dragon
    (zero row distance) counts as 90 degrees off vertical, so it never
    passes a theta_max below 90.
    """
    if dragon is None or lamp is None:
        return False, None
    # scale each centre, then subtract: the pinned outputs depend on this order
    dragon_y = dragon.box.cy * geom.height
    lamp_y = lamp.box.cy * geom.height
    delta_y = abs(dragon_y - lamp_y)
    if delta_y == 0:
        theta = 90.0
    else:
        dx = abs(dragon.box.cx * geom.width - lamp.box.cx * geom.width)
        theta = math.degrees(math.atan(dx / delta_y))
    separation = BaskingGeometry(delta_y=delta_y, theta=theta)
    lamp_above = lamp_y < dragon_y
    is_basking = lamp_above and delta_y <= cfg.beta * geom.height and theta < cfg.theta_max
    return is_basking, separation


def _nearest_dragon(dragon: Track, frame: int, max_gap: int) -> Detection | None:
    # the exact frame, else the closest frame within max_gap; min keeps the earlier on a tie
    dets = dragon.detections
    i = bisect_left(dets, frame, key=lambda d: d.frame)
    nearest = min(dets[max(i - 1, 0) : i + 1], key=lambda d: abs(d.frame - frame), default=None)
    if nearest is None or abs(nearest.frame - frame) > max_gap:
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
    for track in cricket_tracks:
        if track.is_empty:
            continue
        t_last = track.last_frame
        assert t_last is not None
        if frame_count - 1 - t_last < cfg.disappearance_window:
            continue
        dragon_det = _nearest_dragon(dragon, t_last, cfg.max_gap)
        if dragon_det is None:
            continue
        cricket_det = track.get(t_last)
        assert cricket_det is not None
        if center_distance_px(dragon_det, cricket_det, geom) < cfg.gamma * geom.width:
            events.append(t_last)
    events.sort()
    return events


def resolve_frame_states(
    dragon: Track,
    lamp: Track,
    hunting_frames: Iterable[int],
    geom: FrameGeometry,
    frame_count: int,
    cfg: RunConfig,
) -> list[FrameState]:
    """Assign exactly one state to every frame of the clip.

    Hunting frames take precedence over basking so each frame keeps a
    single state.
    """
    hunting = set(hunting_frames)
    states: list[FrameState] = []
    for t in range(frame_count):
        dragon_det = dragon.get(t)
        lamp_det = lamp.get(t)
        is_basking, separation = classify_basking(dragon_det, lamp_det, geom, cfg)
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
                dragon_provenance=dragon_det.provenance if dragon_det else None,
                lamp_provenance=lamp_det.provenance if lamp_det else None,
            )
        )
    return states


def _runs(kinds: Sequence[BehaviourKind]) -> Iterator[tuple[int, int, BehaviourKind]]:
    start = 0
    for i in range(1, len(kinds) + 1):
        if i == len(kinds) or kinds[i] != kinds[start]:
            yield start, i - 1, kinds[start]
            start = i


def demote_short_basking(
    kinds: Sequence[BehaviourKind], min_episode: int
) -> list[BehaviourKind]:
    """Turn basking runs shorter than ``min_episode`` frames into idle.

    Hunting frames are never demoted; the rule exists to drop flickery
    single-frame basking classifications.
    """
    out = list(kinds)
    for start, end, kind in _runs(out):
        if kind is BehaviourKind.BASKING and end - start + 1 < min_episode:
            out[start : end + 1] = [BehaviourKind.IDLE] * (end - start + 1)
    return out


def run_length_episodes(kinds: Sequence[BehaviourKind], fps: float) -> list[Episode]:
    """Run-length encode per-frame states into episodes covering [0, len)."""
    return [
        Episode(kind, start, end, (end - start + 1) / fps)
        for start, end, kind in _runs(kinds)
    ]

