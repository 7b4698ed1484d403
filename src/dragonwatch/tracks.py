"""Per-object tracks: canonical reduction, cricket association, gap filling.

The dragon and the lamp each get exactly one canonical track (one animal,
one lamp per clip); crickets get multi-instance tracks built by greedy
nearest-neighbour association. Gaps up to ``max_gap`` missing frames are
filled by blending the nearest observed detection on each side linearly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, KeysView

from .model import BBox, ClassLabel, Detection, Provenance, Timeline, center_distance_px

__all__ = [
    "Track",
    "reduce_per_frame",
    "associate_crickets",
    "fill_gaps",
    "continuity",
]


@dataclass(frozen=True)
class Track:
    """Time-ordered detections of one object, at most one per frame."""

    label: ClassLabel
    detections: tuple[Detection, ...]

    def __post_init__(self) -> None:
        last = -1
        for det in self.detections:
            if det.label != self.label:
                raise ValueError(f"detection label {det.label} does not match track {self.label}")
            if det.frame <= last:
                raise ValueError("track frames must be strictly increasing")
            last = det.frame
        object.__setattr__(self, "_by_frame", {d.frame: d for d in self.detections})

    def __len__(self) -> int:
        return len(self.detections)

    @property
    def is_empty(self) -> bool:
        return not self.detections

    @property
    def first_frame(self) -> int | None:
        return self.detections[0].frame if self.detections else None

    @property
    def last_frame(self) -> int | None:
        return self.detections[-1].frame if self.detections else None

    @property
    def frames(self) -> KeysView[int]:
        """The frames this track has a detection in, as a set-like view."""
        return self._by_frame.keys()  # type: ignore[attr-defined]

    def get(self, frame: int) -> Detection | None:
        return self._by_frame.get(frame)  # type: ignore[attr-defined]


def _best_of_frame(group: Iterable[Detection]) -> Detection:
    # max keeps the first maximal element, which preserves input order on full ties
    return max(group, key=lambda d: (d.confidence, d.box.area))


def reduce_per_frame(timeline: Timeline) -> tuple[Track, Track]:
    """Collapse dragon and lamp detections to one per frame.

    Highest confidence wins; ties go to the larger box, then to input order.
    Returns (dragon_track, lamp_track); either may be empty.
    """
    tracks = []
    for label in (ClassLabel.BEARDED_DRAGON, ClassLabel.HEATING_LAMP):
        kept = [
            _best_of_frame(group)
            for _, group in groupby(timeline.detections_for(label), key=lambda d: d.frame)
        ]
        tracks.append(Track(label, tuple(kept)))
    return tracks[0], tracks[1]


def associate_crickets(
    timeline: Timeline,
    gate_fraction: float = 0.05,
    max_gap: int = 15,
) -> list[Track]:
    """Group cricket detections into tracks by greedy nearest-neighbour linking.

    A detection may join a track when the pixel distance to the track's last
    position is at most ``gate_fraction * width`` per elapsed frame and the
    frame gap does not exceed ``max_gap``. Candidate pairs are assigned in
    ascending distance order; leftovers start new tracks.
    """
    geom = timeline.geometry
    gate_px = gate_fraction * geom.width
    open_tracks: list[list[Detection]] = []
    done_tracks: list[list[Detection]] = []
    for frame, group in groupby(
        timeline.detections_for(ClassLabel.CRICKET), key=lambda d: d.frame
    ):
        dets = list(group)
        still_open = []
        for track in open_tracks:
            if frame - track[-1].frame - 1 > max_gap:
                done_tracks.append(track)
            else:
                still_open.append(track)
        open_tracks = still_open

        candidates = []
        for ti, track in enumerate(open_tracks):
            last = track[-1]
            elapsed = frame - last.frame
            for di, det in enumerate(dets):
                dist = center_distance_px(det, last, geom)
                if dist <= gate_px * elapsed:
                    candidates.append((dist, ti, di))
        candidates.sort()
        taken_tracks: set[int] = set()
        taken_dets: set[int] = set()
        for dist, ti, di in candidates:
            if ti in taken_tracks or di in taken_dets:
                continue
            open_tracks[ti].append(dets[di])
            taken_tracks.add(ti)
            taken_dets.add(di)
        for di, det in enumerate(dets):
            if di not in taken_dets:
                open_tracks.append([det])
    done_tracks.extend(open_tracks)
    done_tracks.sort(key=lambda t: (t[0].frame, t[0].box.cx, t[0].box.cy))
    return [Track(ClassLabel.CRICKET, tuple(t)) for t in done_tracks]


def _blend(a: BBox, b: BBox, wa: float, wb: float) -> BBox:
    return BBox(
        cx=a.cx * wa + b.cx * wb,
        cy=a.cy * wa + b.cy * wb,
        w=a.w * wa + b.w * wb,
        h=a.h * wa + b.h * wb,
    )


def fill_gaps(track: Track, max_gap: int) -> Track:
    """Fill gaps of at most ``max_gap`` missing frames by linear blending.

    For a missing frame t between detections at t0 < t < t1 the box is
    box(t0) * (t1 - t) / (t1 - t0) + box(t1) * (t - t0) / (t1 - t0) and the
    confidence is the smaller endpoint confidence, so interpolation never
    inflates certainty. Longer gaps stay empty; no extrapolation happens
    before the first or after the last detection. Idempotent.
    """
    if len(track) < 2:
        return track
    out: list[Detection] = [track.detections[0]]
    for prev, nxt in zip(track.detections, track.detections[1:]):
        gap = nxt.frame - prev.frame - 1
        if 1 <= gap <= max_gap:
            span = nxt.frame - prev.frame
            conf = min(prev.confidence, nxt.confidence)
            for t in range(prev.frame + 1, nxt.frame):
                wb = (t - prev.frame) / span
                box = _blend(prev.box, nxt.box, 1.0 - wb, wb)
                out.append(Detection(t, track.label, box, conf, Provenance.INTERPOLATED))
        out.append(nxt)
    return Track(track.label, tuple(out))


def continuity(track: Track) -> float | None:
    """Fraction of frames between first and last detection that are covered.

    None for an empty track; 1.0 for a gapless one. This is the toolkit's
    own operational definition of tracking continuity.
    """
    if track.is_empty:
        return None
    span = track.last_frame - track.first_frame + 1  # type: ignore[operator]
    return len(track) / span
