"""Per-object tracks: canonical reduction, cricket association, gap filling.

The dragon and the lamp each get exactly one canonical track (one animal,
one lamp per clip); crickets get multi-instance tracks built by greedy
nearest-neighbour association. Gaps up to ``max_gap`` missing frames are
filled by blending the nearest observed detection on each side linearly.
A track holds its boxes as :class:`Columns`, as the timeline does.

Association prunes by sort and sweep, as in I-COLLIDE (Cohen, Lin, Manocha
and Ponamgi, 1995): a frame's rows are sorted by ``cx`` once, and each open
track measures only the rows inside its gate window along x. The window is
a little wider than the gate, so it drops no pair the gate passes and the
tracks are those of measuring every pair.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import islice
from operator import lt

from .model import ClassLabel, Columns, Record, Timeline, center_distance_px

__all__ = [
    "Track",
    "reduce_per_frame",
    "associate_crickets",
    "fill_gaps",
    "continuity",
]


class Track(Record):
    """Boxes of one object, at most one per frame, in increasing frame order.

    ``interpolated[i]`` is True when row ``i`` of ``columns`` was blended by
    :func:`fill_gaps` rather than observed.
    """

    __slots__ = ("label", "columns", "interpolated")
    label: ClassLabel
    columns: Columns
    interpolated: list[bool]

    def __len__(self) -> int:
        return len(self.columns)


def _observed(label: ClassLabel, columns: Columns) -> Track:
    return Track(label, columns, [False] * len(columns))


def _best_rows(columns: Columns) -> list[int]:
    """Per frame, the row with the highest confidence, then the larger box, then the first."""
    frame, conf, w, h = columns.frame, columns.conf, columns.w, columns.h
    kept: list[int] = []
    for row, t in enumerate(frame):
        if kept and frame[kept[-1]] == t:
            best = kept[-1]
            if (conf[row], w[row] * h[row]) > (conf[best], w[best] * h[best]):
                kept[-1] = row
        else:
            kept.append(row)
    return kept


def reduce_per_frame(timeline: Timeline) -> tuple[Track, Track]:
    """Collapse dragon and lamp detections to one per frame.

    Highest confidence wins; ties go to the larger box, then to input order.
    Returns (dragon_track, lamp_track); either may be empty.
    """
    tracks = []
    for label in (ClassLabel.BEARDED_DRAGON, ClassLabel.HEATING_LAMP):
        columns = timeline.detections_for(label)
        frame = columns.frame
        if not all(map(lt, frame, islice(frame, 1, None))):  # some frame has two boxes
            columns = columns.take(_best_rows(columns))
        tracks.append(_observed(label, columns))
    return tracks[0], tracks[1]


def associate_crickets(timeline: Timeline, gate_fraction: float, max_gap: int) -> list[Track]:
    """Group cricket detections into tracks by greedy nearest-neighbour linking.

    A detection may join a track when the pixel distance to the track's last
    position is at most ``gate_fraction * width`` per elapsed frame and the
    frame gap does not exceed ``max_gap``. Candidate pairs are assigned in
    ascending distance order; a tie goes to the track opened first, then
    to the row first in timeline order. Leftovers start new tracks.

    In a frame with more than one row, a track with gate ``limit`` pixels
    measures only the rows whose ``cx`` lies within
    ``reach = limit / width * (1 + 1e-9) + 1e-12`` of its last ``cx``. No
    passing pair lies outside: ``|(cx - last_x) * width|`` is at most
    ``hypot(dx * width, dy * height)``, and stays so in floats because
    ``math.hypot`` rounds faithfully. The relative margin covers the
    rounding of ``cx - last_x``, of the product with the width and of
    ``limit / width``; the absolute one covers that of ``last_x +- reach``,
    as ``cx`` lies in [0, 1]. So the candidate pairs, their order and every
    tie are those of measuring every row. A frame with one row measures it
    against every track, with no sort.
    """
    geom = timeline.geometry
    width = geom.width
    gate_px = gate_fraction * width
    columns = timeline.detections_for(ClassLabel.CRICKET)
    frame, cx, cy = columns.frame, columns.cx, columns.cy
    # a track is the list of its rows
    open_tracks: list[list[int]] = []
    done_tracks: list[list[int]] = []
    start = 0
    while start < len(frame):
        t = frame[start]
        end = bisect_right(frame, t, start)
        still_open = []
        for track in open_tracks:
            if t - frame[track[-1]] - 1 > max_gap:
                done_tracks.append(track)
            else:
                still_open.append(track)
        open_tracks = still_open

        near = range(start, end)
        sweep = end - start > 1  # one row needs no sort and no bisect
        if sweep:
            rows = sorted(near, key=cx.__getitem__)
            xs = list(map(cx.__getitem__, rows))
        candidates = []
        for ti, track in enumerate(open_tracks):
            last = track[-1]
            last_x, last_y = cx[last], cy[last]
            limit = gate_px * (t - frame[last])
            if sweep:
                reach = limit / width * (1 + 1e-9) + 1e-12
                lo = bisect_left(xs, last_x - reach)
                near = rows[lo : bisect_right(xs, last_x + reach, lo)]
            for row in near:
                dist = center_distance_px(cx[row], cy[row], last_x, last_y, geom)
                if dist <= limit:
                    candidates.append((dist, ti, row))
        candidates.sort()
        taken_tracks: set[int] = set()
        taken_rows: set[int] = set()
        for dist, ti, row in candidates:
            if ti in taken_tracks or row in taken_rows:
                continue
            open_tracks[ti].append(row)
            taken_tracks.add(ti)
            taken_rows.add(row)
        for row in range(start, end):
            if row not in taken_rows:
                open_tracks.append([row])
        start = end
    done_tracks.extend(open_tracks)
    done_tracks.sort(key=lambda rows: (frame[rows[0]], cx[rows[0]], cy[rows[0]]))
    return [_observed(ClassLabel.CRICKET, columns.take(rows)) for rows in done_tracks]


def fill_gaps(track: Track, max_gap: int) -> Track:
    """Fill gaps of at most ``max_gap`` missing frames by linear blending.

    For a missing frame t between detections at t0 < t < t1 the box is
    box(t0) * (t1 - t) / (t1 - t0) + box(t1) * (t - t0) / (t1 - t0) and the
    confidence is the smaller endpoint confidence, so interpolation never
    inflates certainty. Longer gaps stay empty; no extrapolation happens
    before the first or after the last detection. Idempotent.
    """
    frame = track.columns.frame
    gaps = [row for row in range(1, len(frame)) if 1 <= frame[row] - frame[row - 1] - 1 <= max_gap]
    if not gaps:
        return track
    fields = track.columns.fields()
    out: tuple[list, ...] = tuple([] for _ in fields)
    out_frame, out_cx, out_cy, out_w, out_h, out_conf = out
    interpolated: list[bool] = []
    copied = 0
    for nxt in gaps:
        for column, target in zip(fields, out):
            target.extend(column[copied:nxt])
        interpolated.extend(track.interpolated[copied:nxt])
        copied = nxt
        prev = nxt - 1
        t0, t1 = frame[prev], frame[nxt]
        span = t1 - t0
        cx0, cy0, w0, h0, conf0 = (column[prev] for column in fields[1:])
        cx1, cy1, w1, h1, conf1 = (column[nxt] for column in fields[1:])
        conf = min(conf0, conf1)
        for t in range(t0 + 1, t1):
            wb = (t - t0) / span
            wa = 1.0 - wb
            out_frame.append(t)
            out_cx.append(cx0 * wa + cx1 * wb)
            out_cy.append(cy0 * wa + cy1 * wb)
            out_w.append(w0 * wa + w1 * wb)
            out_h.append(h0 * wa + h1 * wb)
            out_conf.append(conf)
            interpolated.append(True)
    for column, target in zip(fields, out):
        target.extend(column[copied:])
    interpolated.extend(track.interpolated[copied:])
    return Track(track.label, Columns(*out), interpolated)


def continuity(track: Track) -> float | None:
    """Fraction of frames between first and last detection that are covered.

    None for an empty track; 1.0 for a gapless one. This is the toolkit's
    own operational definition of tracking continuity.
    """
    frame = track.columns.frame
    if not frame:
        return None
    return len(frame) / (frame[-1] - frame[0] + 1)
