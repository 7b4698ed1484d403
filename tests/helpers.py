"""Shared test builders and hypothesis strategies."""

from __future__ import annotations

import enum
import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

from hypothesis import strategies as st

from dragonwatch.activity import ActivityReport, drift_slope, jitter, mean_vertical_diff
from dragonwatch.behaviour import BehaviourKind, Episode, FrameStates, resolve_frame_states
from dragonwatch.evaluation import Boxes
from dragonwatch.ingest import RunConfig
from dragonwatch.model import (
    ClassLabel,
    Columns,
    Corners,
    FrameGeometry,
    Timeline,
    center_distance_px,
)
from dragonwatch.pipeline import AnalysisResult, analyze_timeline
from dragonwatch.tracks import Track, fill_gaps, reduce_per_frame


class Provenance(enum.Enum):
    """Whether a box was read or blended by gap filling, as ``frames.jsonl`` names it.

    The package holds this as one interpolated flag per box; the references
    keep their own vocabulary, so they do not borrow the package's.
    """

    OBSERVED = "observed"
    INTERPOLATED = "interpolated"


class Box(NamedTuple):
    """A normalised centre/extent box, unchecked."""

    cx: float
    cy: float
    w: float
    h: float


class Row(NamedTuple):
    """One box of one class in one frame, as a test writes it; unchecked."""

    frame: int
    label: ClassLabel
    cx: float
    cy: float
    w: float
    h: float
    conf: float
    interpolated: bool = False

    @property
    def provenance(self) -> Provenance:
        return Provenance.INTERPOLATED if self.interpolated else Provenance.OBSERVED


def det(
    frame: int,
    label: ClassLabel = ClassLabel.BEARDED_DRAGON,
    cx: float = 0.5,
    cy: float = 0.5,
    w: float = 0.1,
    h: float = 0.1,
    conf: float = 0.9,
) -> Row:
    return Row(frame, label, cx, cy, w, h, conf)


def columns_of(rows: Sequence[Row]) -> Columns:
    """The columns of test rows, in their order."""
    names = ("frame", "cx", "cy", "w", "h", "conf")
    return Columns(*([getattr(row, name) for row in rows] for name in names))


def timeline_of(geometry: FrameGeometry, frame_count: int, rows: Sequence[Row]) -> Timeline:
    """``Timeline.build`` of test rows, in any order."""
    return Timeline.build(geometry, frame_count, [row.label for row in rows], columns_of(rows))


def reference_by_class(code: Sequence[int], rows: Columns) -> dict[ClassLabel, Columns]:
    """Oracle: each class's rows of ``Timeline.build``'s input, sorted by (frame, -conf, input index)."""
    names = ("frame", "cx", "cy", "w", "h", "conf")
    by_class = {}
    for label in ClassLabel:
        mine = [i for i, c in enumerate(code) if c == label]
        mine.sort(key=lambda i: (rows.frame[i], -rows.conf[i], i))
        by_class[label] = Columns(*([getattr(rows, name)[i] for i in mine] for name in names))
    return by_class


def column_bits(columns: Columns) -> tuple[list, ...]:
    """The columns with each float as its hex text: ``-0.0`` and ``0.0`` differ."""
    floats = (columns.cx, columns.cy, columns.w, columns.h, columns.conf)
    return (list(columns.frame), *([value.hex() for value in column] for column in floats))


def track_of(label: ClassLabel, rows: Sequence[Row]) -> Track:
    """The track of test rows, taken as they are: in frame order, each of ``label``."""
    return Track(label, columns_of(rows), [row.interpolated for row in rows])


def records(
    columns: Columns, label: ClassLabel, interpolated: Sequence[bool] | None = None
) -> list[Row]:
    """The rows of ``columns`` as test rows, interpolated where the flag says so."""
    flags = interpolated if interpolated is not None else [False] * len(columns)
    return [
        Row(frame, label, cx, cy, w, h, conf, flag)
        for frame, cx, cy, w, h, conf, flag in zip(*columns.fields(), flags)
    ]


def by_frame(track: Track) -> dict[int, Row]:
    """A track's rows as test rows, keyed by frame."""
    return {d.frame: d for d in records(track.columns, track.label, track.interpolated)}


def centre(box: Row | Box | None) -> tuple[float, float] | None:
    """The box centre ``reference_classify_basking`` reads, or None without a box."""
    return None if box is None else (box.cx, box.cy)


def corner_box(x1: float, y1: float, x2: float, y2: float) -> Corners:
    return x1, y1, x2, y2


class BoxRow(NamedTuple):
    """One evaluation box as a test writes it: image key, class, pixel corners, confidence."""

    image: str | int
    label: ClassLabel
    corners: Corners
    conf: float = 1.0


def boxes_of(rows: Iterable[BoxRow]) -> Boxes:
    """The evaluation columns of test rows, in their order."""
    rows = list(rows)
    return Boxes(*([getattr(row, name) for row in rows] for name in BoxRow._fields))


@dataclass(frozen=True)
class CentreBox:
    """Reference: the former centre/extent pixel box, corners derived on read."""

    cx: float
    cy: float
    w: float
    h: float

    @property
    def x_min(self) -> float:
        return self.cx - self.w / 2

    @property
    def x_max(self) -> float:
        return self.cx + self.w / 2

    @property
    def y_min(self) -> float:
        return self.cy - self.h / 2

    @property
    def y_max(self) -> float:
        return self.cy + self.h / 2

    @property
    def corners(self) -> Corners:
        return self.x_min, self.y_min, self.x_max, self.y_max


def reference_to_pixels(box: Box, geom: FrameGeometry) -> CentreBox:
    """Reference: the former ``to_pixels``, scaling centre and extent."""
    return CentreBox(
        cx=box.cx * geom.width,
        cy=box.cy * geom.height,
        w=box.w * geom.width,
        h=box.h * geom.height,
    )


def reference_iou(a: CentreBox, b: CentreBox) -> float:
    """Reference: the ``iou`` formula read through :class:`CentreBox` corners."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    if ix <= 0:
        return 0.0
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if iy <= 0:
        return 0.0
    inter = ix * iy
    area_a = (a.x_max - a.x_min) * (a.y_max - a.y_min)
    area_b = (b.x_max - b.x_min) * (b.y_max - b.y_min)
    union = area_a + area_b - inter
    return min(1.0, inter / union) if union > 0 else 0.0


def reference_separation(dragon: Box, lamp: Box, geom: FrameGeometry) -> tuple[float, float]:
    """Reference: the former basking ``(delta_y, theta)``, read through :class:`CentreBox`."""
    dragon_px = reference_to_pixels(dragon, geom)
    lamp_px = reference_to_pixels(lamp, geom)
    delta_y = abs(dragon_px.cy - lamp_px.cy)
    if delta_y == 0:
        return delta_y, 90.0
    return delta_y, math.degrees(math.atan(abs(dragon_px.cx - lamp_px.cx) / delta_y))


unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
extent_floats = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, allow_nan=False)

bboxes = st.builds(Box, cx=unit_floats, cy=unit_floats, w=extent_floats, h=extent_floats)

geometries = st.builds(
    FrameGeometry,
    width=st.integers(min_value=1, max_value=4000),
    height=st.integers(min_value=1, max_value=4000),
    fps=st.floats(min_value=0.1, max_value=240.0, allow_nan=False),
)

pixel_boxes = st.builds(
    lambda x, y, w, h: corner_box(x, y, x + w, y + h),
    x=st.floats(min_value=-700, max_value=500, allow_nan=False),
    y=st.floats(min_value=-700, max_value=500, allow_nan=False),
    w=st.floats(min_value=0.01, max_value=400, allow_nan=False),
    h=st.floats(min_value=0.01, max_value=400, allow_nan=False),
)


@st.composite
def timelines(draw) -> Timeline:
    geometry = draw(geometries)
    frame_count = draw(st.integers(min_value=1, max_value=40))
    n = draw(st.integers(min_value=0, max_value=25))
    rows = [
        Row(
            draw(st.integers(min_value=0, max_value=frame_count - 1)),
            draw(st.sampled_from(list(ClassLabel))),
            *draw(bboxes),
            draw(unit_floats),
        )
        for _ in range(n)
    ]
    return timeline_of(geometry, frame_count, rows)


def normal_equations_slope(times: Sequence[float], values: Sequence[float]) -> float:
    """Oracle: the least-squares slope, the normal equations solved exactly in rationals."""
    t = [Fraction(x) for x in times]
    y = [Fraction(v) for v in values]
    st, sy = sum(t), sum(y)
    stt = sum(x * x for x in t)
    sty = sum(x * v for x, v in zip(t, y))
    return float((len(t) * sty - st * sy) / (len(t) * stt - st * st))


def write_ground_truth(timeline: Timeline) -> str:
    """Serialise a Timeline as a combined ground-truth stream with !frame separators."""
    rows: list[str] = []
    current = None
    for label, row in timeline.rows():
        c = timeline.by_class[label]
        if c.frame[row] != current:
            current = c.frame[row]
            rows.append(f"!frame {current}")
        rows.append(f"{int(label)} {c.cx[row]!r} {c.cy[row]!r} {c.w[row]!r} {c.h[row]!r}")
    return "\n".join(rows) + ("\n" if rows else "")


def reference_associate_crickets(
    timeline: Timeline, gate_fraction: float, max_gap: int
) -> list[list[int]]:
    """Reference: cricket association measuring every open track against every row of a frame.

    The all-pairs loop that the gate window of ``associate_crickets``
    replaced, kept to check its tracks bit for bit. Each track is the list
    of its rows in the timeline's cricket columns; every distance comes from
    :func:`center_distance_px`.
    """
    geom = timeline.geometry
    gate_px = gate_fraction * geom.width
    columns = timeline.detections_for(ClassLabel.CRICKET)
    frame, cx, cy = columns.frame, columns.cx, columns.cy
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

        candidates = []
        for ti, track in enumerate(open_tracks):
            last = track[-1]
            last_x, last_y = cx[last], cy[last]
            limit = gate_px * (t - frame[last])
            for row in range(start, end):
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
    return done_tracks


def reference_filled_continuity(frames: Sequence[int], max_gap: int) -> float | None:
    """Reference: the continuity of a track with observed ``frames`` once its gaps are filled.

    Walks every frame from the first to the last observed one and counts it
    as covered when it is observed or lies in a gap of at most ``max_gap``
    missing frames. None without a frame.
    """
    if not frames:
        return None
    observed = set(frames)
    covered = 0
    for t in range(frames[0], frames[-1] + 1):
        if t in observed:
            covered += 1
        else:
            before = max(f for f in frames if f < t)
            after = min(f for f in frames if f > t)
            covered += after - before - 1 <= max_gap
    return covered / (frames[-1] - frames[0] + 1)


@st.composite
def crowded_cricket_clips(draw) -> tuple[Timeline, float, int]:
    """A cricket-only clip with up to 40 boxes a frame, and the gate and ``max_gap`` to link it with.

    Centres snap to a grid, so distances tie and boxes sit on the frame
    edge (0.0 and 1.0); frames follow each other by up to ``max_gap + 2``,
    so tracks both bridge gaps and close; widths and heights include 1 and
    ``2**53``.
    """
    max_gap = draw(st.integers(0, 15))
    sizes = st.sampled_from([1, 2**53]) | st.integers(1, 4000)
    geometry = FrameGeometry(draw(sizes), draw(sizes), 30.0)
    cells = draw(st.sampled_from([1, 2, 4, 10, 20, 64]))
    snapped = st.integers(0, cells).map(lambda k: k / cells)
    coordinate = snapped | unit_floats
    gate = draw(
        st.sampled_from([1 / cells, 0.05, 1.0])
        | st.floats(min_value=0.0, max_value=1.0, exclude_min=True, allow_nan=False)
    )
    rows: list[Row] = []
    t = 0
    for _ in range(draw(st.integers(1, 8))):
        for _ in range(draw(st.integers(0, 40))):
            conf = draw(st.sampled_from([0.5, 0.9]))
            rows.append(Row(t, ClassLabel.CRICKET, draw(coordinate), draw(coordinate), 0.03, 0.02, conf))
        t += draw(st.integers(1, max_gap + 2))
    return timeline_of(geometry, t, rows), gate, max_gap


# Reference: the dense frame-state path, one record per header frame.
# The pipeline keeps states only for frames with a box or a hunt; these
# functions are what it replaced, kept to check its outputs byte for byte.
# They share no code with the package's frame states or basking rule.


class FrameRecord(NamedTuple):
    """One frame's state as ``frames.jsonl`` writes it; ``delta_y`` and ``theta`` None when unmeasured."""

    frame: int
    kind: BehaviourKind
    delta_y: float | None
    theta: float | None
    dragon_provenance: Provenance | None
    lamp_provenance: Provenance | None


def reference_classify_basking(
    dragon: tuple[float, float] | None,
    lamp: tuple[float, float] | None,
    geom: FrameGeometry,
    cfg: RunConfig,
) -> tuple[bool, tuple[float, float] | None]:
    """Reference: the per-frame basking rule, ``(is_basking, (delta_y, theta))`` from two box centres.

    The separation is None unless both centres are given. Each centre is
    scaled before the subtraction; a zero row distance is 90 degrees.
    """
    if dragon is None or lamp is None:
        return False, None
    dragon_y = dragon[1] * geom.height
    lamp_y = lamp[1] * geom.height
    delta_y = abs(dragon_y - lamp_y)
    if delta_y == 0:
        theta = 90.0
    else:
        dx = abs(dragon[0] * geom.width - lamp[0] * geom.width)
        theta = math.degrees(math.atan(dx / delta_y))
    lamp_above = lamp_y < dragon_y
    is_basking = lamp_above and delta_y <= cfg.beta * geom.height and theta < cfg.theta_max
    return is_basking, (delta_y, theta)


_PROVENANCE = {None: None, False: Provenance.OBSERVED, True: Provenance.INTERPOLATED}


def state_records(states: FrameStates) -> list[FrameRecord]:
    """The pipeline's sparse frame-state columns as records, in frame order."""
    return [
        FrameRecord(frame, kind, delta_y, theta, _PROVENANCE[dragon], _PROVENANCE[lamp])
        for frame, kind, delta_y, theta, dragon, lamp in zip(
            states.frame, states.kind, states.delta_y, states.theta, states.dragon, states.lamp
        )
    ]


def dense_frames(result: AnalysisResult) -> Iterator[tuple[int, FrameRecord | None]]:
    """Every frame of the analysed clip in order, with its record or None for a frame without a state."""
    after = 0
    for record in state_records(result.states):
        for t in range(after, record.frame):
            yield t, None
        yield record.frame, record
        after = record.frame + 1
    for t in range(after, result.frame_count):
        yield t, None


class Separation(NamedTuple):
    delta_y: float
    theta: float


def classify_one(
    dragon: tuple[float, float] | None,
    lamp: tuple[float, float] | None,
    geom: FrameGeometry,
    cfg: RunConfig,
) -> tuple[bool, Separation | None]:
    """The package's rule on a one-frame clip: ``(is_basking, separation)`` from two box centres.

    A centre of None means that object has no box; the separation is None
    unless both have one.
    """

    def track(label: ClassLabel, centre: tuple[float, float] | None) -> Track:
        return track_of(label, [] if centre is None else [Row(0, label, *centre, 0.1, 0.1, 0.9)])

    states = resolve_frame_states(
        track(ClassLabel.BEARDED_DRAGON, dragon), track(ClassLabel.HEATING_LAMP, lamp), [], geom, 1, cfg
    )
    if not states.frame:
        return False, None
    delta_y, theta = states.delta_y[0], states.theta[0]
    separation = None if delta_y is None else Separation(delta_y, theta)
    return states.kind[0] is BehaviourKind.BASKING, separation


def reference_resolve_frame_states(
    dragon: Track,
    lamp: Track,
    hunting_frames: Iterable[int],
    geom: FrameGeometry,
    frame_count: int,
    cfg: RunConfig,
) -> list[FrameRecord]:
    """Reference: exactly one record for every frame of the clip, hunting over basking."""
    hunting = set(hunting_frames)
    dragon_at, lamp_at = by_frame(dragon), by_frame(lamp)
    records: list[FrameRecord] = []
    for t in range(frame_count):
        dragon_det = dragon_at.get(t)
        lamp_det = lamp_at.get(t)
        is_basking, separation = reference_classify_basking(
            centre(dragon_det), centre(lamp_det), geom, cfg
        )
        if t in hunting:
            kind = BehaviourKind.HUNTING
        elif is_basking:
            kind = BehaviourKind.BASKING
        else:
            kind = BehaviourKind.IDLE
        delta_y, theta = (None, None) if separation is None else separation
        records.append(
            FrameRecord(
                t,
                kind,
                delta_y,
                theta,
                dragon_det.provenance if dragon_det else None,
                lamp_det.provenance if lamp_det else None,
            )
        )
    return records


def reference_runs(kinds: Sequence[BehaviourKind]) -> Iterator[tuple[int, int, BehaviourKind]]:
    """Reference: maximal (start, end, kind) runs of a per-frame kind list."""
    start = 0
    for i in range(1, len(kinds) + 1):
        if i == len(kinds) or kinds[i] != kinds[start]:
            yield start, i - 1, kinds[start]
            start = i


def reference_demote_short_basking(
    kinds: Sequence[BehaviourKind], min_episode: int
) -> list[BehaviourKind]:
    """Reference: per-frame kinds with basking runs under ``min_episode`` made idle."""
    out = list(kinds)
    for start, end, kind in reference_runs(out):
        if kind is BehaviourKind.BASKING and end - start + 1 < min_episode:
            out[start : end + 1] = [BehaviourKind.IDLE] * (end - start + 1)
    return out


def reference_run_length_episodes(kinds: Sequence[BehaviourKind], fps: float) -> list[Episode]:
    """Reference: episodes run-length encoded from per-frame kinds."""
    return [
        Episode(kind, start, end, (end - start + 1) / fps)
        for start, end, kind in reference_runs(kinds)
    ]


def reference_activity_reports(
    states: Sequence[FrameRecord], frame_count: int, fps: float
) -> dict[BehaviourKind, ActivityReport]:
    """Reference: activity metrics from one record per frame, coverage counted frame by frame."""
    reports = {}
    for kind in BehaviourKind:
        measured = [(s.frame, s.delta_y) for s in states if s.kind is kind and s.delta_y is not None]
        reports[kind] = ActivityReport(
            coverage=100.0 * sum(1 for s in states if s.kind is kind) / frame_count,
            mean_vertical_diff=mean_vertical_diff([v for _, v in measured]),
            jitter=jitter(measured),
            drift_slope=drift_slope([f / fps for f, _ in measured], [v for _, v in measured]),
            frames_used=len(measured),
        )
    return reports


def reference_frames_jsonl(states: Sequence[FrameRecord]) -> str:
    """Reference: one ``json.dumps`` record per dense frame record."""
    rows = []
    for state in states:
        rows.append(
            json.dumps(
                {
                    "frame": state.frame,
                    "state": state.kind.value,
                    "delta_y": state.delta_y,
                    "theta": state.theta,
                    "dragon_provenance": state.dragon_provenance.value
                    if state.dragon_provenance
                    else None,
                    "lamp_provenance": state.lamp_provenance.value
                    if state.lamp_provenance
                    else None,
                },
                separators=(",", ":"),
            )
        )
    return "\n".join(rows) + ("\n" if rows else "")


def reference_dense_states(timeline: Timeline, result: AnalysisResult) -> list[FrameRecord]:
    """Reference: the final (demoted) record of every frame of the analysed clip."""
    cfg = result.config
    geom = cfg.geometry
    assert geom is not None
    dragon, lamp = (fill_gaps(track, cfg.max_gap) for track in reduce_per_frame(timeline))
    raw = reference_resolve_frame_states(
        dragon, lamp, result.hunting_event_frames, geom, timeline.frame_count, cfg
    )
    kinds = reference_demote_short_basking([s.kind for s in raw], cfg.min_episode)
    return [s if s.kind is k else s._replace(kind=k) for s, k in zip(raw, kinds)]


def reference_outputs(timeline: Timeline, cfg: RunConfig) -> dict[str, bytes]:
    """Reference: ``events.txt``, ``report.json`` and ``frames.jsonl`` from the dense path.

    Tracks, hunts and continuity come from the pipeline; the frame states,
    episodes, activity metrics and frame records are rebuilt densely.
    """
    result = analyze_timeline(timeline, cfg)
    geom = result.config.geometry
    assert geom is not None
    states = reference_dense_states(timeline, result)
    episodes = reference_run_length_episodes([s.kind for s in states], geom.fps)
    activity = (
        reference_activity_reports(states, timeline.frame_count, geom.fps)
        if timeline.frame_count > 0
        else {}
    )
    dense = result._replace(episodes=episodes, activity=activity)
    events = "".join(
        f"{ep.kind.value} {ep.start_frame} {ep.end_frame} {ep.duration_s:.3f}\n" for ep in episodes
    )
    return {
        "events.txt": events.encode(),
        "report.json": (json.dumps(dense.to_json_dict(), indent=2) + "\n").encode(),
        "frames.jsonl": reference_frames_jsonl(states).encode(),
    }
