"""Shared domain types and bounding-box geometry.

Detection files carry YOLO-style normalised boxes (centre and extent as
fractions of the frame). Geometric tests work in pixels: :func:`to_pixels`
gives the corners :func:`iou` reads, and :func:`center_distance_px` the
centre distance the tracking and hunting rules threshold.
Image rows grow downward: a smaller ``cy`` means higher up in the frame.

A clip's boxes are held as :class:`Columns`, one list per field and one row
per box, not as one object per box. Every producer (the log and
ground-truth parsers, synthetic clips) appends plain values to columns and
makes its :class:`Timeline` with :meth:`Timeline.build`, which checks every
row's frame, class and ranges.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import reduce
from itertools import compress, islice, repeat
from operator import add, eq, lt
from typing import Iterable, Mapping, Sequence


class ClassLabel(enum.IntEnum):
    """Object classes in the enclosure. Codes are stable across all file formats."""

    BEARDED_DRAGON = 0
    HEATING_LAMP = 1
    CRICKET = 2

    @property
    def display_name(self) -> str:
        return _DISPLAY_NAMES[self]


_DISPLAY_NAMES = {
    ClassLabel.BEARDED_DRAGON: "BeardedDragon",
    ClassLabel.HEATING_LAMP: "HeatingLamp",
    ClassLabel.CRICKET: "Cricket",
}


def sequential_sum(values: Iterable[float]) -> float:
    """``values`` added one by one, starting from int 0, as the builtin ``sum`` does up to Python 3.11.

    From 3.12 ``sum`` compensates float rounding, so its last digits can
    differ; the pinned outputs hold this order on every supported Python.
    """
    return reduce(add, values, 0)


def in_unit_range(value: float) -> bool:
    """``0 <= value <= 1``: the range of a box centre coordinate and of a confidence.

    False for NaN, whose comparisons are all false.
    """
    return 0.0 <= value <= 1.0


def in_extent_range(value: float) -> bool:
    """``0 < value <= 1``: the range of a box width or height. False for NaN."""
    return 0.0 < value <= 1.0


@dataclass(frozen=True)
class FrameGeometry:
    """Pixel dimensions and frame rate of a clip."""

    width: int
    height: int
    fps: float

    def __post_init__(self) -> None:
        for name, size in (("width", self.width), ("height", self.height)):
            if size < 1:
                raise ValueError(f"{name} must be >= 1, got {size}")
            if size > 2**53:  # the integers a float holds exactly: pixel formulas scale by floats
                raise ValueError(f"{name} must be <= 2**53, got {size}")
        if not (math.isfinite(self.fps) and self.fps > 0):
            raise ValueError(f"fps must be finite and positive, got {self.fps}")


# The longest clip, in seconds. So far below the float range that every time
# derived from a clip, and the drift slope's sum of squared times, stay finite.
MAX_CLIP_SECONDS = 2**53


def check_clip_length(frame_count: int, fps: float) -> None:
    """ValueError when ``frame_count`` frames at ``fps`` last over :data:`MAX_CLIP_SECONDS`."""
    # an int compared with a float is exact, for any frame count
    if not frame_count <= MAX_CLIP_SECONDS * fps:
        raise ValueError(f"{frame_count} frames at {fps!r} fps last over 2**53 seconds")


# The most frames a clip may have: over 38 days at 30 fps. Some outputs
# grow with the frame count (``frames.jsonl`` has a line per frame), so a
# bound on the count, not only on the duration, keeps every run finite.
MAX_FRAME_COUNT = 10**8


def check_frame_count(frame_count: int) -> None:
    """ValueError when ``frame_count`` is over :data:`MAX_FRAME_COUNT`."""
    if frame_count > MAX_FRAME_COUNT:
        raise ValueError(f"frame count must be <= {MAX_FRAME_COUNT}, got {frame_count}")


# A pixel box as its corners: (x_min, y_min, x_max, y_max), x_min <= x_max, y_min <= y_max
Corners = tuple[float, float, float, float]


def to_pixels(cx: float, cy: float, w: float, h: float, geom: FrameGeometry) -> Corners:
    """Scale a normalised centre/extent box into pixel corners. Exact arithmetic, no rounding.

    Centre and extent are scaled first, then halved about the centre.
    """
    cx = cx * geom.width
    cy = cy * geom.height
    w = w * geom.width
    h = h * geom.height
    return cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2


def iou(a: Corners, b: Corners) -> float:
    """Intersection over union of two positive-extent boxes; 0.0 when disjoint.

    Areas come from the same corner arithmetic as the intersection, which
    keeps the result in [0, 1] and makes iou(a, a) exactly 1.0. Boxes so
    small that the union underflows to 0 have no measurable overlap: 0.0,
    as every 0/0 ratio of the toolkit.
    """
    ax_min, ay_min, ax_max, ay_max = a
    bx_min, by_min, bx_max, by_max = b
    ix = min(ax_max, bx_max) - max(ax_min, bx_min)
    if ix <= 0:
        return 0.0
    iy = min(ay_max, by_max) - max(ay_min, by_min)
    if iy <= 0:
        return 0.0
    inter = ix * iy
    area_a = (ax_max - ax_min) * (ay_max - ay_min)
    area_b = (bx_max - bx_min) * (by_max - by_min)
    union = area_a + area_b - inter
    return min(1.0, inter / union) if union > 0 else 0.0


def center_distance_px(ax: float, ay: float, bx: float, by: float, geom: FrameGeometry) -> float:
    """Pixel distance between the normalised box centres ``(ax, ay)`` and ``(bx, by)``."""
    dx = (ax - bx) * geom.width
    dy = (ay - by) * geom.height
    return math.hypot(dx, dy)


@dataclass(frozen=True)
class Columns:
    """Boxes of one class as parallel columns: row ``i`` is one box.

    ``frame`` holds clip frame indices, ``cx, cy, w, h`` the normalised box
    (centre in [0, 1], so never fully outside the frame; extent in (0, 1])
    and ``conf`` the confidence, in [0, 1]. The lists are shared, never
    modified, once a :class:`Timeline` holds them.
    """

    frame: list[int]
    cx: list[float]
    cy: list[float]
    w: list[float]
    h: list[float]
    conf: list[float]

    def __len__(self) -> int:
        return len(self.frame)

    def fields(self) -> tuple[list, ...]:
        """The six columns, in declaration order."""
        return self.frame, self.cx, self.cy, self.w, self.h, self.conf

    def take(self, rows: Sequence[int]) -> "Columns":
        """The given rows, in the given order."""
        return Columns(*(list(map(column.__getitem__, rows)) for column in self.fields()))

    def in_timeline_order(self) -> "Columns":
        """The rows sorted by frame, then by descending confidence, input order kept on ties."""
        frame = self.frame
        if all(map(lt, frame, islice(frame, 1, None))):
            return self
        # two stable sorts, the last by the first key: no key tuple per row
        rows = sorted(range(len(frame)), key=self.conf.__getitem__, reverse=True)
        rows.sort(key=frame.__getitem__)
        return self.take(rows)


_CLASS_CODES = frozenset(label.value for label in ClassLabel)
# the range of each box and confidence column: cx, cy, w, h, conf
_RANGES = (in_unit_range, in_unit_range, in_extent_range, in_extent_range, in_unit_range)


@dataclass(frozen=True)
class Timeline:
    """All boxes of one clip, as one :class:`Columns` per class.

    Each class's rows are sorted by frame, then by descending confidence,
    preserving input order on ties. Frame indices are clip-local and lie in
    ``[0, frame_count)``.
    """

    geometry: FrameGeometry
    frame_count: int
    by_class: Mapping[ClassLabel, Columns]

    @classmethod
    def build(
        cls,
        geometry: FrameGeometry,
        frame_count: int,
        code: Sequence[int],
        rows: Columns,
    ) -> "Timeline":
        """The timeline of ``rows``, in any order; row ``i`` is a box of class ``code[i]``.

        ValueError unless every frame lies in ``[0, frame_count)``, every
        code is a :class:`ClassLabel` and every box and confidence is in
        its range (see :class:`Columns`).
        """
        if frame_count < 0:
            raise ValueError(f"frame_count must be >= 0, got {frame_count}")
        frame = rows.frame
        if frame and not (0 <= min(frame) and max(frame) < frame_count):
            raise ValueError(f"frame outside [0, {frame_count})")
        if not _CLASS_CODES.issuperset(code):
            raise ValueError(f"class code outside {sorted(_CLASS_CODES)}")
        for column, in_range in zip(rows.fields()[1:], _RANGES):
            if not all(map(in_range, column)):
                raise ValueError("box or confidence outside its range")
        by_class = {}
        for label in ClassLabel:
            mine = list(map(eq, code, repeat(label.value)))
            by_class[label] = Columns(
                *(list(compress(column, mine)) for column in rows.fields())
            ).in_timeline_order()
        return cls(geometry, frame_count, by_class)

    def detections_for(self, label: ClassLabel) -> Columns:
        return self.by_class[label]

    def rows(self) -> list[tuple[ClassLabel, int]]:
        """Every box as (class, row), ordered by frame, then class, then descending confidence."""
        keyed = sorted(
            (frame, label, row)
            for label, columns in self.by_class.items()
            for row, frame in enumerate(columns.frame)
        )
        return [(label, row) for _, label, row in keyed]

    @property
    def detection_count(self) -> int:
        return sum(len(columns) for columns in self.by_class.values())
