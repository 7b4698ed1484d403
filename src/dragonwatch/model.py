"""Shared domain types and bounding-box geometry.

Detection files carry YOLO-style normalised boxes (centre and extent as
fractions of the frame). All behaviour rules threshold pixel distances, so
boxes are converted with :func:`to_pixels` before any geometric test.
Image rows grow downward: a smaller ``cy`` means higher up in the frame.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping


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


class Provenance(enum.Enum):
    """Whether a detection was read from a log or synthesised by gap filling."""

    OBSERVED = "observed"
    INTERPOLATED = "interpolated"


@dataclass(frozen=True)
class BBox:
    """Normalised centre/extent box: ``cx, cy`` in [0, 1], ``w, h`` in (0, 1].

    These bounds also guarantee the box is never fully outside the unit
    square: the centre itself always lies inside it.
    """

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.cx <= 1.0 and 0.0 <= self.cy <= 1.0):
            raise ValueError(f"box centre outside unit square: ({self.cx}, {self.cy})")
        if not (0.0 < self.w <= 1.0 and 0.0 < self.h <= 1.0):
            raise ValueError(f"box extent outside (0, 1]: ({self.w}, {self.h})")

    @property
    def area(self) -> float:
        return self.w * self.h


@dataclass(frozen=True)
class FrameGeometry:
    """Pixel dimensions and frame rate of a clip."""

    width: int
    height: int
    fps: float

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if self.height < 1:
            raise ValueError(f"height must be >= 1, got {self.height}")
        if not (math.isfinite(self.fps) and self.fps > 0):
            raise ValueError(f"fps must be finite and positive, got {self.fps}")


@dataclass(frozen=True)
class PixelBox:
    """Centre/extent box in pixel units."""

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
    def area(self) -> float:
        return self.w * self.h


def to_pixels(box: BBox, geom: FrameGeometry) -> PixelBox:
    """Scale a normalised box into pixel space. Exact arithmetic, no rounding."""
    return PixelBox(
        cx=box.cx * geom.width,
        cy=box.cy * geom.height,
        w=box.w * geom.width,
        h=box.h * geom.height,
    )


def to_normalized(box: PixelBox, geom: FrameGeometry) -> BBox:
    """Inverse of :func:`to_pixels`."""
    return BBox(
        cx=box.cx / geom.width,
        cy=box.cy / geom.height,
        w=box.w / geom.width,
        h=box.h / geom.height,
    )


def iou(a: PixelBox, b: PixelBox) -> float:
    """Intersection over union of two positive-extent boxes; 0.0 when disjoint.

    Areas come from the same corner arithmetic as the intersection, which
    keeps the result in [0, 1] and makes iou(a, a) exactly 1.0.
    """
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    if ix <= 0:
        return 0.0
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if iy <= 0:
        return 0.0
    inter = ix * iy
    area_a = (a.x_max - a.x_min) * (a.y_max - a.y_min)
    area_b = (b.x_max - b.x_min) * (b.y_max - b.y_min)
    return min(1.0, inter / (area_a + area_b - inter))


@dataclass(frozen=True)
class Detection:
    """One observed or interpolated box for one class in one frame."""

    frame: int
    label: ClassLabel
    box: BBox
    confidence: float
    provenance: Provenance = Provenance.OBSERVED

    def __post_init__(self) -> None:
        if self.frame < 0:
            raise ValueError(f"frame index must be >= 0, got {self.frame}")
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence outside [0, 1]: {self.confidence}")


@dataclass(frozen=True)
class Timeline:
    """All detections of one clip, grouped per class.

    Per-class sequences are sorted by frame, then by descending confidence,
    preserving input order on ties. Frame indices are clip-local and lie in
    ``[0, frame_count)``.
    """

    geometry: FrameGeometry
    frame_count: int
    by_class: Mapping[ClassLabel, tuple[Detection, ...]]

    @classmethod
    def build(
        cls,
        geometry: FrameGeometry,
        frame_count: int,
        detections: Iterable[Detection],
    ) -> "Timeline":
        if frame_count < 0:
            raise ValueError(f"frame_count must be >= 0, got {frame_count}")
        groups: dict[ClassLabel, list[Detection]] = {label: [] for label in ClassLabel}
        for det in detections:
            if det.frame >= frame_count:
                raise ValueError(f"frame {det.frame} outside [0, {frame_count})")
            groups[det.label].append(det)
        by_class = {
            label: tuple(sorted(dets, key=lambda d: (d.frame, -d.confidence)))
            for label, dets in groups.items()
        }
        return cls(geometry=geometry, frame_count=frame_count, by_class=by_class)

    def detections_for(self, label: ClassLabel) -> tuple[Detection, ...]:
        return self.by_class.get(label, ())

    def all_detections(self) -> Iterator[Detection]:
        """Flat iterator ordered by (frame, class, descending confidence)."""
        merged: list[Detection] = []
        for label in ClassLabel:
            merged.extend(self.by_class.get(label, ()))
        merged.sort(key=lambda d: (d.frame, int(d.label)))
        return iter(merged)

    @property
    def detection_count(self) -> int:
        return sum(len(dets) for dets in self.by_class.values())
