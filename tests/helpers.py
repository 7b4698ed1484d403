"""Shared test builders and hypothesis strategies."""

from __future__ import annotations

import math
from dataclasses import dataclass

from hypothesis import strategies as st

from dragonwatch.model import (
    BBox,
    ClassLabel,
    Detection,
    FrameGeometry,
    PixelBox,
    Provenance,
    Timeline,
)


def det(
    frame: int,
    label: ClassLabel = ClassLabel.BEARDED_DRAGON,
    cx: float = 0.5,
    cy: float = 0.5,
    w: float = 0.1,
    h: float = 0.1,
    conf: float = 0.9,
    provenance: Provenance = Provenance.OBSERVED,
) -> Detection:
    return Detection(frame, label, BBox(cx, cy, w, h), conf, provenance)


def corner_box(x1: float, y1: float, x2: float, y2: float) -> PixelBox:
    return PixelBox(x_min=x1, y_min=y1, x_max=x2, y_max=y2)


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


def reference_to_pixels(box: BBox, geom: FrameGeometry) -> CentreBox:
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
    return min(1.0, inter / (area_a + area_b - inter))


def reference_separation(dragon: BBox, lamp: BBox, geom: FrameGeometry) -> tuple[float, float]:
    """Reference: the former basking ``(delta_y, theta)``, read through :class:`CentreBox`."""
    dragon_px = reference_to_pixels(dragon, geom)
    lamp_px = reference_to_pixels(lamp, geom)
    delta_y = abs(dragon_px.cy - lamp_px.cy)
    if delta_y == 0:
        return delta_y, 90.0
    return delta_y, math.degrees(math.atan(abs(dragon_px.cx - lamp_px.cx) / delta_y))


unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
extent_floats = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, allow_nan=False)

bboxes = st.builds(BBox, cx=unit_floats, cy=unit_floats, w=extent_floats, h=extent_floats)

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
    detections = [
        Detection(
            frame=draw(st.integers(min_value=0, max_value=frame_count - 1)),
            label=draw(st.sampled_from(list(ClassLabel))),
            box=draw(bboxes),
            confidence=draw(unit_floats),
        )
        for _ in range(n)
    ]
    return Timeline.build(geometry, frame_count, detections)
