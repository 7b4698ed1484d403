import math

import pytest
from hypothesis import given

from dragonwatch.model import (
    BBox,
    ClassLabel,
    Detection,
    FrameGeometry,
    PixelBox,
    Timeline,
    iou,
    to_normalized,
    to_pixels,
)

from helpers import bboxes, corner_box, det, geometries, pixel_boxes


class TestBBox:
    def test_valid(self):
        box = BBox(0.5, 0.5, 0.2, 0.2)
        assert box.area == pytest.approx(0.04)

    @pytest.mark.parametrize(
        "cx,cy,w,h",
        [
            (-0.1, 0.5, 0.1, 0.1),
            (0.5, 1.5, 0.1, 0.1),
            (0.5, 0.5, 0.0, 0.1),
            (0.5, 0.5, 0.1, 1.2),
        ],
    )
    def test_rejects_out_of_bounds(self, cx, cy, w, h):
        with pytest.raises(ValueError):
            BBox(cx, cy, w, h)


class TestFrameGeometry:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            FrameGeometry(0, 480, 30.0)
        with pytest.raises(ValueError):
            FrameGeometry(640, 480, 0.0)
        with pytest.raises(ValueError):
            FrameGeometry(640, 480, float("inf"))

    @pytest.mark.parametrize(
        "width, height, message",
        [(0, 480, "width must be >= 1, got 0"), (640, -2, "height must be >= 1, got -2")],
    )
    def test_size_message_names_one_field(self, width, height, message):
        with pytest.raises(ValueError) as err:
            FrameGeometry(width, height, 30.0)
        assert str(err.value) == message


class TestToPixels:
    def test_midpoint_scaling(self):
        px = to_pixels(BBox(0.5, 0.5, 0.1, 0.1), FrameGeometry(640, 480, 30.0))
        assert (px.cx, px.cy) == (320.0, 240.0)
        assert (px.w, px.h) == (64.0, 48.0)

    def test_origin(self):
        px = to_pixels(BBox(0.0, 0.0, 0.2, 0.2), FrameGeometry(100, 100, 30.0))
        assert (px.cx, px.cy) == (0.0, 0.0)

    def test_hand_multiplied(self):
        px = to_pixels(BBox(0.25, 0.75, 0.5, 0.5), FrameGeometry(100, 200, 30.0))
        assert (px.cx, px.cy) == (25.0, 150.0)
        assert (px.w, px.h) == (50.0, 100.0)

    @given(box=bboxes, geom=geometries)
    def test_round_trip(self, box, geom):
        back = to_normalized(to_pixels(box, geom), geom)
        for a, b in [(back.cx, box.cx), (back.cy, box.cy), (back.w, box.w), (back.h, box.h)]:
            assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


class TestIou:
    def test_identical(self):
        box = PixelBox(10, 10, 4, 4)
        assert iou(box, box) == 1.0

    def test_disjoint(self):
        assert iou(PixelBox(0, 0, 2, 2), PixelBox(10, 10, 2, 2)) == 0.0

    def test_hand_computed_overlap(self):
        a = corner_box(0, 0, 2, 2)
        b = corner_box(1, 0, 3, 2)
        assert iou(a, b) == pytest.approx(2 / 6)

    @given(a=pixel_boxes, b=pixel_boxes)
    def test_symmetry(self, a, b):
        assert iou(a, b) == iou(b, a)

    @given(a=pixel_boxes)
    def test_self_overlap_is_one(self, a):
        assert iou(a, a) == 1.0

    @given(a=pixel_boxes, b=pixel_boxes)
    def test_bounded(self, a, b):
        assert 0.0 <= iou(a, b) <= 1.0


class TestDetection:
    def test_rejects_bad_confidence(self):
        with pytest.raises(ValueError):
            det(0, conf=1.5)

    def test_rejects_negative_frame(self):
        with pytest.raises(ValueError):
            det(-1)


class TestTimeline:
    def test_build_sorts_by_frame_then_confidence(self):
        detections = [
            det(2, conf=0.5),
            det(0, conf=0.3),
            det(2, conf=0.9),
            det(0, conf=0.3, cx=0.4),
        ]
        tl = Timeline.build(FrameGeometry(640, 480, 30.0), 5, detections)
        dragon = tl.detections_for(ClassLabel.BEARDED_DRAGON)
        assert [d.frame for d in dragon] == [0, 0, 2, 2]
        assert [d.confidence for d in dragon] == [0.3, 0.3, 0.9, 0.5]
        # stable on confidence ties: input order preserved
        assert dragon[0].box.cx == 0.5
        assert dragon[1].box.cx == 0.4

    def test_build_rejects_frame_beyond_count(self):
        with pytest.raises(ValueError):
            Timeline.build(FrameGeometry(640, 480, 30.0), 3, [det(3)])

    def test_all_detections_order(self):
        detections = [
            det(1, ClassLabel.CRICKET),
            det(0, ClassLabel.HEATING_LAMP),
            det(0, ClassLabel.BEARDED_DRAGON),
            det(1, ClassLabel.BEARDED_DRAGON),
        ]
        tl = Timeline.build(FrameGeometry(640, 480, 30.0), 2, detections)
        flat = [(d.frame, int(d.label)) for d in tl.all_detections()]
        assert flat == [(0, 0), (0, 1), (1, 0), (1, 2)]
        assert tl.detection_count == 4

    def test_theta_example_geometry(self):
        # sanity: arctan(100 / 200) is about 26.57 degrees
        assert math.degrees(math.atan(100 / 200)) == pytest.approx(26.565, abs=1e-3)
