import math

import pytest
from hypothesis import given

from dragonwatch.model import (
    MAX_CLIP_SECONDS,
    ClassLabel,
    FrameGeometry,
    PixelBox,
    center_distance_px,
    check_clip_length,
    iou,
    to_pixels,
)

from helpers import (
    Box,
    bboxes,
    corner_box,
    det,
    geometries,
    pixel_boxes,
    reference_iou,
    reference_to_pixels,
    timeline_of,
)


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
        [
            (0, 480, "width must be >= 1, got 0"),
            (640, -2, "height must be >= 1, got -2"),
            (2**53 + 1, 480, "width must be <= 2**53, got 9007199254740993"),
            (640, 10**400, f"height must be <= 2**53, got {10**400}"),
        ],
    )
    def test_size_message_names_one_field(self, width, height, message):
        with pytest.raises(ValueError) as err:
            FrameGeometry(width, height, 30.0)
        assert str(err.value) == message

    def test_largest_size_is_the_largest_exact_float_integer(self):
        geom = FrameGeometry(2**53, 2**53, 30.0)
        assert float(geom.width) == geom.width


class TestClipLength:
    @pytest.mark.parametrize(
        "frame_count, fps", [(0, 5e-324), (2**53, 1.0), (2**54, 2.0), (1, 1e-15)]
    )
    def test_accepts_up_to_the_limit(self, frame_count, fps):
        check_clip_length(frame_count, fps)

    @pytest.mark.parametrize(
        "frame_count, fps, message",
        [
            (2**53 + 1, 1.0, "9007199254740993 frames at 1.0 fps last over 2**53 seconds"),
            (1, 5e-324, "1 frames at 5e-324 fps last over 2**53 seconds"),
            (10**400, 1.0, f"{10**400} frames at 1.0 fps last over 2**53 seconds"),
        ],
    )
    def test_rejects_beyond_the_limit(self, frame_count, fps, message):
        with pytest.raises(ValueError) as err:
            check_clip_length(frame_count, fps)
        assert str(err.value) == message

    def test_drift_squares_stay_finite_at_the_limit(self):
        # the drift slope squares times up to the clip length and sums one square per frame
        assert math.isfinite(MAX_CLIP_SECONDS**2 * 2.0**63)


def pixels(box: Box, geom: FrameGeometry) -> PixelBox:
    return to_pixels(box.cx, box.cy, box.w, box.h, geom)


def bits(box) -> list[str]:
    return [v.hex() for v in (box.x_min, box.y_min, box.x_max, box.y_max)]


class TestToPixels:
    def test_midpoint_scaling(self):
        px = to_pixels(0.5, 0.5, 0.1, 0.1, FrameGeometry(640, 480, 30.0))
        assert px == PixelBox(x_min=288.0, y_min=216.0, x_max=352.0, y_max=264.0)

    def test_origin(self):
        px = to_pixels(0.0, 0.0, 0.2, 0.2, FrameGeometry(100, 100, 30.0))
        assert px == PixelBox(x_min=-10.0, y_min=-10.0, x_max=10.0, y_max=10.0)

    def test_hand_multiplied(self):
        px = to_pixels(0.25, 0.75, 0.5, 0.5, FrameGeometry(100, 200, 30.0))
        assert px == PixelBox(x_min=0.0, y_min=100.0, x_max=50.0, y_max=200.0)

    @given(box=bboxes, geom=geometries)
    def test_corners_match_centre_extent_reference_bit_for_bit(self, box, geom):
        # each corner is c * size -/+ e * size / 2, as the centre/extent layout derived it
        assert bits(pixels(box, geom)) == bits(reference_to_pixels(box, geom))


class TestIou:
    def test_identical(self):
        box = corner_box(8, 8, 12, 12)
        assert iou(box, box) == 1.0

    def test_disjoint(self):
        assert iou(corner_box(-1, -1, 1, 1), corner_box(9, 9, 11, 11)) == 0.0

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

    def test_underflowing_union_is_no_overlap(self):
        # positive extents whose products underflow to 0: the ratio is 0/0
        box = pixels(Box(0.0, 0.0, 2.189413701196951e-46, 5.377463426376192e-307), FrameGeometry(1, 1, 1.0))
        assert box.x_max > box.x_min and box.y_max > box.y_min
        assert iou(box, box) == 0.0

    @given(a=bboxes, b=bboxes, geom=geometries)
    def test_equals_centre_extent_reference(self, a, b, geom):
        expected = reference_iou(reference_to_pixels(a, geom), reference_to_pixels(b, geom))
        assert iou(pixels(a, geom), pixels(b, geom)) == expected


class TestCenterDistance:
    def test_hand_computed(self):
        geom = FrameGeometry(80, 80, 30.0)
        a = (0.25, 0.25)
        b = (0.625, 0.75)
        assert center_distance_px(*a, *b, geom) == 50.0
        assert center_distance_px(*b, *a, geom) == 50.0

    def test_scales_each_axis_by_its_own_size(self):
        geom = FrameGeometry(200, 10, 30.0)
        assert center_distance_px(0.5, 0.5, 0.75, 0.5, geom) == 50.0
        assert center_distance_px(0.5, 0.5, 0.5, 0.75, geom) == 2.5


class TestTimeline:
    def test_build_sorts_by_frame_then_confidence(self):
        detections = [
            det(2, conf=0.5),
            det(0, conf=0.3),
            det(2, conf=0.9),
            det(0, conf=0.3, cx=0.4),
        ]
        tl = timeline_of(FrameGeometry(640, 480, 30.0), 5, detections)
        dragon = tl.detections_for(ClassLabel.BEARDED_DRAGON)
        assert dragon.frame == [0, 0, 2, 2]
        assert dragon.conf == [0.3, 0.3, 0.9, 0.5]
        # stable on confidence ties: input order preserved
        assert dragon.cx[0] == 0.5
        assert dragon.cx[1] == 0.4

    @pytest.mark.parametrize(
        "field, value",
        [
            ("frame", -1),
            ("frame", 3),  # == frame_count
            ("label", 3),
            ("cx", 1.5),
            ("cy", math.nan),
            ("w", 0.0),
            ("h", 1.5),
            ("conf", -0.1),
            ("conf", math.nan),
        ],
    )
    def test_build_rejects_a_row_out_of_range(self, field, value):
        rows = [det(0), det(1)._replace(**{field: value}), det(2)]
        with pytest.raises(ValueError):
            timeline_of(FrameGeometry(640, 480, 30.0), 3, rows)

    def test_rows_order(self):
        detections = [
            det(1, ClassLabel.CRICKET),
            det(0, ClassLabel.HEATING_LAMP),
            det(0, ClassLabel.BEARDED_DRAGON),
            det(1, ClassLabel.BEARDED_DRAGON),
        ]
        tl = timeline_of(FrameGeometry(640, 480, 30.0), 2, detections)
        flat = [(tl.by_class[label].frame[row], int(label)) for label, row in tl.rows()]
        assert flat == [(0, 0), (0, 1), (1, 0), (1, 2)]
        assert tl.detection_count == 4

    def test_theta_example_geometry(self):
        # sanity: arctan(100 / 200) is about 26.57 degrees
        assert math.degrees(math.atan(100 / 200)) == pytest.approx(26.565, abs=1e-3)
