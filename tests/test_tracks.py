import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dragonwatch.tracks as tracks_module
from dragonwatch.ingest import RunConfig
from dragonwatch.model import ClassLabel, FrameGeometry
from dragonwatch.tracks import (
    Track,
    associate_crickets,
    fill_gaps,
    reduce_per_frame,
)

from helpers import (
    Provenance,
    by_frame,
    crowded_cricket_clips,
    det,
    reference_associate_crickets,
    timeline_of,
    timelines,
    track_of,
)

GEOM = FrameGeometry(640, 480, 30.0)
# the run defaults: a 0.05 * 640 = 32 px gate per elapsed frame, gaps up to 15 frames
GATE, MAX_GAP = RunConfig().cricket_gate, RunConfig().max_gap


def timeline(*detections, frame_count=200):
    return timeline_of(GEOM, frame_count, detections)


def assert_well_formed(track: Track, label: ClassLabel) -> None:
    """Strictly increasing frames, the class's label and one interpolated flag per row."""
    frame = track.columns.frame
    assert all(a < b for a, b in zip(frame, frame[1:]))
    assert track.label is label
    assert {len(column) for column in track.columns.fields()} == {len(track.interpolated)}


class TestTrack:
    @given(tl=timelines(), max_gap=st.integers(0, 20))
    @settings(max_examples=100)
    def test_producers_return_well_formed_tracks(self, tl, max_gap):
        dragon, lamp = reduce_per_frame(tl)
        for track, label in ((dragon, ClassLabel.BEARDED_DRAGON), (lamp, ClassLabel.HEATING_LAMP)):
            assert_well_formed(track, label)
            assert_well_formed(fill_gaps(track, max_gap), label)
        # cricket tracks: rows of the cricket columns, each row in one track, frames increasing
        tracks = associate_crickets(tl, GATE, max_gap)
        frame = tl.detections_for(ClassLabel.CRICKET).frame
        assert sorted(row for rows in tracks for row in rows) == list(range(len(frame)))
        for rows in tracks:
            assert rows and all(frame[a] < frame[b] for a, b in zip(rows, rows[1:]))

    def test_lookup(self):
        track = track_of(ClassLabel.BEARDED_DRAGON, (det(1), det(4)))
        assert by_frame(track)[4].frame == 4
        assert 2 not in by_frame(track)
        assert track.columns.frame[0] == 1
        assert track.columns.frame[-1] == 4


class TestReducePerFrame:
    def test_keeps_highest_confidence(self):
        tl = timeline(det(3, conf=0.9), det(3, conf=0.7, cx=0.3))
        dragon, _ = reduce_per_frame(tl)
        assert len(dragon) == 1
        assert by_frame(dragon)[3].conf == 0.9

    def test_empty_lamp_track(self):
        tl = timeline(det(0))
        _, lamp = reduce_per_frame(tl)
        assert lamp.columns.frame == []

    def test_confidence_tie_breaks_on_area(self):
        tl = timeline(
            det(0, conf=0.8, w=0.1, h=0.2),  # area 0.02
            det(0, conf=0.8, w=0.2, h=0.2, cx=0.3),  # area 0.04
        )
        dragon, _ = reduce_per_frame(tl)
        kept = by_frame(dragon)[0]
        assert kept.w * kept.h == pytest.approx(0.04)

    def test_full_tie_keeps_input_order(self):
        tl = timeline(
            det(0, conf=0.8, cx=0.2),
            det(0, conf=0.8, cx=0.7),
        )
        dragon, _ = reduce_per_frame(tl)
        assert by_frame(dragon)[0].cx == 0.2


class TestAssociateCrickets:
    def test_single_moving_cricket(self):
        # 2 px/frame horizontally, well under the 0.05 * 640 = 32 px gate
        dets = [
            det(t, ClassLabel.CRICKET, cx=0.1 + 2 * t / 640, cy=0.5, w=0.03, h=0.02)
            for t in range(50)
        ]
        tracks = associate_crickets(timeline(*dets), GATE, MAX_GAP)
        assert len(tracks) == 1
        assert len(tracks[0]) == 50

    def test_two_distant_crickets(self):
        dets = []
        for t in range(30):
            dets.append(det(t, ClassLabel.CRICKET, cx=0.1, cy=0.5, w=0.03, h=0.02))
            dets.append(det(t, ClassLabel.CRICKET, cx=0.9, cy=0.5, w=0.03, h=0.02))
        tracks = associate_crickets(timeline(*dets), GATE, MAX_GAP)
        assert len(tracks) == 2
        assert all(len(t) == 30 for t in tracks)

    def test_hole_within_gap_stays_one_track(self):
        dets = [
            det(t, ClassLabel.CRICKET, cx=0.1 + 2 * t / 640, cy=0.5, w=0.03, h=0.02)
            for t in range(40)
            if t not in (10, 11, 12)
        ]
        tracks = associate_crickets(timeline(*dets), GATE, max_gap=15)
        assert len(tracks) == 1
        assert len(tracks[0]) == 37

    def test_gap_beyond_max_splits_track(self):
        dets = [
            det(t, ClassLabel.CRICKET, cx=0.5, cy=0.5, w=0.03, h=0.02)
            for t in range(40)
            if not 10 <= t <= 26  # 17 missing frames > max_gap 15
        ]
        tracks = associate_crickets(timeline(*dets), GATE, max_gap=15)
        assert len(tracks) == 2

    def test_distance_gate_scales_with_elapsed(self):
        # 3 missing frames: jump of 4 frames allows up to 4 * 32 px
        dets = [
            det(0, ClassLabel.CRICKET, cx=0.1, cy=0.5, w=0.03, h=0.02),
            det(4, ClassLabel.CRICKET, cx=0.1 + 100 / 640, cy=0.5, w=0.03, h=0.02),
        ]
        tracks = associate_crickets(timeline(*dets), GATE, MAX_GAP)
        assert len(tracks) == 1

    def test_jump_beyond_gate_starts_new_track(self):
        dets = [
            det(0, ClassLabel.CRICKET, cx=0.1, cy=0.5, w=0.03, h=0.02),
            det(1, ClassLabel.CRICKET, cx=0.9, cy=0.5, w=0.03, h=0.02),
        ]
        tracks = associate_crickets(timeline(*dets), GATE, MAX_GAP)
        assert len(tracks) == 2

    @given(
        clip=st.one_of(
            crowded_cricket_clips().map(lambda clip: clip[:2]),
            st.tuples(timelines(), st.sampled_from([0.05, 1.0])),
        ),
        max_gap=st.integers(0, 20),
    )
    @settings(max_examples=150, deadline=None)
    def test_no_gap_inside_a_track_exceeds_max_gap(self, clip, max_gap):
        # a track closes once gone over max_gap frames, so filling it would cover its whole span
        tl, gate = clip
        frame = tl.detections_for(ClassLabel.CRICKET).frame
        for rows in associate_crickets(tl, gate_fraction=gate, max_gap=max_gap):
            assert all(1 <= frame[b] - frame[a] <= max_gap + 1 for a, b in zip(rows, rows[1:]))

    @given(clip=crowded_cricket_clips())
    @settings(max_examples=150, deadline=None)
    def test_matches_all_pairs_reference(self, clip):
        tl, gate, max_gap = clip
        tracks = associate_crickets(tl, gate_fraction=gate, max_gap=max_gap)
        # the same rows in the same tracks, in track order: every box bit for bit
        assert tracks == reference_associate_crickets(tl, gate, max_gap)


class TestGateWindow:
    """Association measures a track only against the rows inside its gate window."""

    @staticmethod
    def count_distances(monkeypatch) -> list[None]:
        calls: list[None] = []

        def counting(*args):
            calls.append(None)
            return math.hypot(*args)

        monkeypatch.setattr(tracks_module, "hypot", counting)
        return calls

    def test_crowded_grid_measures_under_a_quarter_of_the_pairs(self, monkeypatch):
        # 30 crickets seen in all 60 frames, each circling inside its own cell of a 6 x 5 grid
        dets = [
            det(
                t,
                ClassLabel.CRICKET,
                cx=(i % 6 + 0.5) / 6 + 25 / 640 * math.cos(i + 0.05 * t),
                cy=(i // 6 + 0.5) / 5 + 20 / 480 * math.sin(i + 0.05 * t),
                w=0.03,
                h=0.02,
            )
            for t in range(60)
            for i in range(30)
        ]
        tl = timeline(*dets, frame_count=60)
        calls = self.count_distances(monkeypatch)
        assert [len(track) for track in associate_crickets(tl, GATE, MAX_GAP)] == [60] * 30
        all_pairs = 59 * 30 * 30  # every frame after the first: 30 open tracks, 30 rows
        assert len(calls) <= all_pairs / 4

    def test_one_row_is_measured_once_per_open_track(self, monkeypatch):
        # one cricket a frame, alternating between two far spots: two tracks
        dets = [
            det(t, ClassLabel.CRICKET, cx=0.1 if t % 2 else 0.9, cy=0.5, w=0.03, h=0.02)
            for t in range(40)
        ]
        calls = self.count_distances(monkeypatch)
        assert len(associate_crickets(timeline(*dets), GATE, MAX_GAP)) == 2
        # frame 0 meets no open track, frame 1 one, every later frame two
        assert len(calls) == 0 + 1 + 2 * 38


class TestFillGaps:
    def test_midpoint_blend(self):
        track = track_of(
            ClassLabel.BEARDED_DRAGON,
            (det(0, cx=0.2), det(2, cx=0.4)),
        )
        filled = fill_gaps(track, max_gap=15)
        mid = by_frame(filled).get(1)
        assert mid is not None
        assert mid.cx == pytest.approx(0.3)
        assert mid.provenance is Provenance.INTERPOLATED

    def test_gap_just_beyond_max_left_open(self):
        track = track_of(ClassLabel.BEARDED_DRAGON, (det(0), det(5)))
        filled = fill_gaps(track, max_gap=3)  # gap of 4 missing frames
        assert len(filled) == 2

    def test_gap_exactly_max_is_filled(self):
        track = track_of(ClassLabel.BEARDED_DRAGON, (det(0), det(5)))
        filled = fill_gaps(track, max_gap=4)
        assert len(filled) == 6

    def test_blend_values_across_gap(self):
        track = track_of(
            ClassLabel.BEARDED_DRAGON,
            (det(10, cx=0.0), det(14, cx=0.8)),
        )
        filled = fill_gaps(track, max_gap=15)
        rows = by_frame(filled)
        assert rows[11].cx == pytest.approx(0.2)
        assert rows[12].cx == pytest.approx(0.4)
        assert rows[13].cx == pytest.approx(0.6)

    def test_confidence_is_min_of_endpoints(self):
        track = track_of(
            ClassLabel.BEARDED_DRAGON,
            (det(0, conf=0.9), det(2, conf=0.4)),
        )
        filled = fill_gaps(track, max_gap=15)
        assert by_frame(filled)[1].conf == 0.4

    def test_no_extrapolation(self):
        track = track_of(ClassLabel.BEARDED_DRAGON, (det(5), det(6)))
        filled = fill_gaps(track, max_gap=15)
        assert filled.columns.frame[0] == 5
        assert filled.columns.frame[-1] == 6


def random_track(rng: random.Random) -> Track:
    frames = sorted(rng.sample(range(60), k=rng.randint(1, 20)))
    dets = tuple(
        det(
            f,
            ClassLabel.BEARDED_DRAGON,
            cx=rng.uniform(0.1, 0.9),
            cy=rng.uniform(0.1, 0.9),
            w=rng.uniform(0.05, 0.3),
            h=rng.uniform(0.05, 0.3),
            conf=rng.uniform(0.1, 1.0),
        )
        for f in frames
    )
    return track_of(ClassLabel.BEARDED_DRAGON, dets)


class TestFillGapsProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000), max_gap=st.integers(0, 20))
    @settings(max_examples=80)
    def test_idempotent(self, seed, max_gap):
        track = random_track(random.Random(seed))
        once = fill_gaps(track, max_gap)
        assert fill_gaps(once, max_gap) == once

    @given(seed=st.integers(min_value=0, max_value=10_000), max_gap=st.integers(0, 20))
    @settings(max_examples=80)
    def test_observed_detections_preserved(self, seed, max_gap):
        track = random_track(random.Random(seed))
        filled = fill_gaps(track, max_gap)
        filled_rows = by_frame(filled)
        for original in by_frame(track).values():
            assert filled_rows[original.frame] == original

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50)
    def test_interpolated_confidence_never_exceeds_endpoints(self, seed):
        track = random_track(random.Random(seed))
        filled = fill_gaps(track, max_gap=10)
        observed = by_frame(track)
        frames = sorted(observed)
        for d in by_frame(filled).values():
            if d.provenance is Provenance.INTERPOLATED:
                left = max(f for f in frames if f < d.frame)
                right = min(f for f in frames if f > d.frame)
                assert d.conf <= observed[left].conf
                assert d.conf <= observed[right].conf

    def test_monotone_coordinates_stay_monotone(self):
        track = track_of(
            ClassLabel.BEARDED_DRAGON,
            (det(0, cx=0.1, cy=0.8), det(7, cx=0.6, cy=0.2)),
        )
        filled = fill_gaps(track, max_gap=10)
        xs = filled.columns.cx
        ys = filled.columns.cy
        assert xs == sorted(xs)
        assert ys == sorted(ys, reverse=True)
