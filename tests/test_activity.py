import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dragonwatch.activity import (
    activity_report,
    activity_reports,
    coverage,
    drift_slope,
    jitter,
    mean_vertical_diff,
)
from dragonwatch.behaviour import BaskingGeometry, BehaviourKind, FrameState

from helpers import normal_equations_slope, reference_runs

IDLE = BehaviourKind.IDLE
BASKING = BehaviourKind.BASKING
HUNTING = BehaviourKind.HUNTING


def runs_of(kinds):
    return list(reference_runs(kinds))


def report_for(states, kind, frame_count):
    """activity_report over states that give every frame of the clip a state."""
    return activity_report(states, runs_of([s.kind for s in states]), kind, frame_count, 30.0)


def state(frame, kind, delta_y=None):
    sep = None if delta_y is None else BaskingGeometry(delta_y=delta_y, theta=0.0)
    return FrameState(frame, kind, sep, None, None)


class TestCoverage:
    def test_all_frames(self):
        assert coverage(runs_of([BASKING] * 200), BASKING, 200) == 100.0

    def test_none(self):
        assert coverage(runs_of([IDLE] * 200), HUNTING, 200) == 0.0

    def test_fraction_matches_hand_value(self):
        kinds = [BASKING] * 33 + [IDLE] * 167
        assert coverage(runs_of(kinds), BASKING, 200) == pytest.approx(16.5)

    def test_requires_frames(self):
        with pytest.raises(ValueError):
            coverage([], IDLE, 0)

    @given(
        kinds=st.lists(st.sampled_from([IDLE, BASKING, HUNTING]), min_size=1, max_size=80)
    )
    @settings(max_examples=100)
    def test_three_states_sum_to_hundred(self, kinds):
        total = sum(coverage(runs_of(kinds), kind, len(kinds)) for kind in BehaviourKind)
        assert total == pytest.approx(100.0, abs=1e-9)

    @given(
        kinds=st.lists(st.sampled_from([IDLE, BASKING, HUNTING]), min_size=1, max_size=80)
    )
    @settings(max_examples=100)
    def test_run_lengths_equal_frame_count(self, kinds):
        for kind in BehaviourKind:
            per_frame = 100.0 * sum(1 for k in kinds if k is kind) / len(kinds)
            assert coverage(runs_of(kinds), kind, len(kinds)) == per_frame


class TestMeanVerticalDiff:
    def test_constant(self):
        assert mean_vertical_diff([233.0, 233.0, 233.0]) == 233.0

    def test_two_point_mean(self):
        assert mean_vertical_diff([100.0, 300.0]) == 200.0

    def test_hand_computed(self):
        assert mean_vertical_diff([234.9, 426.8]) == pytest.approx(330.85)

    def test_absent_when_empty(self):
        assert mean_vertical_diff([]) is None


class TestJitter:
    def test_constant_series(self):
        samples = [(0, 50.0), (1, 50.0), (2, 50.0)]
        assert jitter(samples) == 0.0

    def test_single_frame_absent(self):
        assert jitter([(5, 100.0)]) is None

    def test_hand_computed(self):
        samples = [(0, 100.0), (1, 103.0), (2, 101.0)]
        assert jitter(samples) == pytest.approx(2.5)

    def test_pairs_across_holes_excluded(self):
        samples = [(0, 100.0), (1, 104.0), (5, 200.0), (6, 207.0)]
        assert jitter(samples) == pytest.approx((4.0 + 7.0) / 2)

    def test_only_non_adjacent_frames_absent(self):
        assert jitter([(0, 100.0), (5, 200.0)]) is None

    @given(
        values=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30),
        shift=st.floats(-1e6, 1e6),
    )
    @settings(max_examples=100)
    def test_shift_invariant(self, values, shift):
        samples = list(enumerate(values))
        shifted = [(f, v + shift) for f, v in samples]
        assert jitter(shifted) == pytest.approx(jitter(samples), rel=1e-6, abs=1e-3)


class TestDriftSlope:
    def test_constant_series(self):
        times = [0.0, 1.0, 2.0]
        assert drift_slope(times, [7.0, 7.0, 7.0]) == 0.0

    def test_exact_linear(self):
        times = [t / 30 for t in range(20)]
        values = [5 + 2 * t for t in times]
        assert drift_slope(times, values) == pytest.approx(2.0, abs=1e-9)

    def test_three_point_hand_value(self):
        assert drift_slope([0.0, 1.0, 2.0], [0.0, 1.0, 4.0]) == pytest.approx(2.0)

    def test_absent_below_two_points(self):
        assert drift_slope([0.0], [1.0]) is None
        assert drift_slope([], []) is None

    def test_absent_when_times_coincide(self):
        assert drift_slope([1.0, 1.0], [0.0, 5.0]) is None

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            drift_slope([0.0, 1.0], [1.0])

    @given(
        values=st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=30),
        shift=st.floats(-1e4, 1e4),
    )
    @settings(max_examples=100)
    def test_shift_leaves_slope_unchanged(self, values, shift):
        times = [float(i) for i in range(len(values))]
        base = drift_slope(times, values)
        shifted = drift_slope(times, [v + shift for v in values])
        assert shifted == pytest.approx(base, rel=1e-6, abs=1e-6)

    @given(
        values=st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=30),
        k=st.floats(0.1, 100.0),
    )
    @settings(max_examples=100)
    def test_time_scaling_scales_slope_inversely(self, values, k):
        times = [float(i) for i in range(len(values))]
        base = drift_slope(times, values)
        scaled = drift_slope([t * k for t in times], values)
        assert scaled == pytest.approx(base / k, rel=1e-6, abs=1e-6)

    def test_matches_normal_equations_oracle(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(2, 40)
            times = sorted(rng.uniform(0, 60) for _ in range(n))
            if len(set(times)) < 2:
                continue
            values = [rng.uniform(-500, 500) for _ in range(n)]
            slope = drift_slope(times, values)
            oracle = normal_equations_slope(times, values)
            assert slope == pytest.approx(oracle, rel=1e-9, abs=1e-9)


class TestActivityReport:
    def test_mean_over_state_frames_only(self):
        states = [
            state(0, BASKING, 100.0),
            state(1, BASKING, 102.0),
            state(2, IDLE, 400.0),
            state(3, HUNTING, 150.0),
        ]
        report = report_for(states, BASKING, 4)
        assert report.coverage == 50.0
        assert report.mean_vertical_diff == pytest.approx(101.0)
        assert report.frames_used == 2

    def test_hunting_single_frame_has_absent_jitter_and_drift(self):
        states = [state(0, IDLE, 200.0), state(1, HUNTING, 145.8), state(2, IDLE, 200.0)]
        report = report_for(states, HUNTING, 3)
        assert report.mean_vertical_diff == pytest.approx(145.8)
        assert report.jitter is None
        assert report.drift_slope is None
        assert report.frames_used == 1

    def test_states_without_separation_are_skipped(self):
        states = [state(0, IDLE), state(1, IDLE, 300.0), state(2, IDLE)]
        report = report_for(states, IDLE, 3)
        assert report.coverage == 100.0
        assert report.frames_used == 1
        assert report.mean_vertical_diff == 300.0
        assert report.jitter is None

    def test_frames_without_state_count_toward_idle_coverage(self):
        states = [state(5, BASKING, 100.0), state(6, BASKING, 101.0)]
        runs = [(0, 4, IDLE), (5, 6, BASKING), (7, 9, IDLE)]
        reports = activity_reports(states, runs, 10, 30.0)
        assert reports[BASKING].coverage == 20.0
        assert reports[BASKING].jitter == 1.0
        assert reports[IDLE].coverage == 80.0
        assert reports[IDLE].frames_used == 0
        assert reports[IDLE].mean_vertical_diff is None

    def test_reports_cover_all_kinds(self):
        states = [state(0, IDLE, 100.0)]
        reports = activity_reports(states, runs_of([IDLE]), 1, 30.0)
        assert set(reports) == {IDLE, BASKING, HUNTING}
        assert reports[BASKING].coverage == 0.0
        assert reports[BASKING].mean_vertical_diff is None
