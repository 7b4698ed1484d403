import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dragonwatch.behaviour import (
    BehaviourKind,
    FrameStates,
    _nearest_dragon,
    demote_short_basking,
    detect_hunting,
    kind_runs,
    relabel,
    resolve_frame_states,
    run_length_episodes,
)
from dragonwatch.ingest import RunConfig
from dragonwatch.model import ClassLabel, FrameGeometry
from dragonwatch.tracks import Track

from helpers import (
    Row,
    bboxes,
    by_frame,
    centre,
    classify_one,
    det,
    geometries,
    reference_classify_basking,
    reference_demote_short_basking,
    reference_run_length_episodes,
    reference_runs,
    reference_separation,
    track_of,
)

IDLE = BehaviourKind.IDLE
BASKING = BehaviourKind.BASKING
HUNTING = BehaviourKind.HUNTING


class TestClassifyBasking:
    def test_dragon_directly_below_lamp(self, config):
        geom = FrameGeometry(640, 480, 30.0)
        lamp = det(0, ClassLabel.HEATING_LAMP, cx=0.5, cy=0.3)
        dragon = det(0, ClassLabel.BEARDED_DRAGON, cx=0.5, cy=0.5)  # delta_y = 0.2 * H
        basking, sep = classify_one(centre(dragon), centre(lamp), geom, config)
        assert basking
        assert sep.theta == 0.0
        assert sep.delta_y == pytest.approx(0.2 * 480)

    def test_lamp_absent(self, config, geom):
        basking, sep = classify_one(centre(det(0)), None, geom, config)
        assert not basking
        assert sep is None

    def test_dragon_absent(self, config, geom):
        basking, sep = classify_one(None, centre(det(0, ClassLabel.HEATING_LAMP)), geom, config)
        assert not basking and sep is None

    def test_hand_evaluated_square_frame(self, config):
        # 640 x 640 frame, lamp centre (320, 100), dragon centre (420, 300)
        geom = FrameGeometry(640, 640, 30.0)
        lamp = det(0, ClassLabel.HEATING_LAMP, cx=320 / 640, cy=100 / 640)
        dragon = det(0, ClassLabel.BEARDED_DRAGON, cx=420 / 640, cy=300 / 640)
        basking, sep = classify_one(centre(dragon), centre(lamp), geom, config)
        assert sep.delta_y == pytest.approx(200.0)
        assert sep.theta == pytest.approx(math.degrees(math.atan(100 / 200)))
        assert sep.theta == pytest.approx(26.565, abs=1e-3)
        assert basking  # 200 <= 0.33 * 640 = 211.2 and 26.57 < 45

    def test_lamp_below_dragon_is_not_basking(self, config, geom):
        lamp = det(0, ClassLabel.HEATING_LAMP, cx=0.5, cy=0.7)
        dragon = det(0, ClassLabel.BEARDED_DRAGON, cx=0.5, cy=0.5)
        basking, sep = classify_one(centre(dragon), centre(lamp), geom, config)
        assert not basking
        assert sep is not None  # separation still measured

    def test_level_lamp_theta_is_ninety(self, config, geom):
        lamp = det(0, ClassLabel.HEATING_LAMP, cx=0.3, cy=0.5)
        dragon = det(0, ClassLabel.BEARDED_DRAGON, cx=0.6, cy=0.5)
        basking, sep = classify_one(centre(dragon), centre(lamp), geom, config)
        assert not basking
        assert sep.theta == 90.0
        assert sep.delta_y == 0.0

    def test_wide_angle_fails_theta_gate(self, config, geom):
        lamp = det(0, ClassLabel.HEATING_LAMP, cx=0.1, cy=0.48)
        dragon = det(0, ClassLabel.BEARDED_DRAGON, cx=0.9, cy=0.5)
        basking, sep = classify_one(centre(dragon), centre(lamp), geom, config)
        assert sep.theta > 45.0
        assert not basking

    @given(
        dragon_cx=st.floats(0.0, 1.0),
        dragon_cy=st.floats(0.0, 1.0),
        lamp_cx=st.floats(0.0, 1.0),
        lamp_cy=st.floats(0.0, 1.0),
        scale=st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=120)
    def test_scale_invariance(self, dragon_cx, dragon_cy, lamp_cx, lamp_cy, scale):
        cfg = RunConfig()
        dragon = det(0, ClassLabel.BEARDED_DRAGON, cx=dragon_cx, cy=dragon_cy)
        lamp = det(0, ClassLabel.HEATING_LAMP, cx=lamp_cx, cy=lamp_cy)
        small = FrameGeometry(320, 240, 30.0)
        large = FrameGeometry(320 * scale, 240 * scale, 30.0)
        assert classify_one(centre(dragon), centre(lamp), small, cfg)[0] == classify_one(
            centre(dragon), centre(lamp), large, cfg
        )[0]

    @given(
        dragon_cy=st.floats(0.0, 1.0),
        lamp_cy=st.floats(0.0, 1.0),
        offset=st.floats(0.0, 0.5),
        beta_low=st.floats(0.05, 1.0),
        beta_high=st.floats(0.05, 1.0),
    )
    @settings(max_examples=120)
    def test_monotone_in_beta(self, dragon_cy, lamp_cy, offset, beta_low, beta_high):
        beta_low, beta_high = sorted((beta_low, beta_high))
        geom = FrameGeometry(640, 480, 30.0)
        dragon = det(0, ClassLabel.BEARDED_DRAGON, cx=0.5, cy=dragon_cy)
        lamp = det(0, ClassLabel.HEATING_LAMP, cx=min(1.0, 0.5 + offset), cy=lamp_cy)
        low = classify_one(centre(dragon), centre(lamp), geom, RunConfig(beta=beta_low))[0]
        high = classify_one(centre(dragon), centre(lamp), geom, RunConfig(beta=beta_high))[0]
        if low:
            assert high

    @given(
        theta_low=st.floats(1.0, 90.0),
        theta_high=st.floats(1.0, 90.0),
        dragon_cx=st.floats(0.0, 1.0),
    )
    @settings(max_examples=80)
    def test_monotone_in_theta_max(self, theta_low, theta_high, dragon_cx):
        theta_low, theta_high = sorted((theta_low, theta_high))
        geom = FrameGeometry(640, 480, 30.0)
        dragon = det(0, ClassLabel.BEARDED_DRAGON, cx=dragon_cx, cy=0.5)
        lamp = det(0, ClassLabel.HEATING_LAMP, cx=0.5, cy=0.4)
        low = classify_one(centre(dragon), centre(lamp), geom, RunConfig(theta_max=theta_low))[0]
        high = classify_one(centre(dragon), centre(lamp), geom, RunConfig(theta_max=theta_high))[0]
        if low:
            assert high


    @given(dragon_box=bboxes, lamp_box=bboxes, geom=geometries)
    def test_separation_equals_centre_extent_reference(self, dragon_box, lamp_box, geom):
        cfg = RunConfig()
        basking, sep = classify_one(centre(dragon_box), centre(lamp_box), geom, cfg)
        delta_y, theta = reference_separation(dragon_box, lamp_box, geom)
        assert (sep.delta_y.hex(), sep.theta.hex()) == (delta_y.hex(), theta.hex())
        lamp_above = lamp_box.cy * geom.height < dragon_box.cy * geom.height
        assert basking == (lamp_above and delta_y <= cfg.beta * geom.height and theta < cfg.theta_max)


    @given(
        dragon_box=st.one_of(st.none(), bboxes),
        lamp_box=st.one_of(st.none(), bboxes),
        geom=geometries,
        beta=st.floats(0.05, 1.0),
        theta_max=st.floats(1.0, 90.0),
    )
    def test_equals_reference_rule(self, dragon_box, lamp_box, geom, beta, theta_max):
        cfg = RunConfig(beta=beta, theta_max=theta_max)
        basking, sep = classify_one(centre(dragon_box), centre(lamp_box), geom, cfg)
        ref_basking, ref_sep = reference_classify_basking(centre(dragon_box), centre(lamp_box), geom, cfg)
        assert basking == ref_basking
        if ref_sep is None:
            assert sep is None
        else:
            assert (sep.delta_y.hex(), sep.theta.hex()) == (ref_sep[0].hex(), ref_sep[1].hex())


def cricket_track(frames, cx=0.6, cy=0.5):
    return track_of(
        ClassLabel.CRICKET,
        tuple(det(t, ClassLabel.CRICKET, cx=cx, cy=cy, w=0.03, h=0.02) for t in frames),
    )


def dragon_track(frames, cx=0.7, cy=0.5):
    return track_of(ClassLabel.BEARDED_DRAGON, tuple(det(t, cx=cx, cy=cy) for t in frames))


def nearest_dragon_by_scan(dragon: Track, frame: int, max_gap: int) -> int | None:
    """Reference: the frame of the former lookup, one offset at a time, earlier frame first."""
    frames = set(dragon.columns.frame)
    for offset in range(max_gap + 1):
        if frame - offset in frames:
            return frame - offset
        if offset and frame + offset in frames:
            return frame + offset
    return None


class TestNearestDragon:
    @given(
        frames=st.sets(st.integers(min_value=0, max_value=60), max_size=12),
        frame=st.integers(min_value=0, max_value=60),
        max_gap=st.integers(min_value=0, max_value=40),
    )
    def test_matches_offset_scan(self, frames, frame, max_gap):
        dragon = dragon_track(sorted(frames))
        row = _nearest_dragon(dragon, frame, max_gap)
        found = None if row is None else dragon.columns.frame[row]
        assert found == nearest_dragon_by_scan(dragon, frame, max_gap)


class TestDetectHunting:
    def test_event_fires_at_last_frame(self, config, geom):
        # cricket ends at frame 40, 0.1 * W from the dragon, clip is 200 frames
        crickets = [cricket_track(range(41), cx=0.6)]
        dragon = dragon_track(range(200), cx=0.7)
        events = detect_hunting(crickets, dragon, geom, 200, config)
        assert events == [40]

    def test_distance_gate_blocks(self, config, geom):
        crickets = [cricket_track(range(41), cx=0.2)]  # 0.5 * W away
        dragon = dragon_track(range(200), cx=0.7)
        assert detect_hunting(crickets, dragon, geom, 200, config) == []

    def test_window_unsatisfiable_near_clip_end(self, config, geom):
        crickets = [cricket_track(range(196), cx=0.6)]  # last seen at 195 of 200
        dragon = dragon_track(range(200), cx=0.7)
        assert detect_hunting(crickets, dragon, geom, 200, config) == []

    def test_window_boundary_fires(self, config, geom):
        # last frame 184: exactly 15 frames remain after it in a 200-frame clip
        crickets = [cricket_track(range(185), cx=0.6)]
        dragon = dragon_track(range(200), cx=0.7)
        assert detect_hunting(crickets, dragon, geom, 200, config) == [184]

    def test_empty_cricket_track_is_skipped(self, config, geom):
        crickets = [cricket_track([]), cricket_track(range(41), cx=0.6)]
        dragon = dragon_track(range(200), cx=0.7)
        assert detect_hunting(crickets, dragon, geom, 200, config) == [40]
        assert detect_hunting(crickets[:1], dragon, geom, 200, config) == []

    def test_empty_dragon_track_yields_nothing(self, config, geom):
        crickets = [cricket_track(range(41), cx=0.6)]
        assert detect_hunting(crickets, dragon_track([]), geom, 200, config) == []

    def test_dragon_found_within_max_gap(self, config, geom):
        crickets = [cricket_track(range(41), cx=0.6)]
        dragon = dragon_track([30])  # 10 frames before the vanish, within max_gap 15
        assert detect_hunting(crickets, dragon, geom, 200, config) == [40]

    @pytest.mark.parametrize("dragon_frames, expected", [([], []), ([99], [40])])
    def test_huge_max_gap_does_not_scan_frame_by_frame(self, geom, dragon_frames, expected):
        calls = 0

        class CountedFrames(list):
            def read(self):
                nonlocal calls
                calls += 1
                if calls > 1000:
                    raise AssertionError("dragon frames read more than 1000 times")

            def __getitem__(self, index):
                self.read()
                return super().__getitem__(index)

            def __contains__(self, value):
                self.read()
                return super().__contains__(value)

            def index(self, *args):
                self.read()
                return super().index(*args)

        crickets = [cricket_track(range(41), cx=0.6)]
        dragon = dragon_track(dragon_frames)
        columns = dragon.columns._replace(frame=CountedFrames(dragon.columns.frame))
        dragon = dragon._replace(columns=columns)
        cfg = RunConfig(max_gap=10**9)
        assert detect_hunting(crickets, dragon, geom, 100, cfg) == expected

    def test_no_dragon_anywhere_near(self, config, geom):
        crickets = [cricket_track(range(41), cx=0.6)]
        dragon = dragon_track([100])  # 60 frames away
        assert detect_hunting(crickets, dragon, geom, 200, config) == []

    def test_at_most_one_event_per_track(self, config, geom):
        crickets = [cricket_track(range(41), cx=0.6), cricket_track(range(61), cx=0.65)]
        dragon = dragon_track(range(200), cx=0.7)
        events = detect_hunting(crickets, dragon, geom, 200, config)
        assert events == [40, 60]
        assert len(events) <= len(crickets)

    def test_exact_gamma_distance_does_not_fire(self, geom):
        # binary-exact coordinates so the distance is exactly gamma * W
        cfg = RunConfig(gamma=0.25)
        crickets = [cricket_track(range(41), cx=0.5)]
        dragon = dragon_track(range(200), cx=0.75)
        assert detect_hunting(crickets, dragon, geom, 200, cfg) == []


def runs_of(kinds):
    return list(reference_runs(kinds))


def kinds_of(runs):
    return [kind for start, end, kind in runs for _ in range(start, end + 1)]


kind_lists = st.lists(st.sampled_from([IDLE, BASKING, HUNTING]), min_size=0, max_size=60)


class TestEpisodes:
    def test_single_full_episode(self):
        episodes = run_length_episodes(demote_short_basking(runs_of([BASKING] * 100), min_episode=3), 30.0)
        assert len(episodes) == 1
        ep = episodes[0]
        assert (ep.start_frame, ep.end_frame) == (0, 99)
        assert ep.duration_s == pytest.approx(100 / 30)

    def test_short_basking_demoted(self):
        kinds = [IDLE, BASKING, BASKING, IDLE]
        episodes = run_length_episodes(demote_short_basking(runs_of(kinds), min_episode=3), 30.0)
        assert [ep.kind for ep in episodes] == [IDLE]
        assert episodes[0].end_frame == 3

    def test_two_runs_split_by_hole(self):
        kinds = [BASKING] * 50 + [IDLE] * 2 + [BASKING] * 48
        episodes = run_length_episodes(demote_short_basking(runs_of(kinds), min_episode=3), 30.0)
        assert [ep.kind for ep in episodes] == [BASKING, IDLE, BASKING]
        assert (episodes[0].start_frame, episodes[0].end_frame) == (0, 49)
        assert (episodes[2].start_frame, episodes[2].end_frame) == (52, 99)

    def test_hunting_single_frame_survives(self):
        kinds = [IDLE] * 5 + [HUNTING] + [IDLE] * 5
        episodes = run_length_episodes(demote_short_basking(runs_of(kinds), min_episode=3), 30.0)
        assert [ep.kind for ep in episodes] == [IDLE, HUNTING, IDLE]

    def test_demotion_merges_neighbouring_idle(self):
        kinds = [IDLE] * 3 + [BASKING] * 2 + [IDLE] * 3
        final = demote_short_basking(runs_of(kinds), min_episode=3)
        assert final == [(0, 7, IDLE)]
        assert len(run_length_episodes(final, 30.0)) == 1

    @given(kinds=kind_lists, min_episode=st.integers(1, 6))
    @settings(max_examples=150)
    def test_episodes_partition_the_clip(self, kinds, min_episode):
        episodes = run_length_episodes(demote_short_basking(runs_of(kinds), min_episode=min_episode), 30.0)
        covered = []
        for ep in episodes:
            assert ep.start_frame <= ep.end_frame
            covered.extend(range(ep.start_frame, ep.end_frame + 1))
        assert covered == list(range(len(kinds)))
        # consecutive episodes never share a kind
        for left, right in zip(episodes, episodes[1:]):
            assert left.kind != right.kind

    @given(kinds=kind_lists, min_episode=st.integers(1, 6))
    @settings(max_examples=100)
    def test_demotion_never_touches_hunting(self, kinds, min_episode):
        final = kinds_of(demote_short_basking(runs_of(kinds), min_episode))
        for before, after in zip(kinds, final):
            if before is HUNTING:
                assert after is HUNTING
            if before is IDLE:
                assert after is IDLE

    @given(kinds=kind_lists, min_episode=st.integers(1, 6))
    @settings(max_examples=150)
    def test_demotion_on_runs_equals_per_frame_reference(self, kinds, min_episode):
        dense = reference_demote_short_basking(kinds, min_episode)
        assert demote_short_basking(runs_of(kinds), min_episode) == runs_of(dense)
        assert run_length_episodes(runs_of(dense), 30.0) == reference_run_length_episodes(dense, 30.0)


def sparse_states(frame_kinds):
    frames = sorted(frame_kinds)
    nothing = [None] * len(frames)
    return FrameStates(frames, [frame_kinds[f] for f in frames], nothing, nothing, nothing, nothing)


class TestKindRuns:
    def test_frames_without_state_are_idle(self):
        states = sparse_states({3: BASKING, 4: BASKING, 9: HUNTING})
        assert kind_runs(states, 12) == [
            (0, 2, IDLE), (3, 4, BASKING), (5, 8, IDLE), (9, 9, HUNTING), (10, 11, IDLE)
        ]

    def test_idle_states_merge_with_the_gaps_around_them(self):
        assert kind_runs(sparse_states({2: IDLE, 5: IDLE}), 8) == [(0, 7, IDLE)]

    def test_no_frames(self):
        assert kind_runs(sparse_states({}), 0) == []

    @given(
        frame_count=st.integers(0, 80),
        data=st.data(),
    )
    @settings(max_examples=100)
    def test_equals_runs_of_the_dense_kinds(self, frame_count, data):
        frames = data.draw(st.sets(st.integers(0, max(frame_count - 1, 0)), max_size=frame_count))
        frame_kinds = {f: data.draw(st.sampled_from([IDLE, BASKING, HUNTING])) for f in sorted(frames)}
        dense = [frame_kinds.get(t, IDLE) for t in range(frame_count)]
        runs = kind_runs(sparse_states(frame_kinds), frame_count)
        assert runs == runs_of(dense)
        states = sparse_states(frame_kinds)
        relabelled = relabel(states, demote_short_basking(runs, 3))
        demoted = reference_demote_short_basking(dense, 3)
        assert list(zip(relabelled.frame, relabelled.kind)) == [(f, demoted[f]) for f in sorted(frames)]
        # only the kind column is rewritten
        assert relabelled.frame is states.frame
        assert (relabelled.delta_y, relabelled.theta) == (states.delta_y, states.theta)
        assert (relabelled.dragon, relabelled.lamp) == (states.dragon, states.lamp)


class TestResolveFrameStates:
    def test_exactly_one_state_per_frame(self, config, geom):
        dragon = dragon_track(range(10), cx=0.5, cy=0.5)
        lamp = track_of(
            ClassLabel.HEATING_LAMP,
            tuple(det(t, ClassLabel.HEATING_LAMP, cx=0.5, cy=0.3) for t in range(10)),
        )
        states = resolve_frame_states(dragon, lamp, [4], geom, 10, config)
        assert len(states) == 10
        assert states.frame == list(range(10))
        assert states.kind[4] is HUNTING  # hunting wins over basking
        assert all(kind is BASKING for frame, kind in zip(states.frame, states.kind) if frame != 4)

    def test_missing_objects_give_no_state(self, config, geom):
        empty_dragon = track_of(ClassLabel.BEARDED_DRAGON, ())
        empty_lamp = track_of(ClassLabel.HEATING_LAMP, ())
        states = resolve_frame_states(empty_dragon, empty_lamp, [], geom, 5, config)
        assert len(states) == 0
        assert states == FrameStates([], [], [], [], [], [])

    def test_states_only_where_a_box_or_a_hunt_is(self, config, geom):
        dragon = dragon_track([0, 1, 2])
        lamp = track_of(
            ClassLabel.HEATING_LAMP,
            tuple(det(t, ClassLabel.HEATING_LAMP, cx=0.5, cy=0.3) for t in (2, 5, 6)),
        )
        states = resolve_frame_states(dragon, lamp, [9], geom, 12, config)
        assert states.frame == [0, 1, 2, 5, 6, 9]
        assert [v is None for v in states.delta_y] == [True, True, False, True, True, True]
        assert [v is None for v in states.theta] == [True, True, False, True, True, True]
        assert states.kind[-1] is HUNTING
        assert (states.dragon[-1], states.lamp[-1]) == (None, None)


@st.composite
def clip_tracks(draw):
    """A dragon and a lamp track with boxes anywhere in the frame, missing boxes and hunts."""
    frame_count = draw(st.integers(0, 40))
    frames = st.sets(st.integers(0, max(frame_count - 1, 0)), max_size=frame_count)

    def track(label):
        return track_of(
            label,
            [Row(t, label, *draw(bboxes), 0.9, draw(st.booleans())) for t in sorted(draw(frames))],
        )

    dragon, lamp = track(ClassLabel.BEARDED_DRAGON), track(ClassLabel.HEATING_LAMP)
    hunts = draw(st.lists(st.integers(-2, frame_count + 2), max_size=6))
    return dragon, lamp, hunts, frame_count


class TestFrameStateColumns:
    @given(
        clip=clip_tracks(),
        geom=geometries,
        cfg=st.builds(RunConfig, beta=st.floats(0.05, 1.0), theta_max=st.floats(1.0, 90.0)),
    )
    @settings(max_examples=200)
    def test_columns_hold_the_rule_per_frame(self, clip, geom, cfg):
        dragon, lamp, hunts, frame_count = clip
        states = resolve_frame_states(dragon, lamp, hunts, geom, frame_count, cfg)
        dragon_at, lamp_at = by_frame(dragon), by_frame(lamp)
        hunting = {t for t in hunts if 0 <= t < frame_count}
        assert states.frame == sorted(dragon_at.keys() | lamp_at.keys() | hunting)
        columns = (states.kind, states.delta_y, states.theta, states.dragon, states.lamp)
        assert [len(column) for column in columns] == [len(states)] * 5
        for frame, kind, delta_y, theta, dragon_flag, lamp_flag in zip(states.frame, *columns):
            d, l = dragon_at.get(frame), lamp_at.get(frame)
            # the flags are the tracks' interpolated, None without a box
            assert (dragon_flag, lamp_flag) == (d and d.interpolated, l and l.interpolated)
            # measured exactly where both have a box, and in range there
            assert (delta_y is None) == (theta is None) == (d is None or l is None)
            if delta_y is not None:
                assert delta_y >= 0
                assert 0 <= theta <= 90
            basking, separation = reference_classify_basking(centre(d), centre(l), geom, cfg)
            assert (delta_y, theta) == (separation or (None, None))
            # hunting wins over basking
            assert kind is (HUNTING if frame in hunting else BASKING if basking else IDLE)
