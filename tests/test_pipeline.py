import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dragonwatch.behaviour import BehaviourKind
from dragonwatch.cli import main
from dragonwatch.ingest import RunConfig, parse_detection_log
from dragonwatch.model import Columns, FrameGeometry, Timeline
from dragonwatch.pipeline import analyze_timeline
from dragonwatch.synth import Scenario, generate

from helpers import FrameRecord, dense_frames, reference_dense_states, reference_outputs, state_records

IDLE = BehaviourKind.IDLE
BASKING = BehaviourKind.BASKING
HUNTING = BehaviourKind.HUNTING


def basking_timeline(frames=60, dropout=0.0, seed=0):
    generated = generate(
        Scenario(kind=BASKING, frames=frames, dropout_rate=dropout, seed=seed)
    )
    return parse_detection_log(generated.log_text)


class TestAnalyzeTimeline:
    def test_empty_log_is_all_idle(self):
        timeline = parse_detection_log("!geometry 640 480 30 50\n")
        result = analyze_timeline(timeline)
        assert [ep.kind for ep in result.episodes] == [IDLE]
        assert result.activity[IDLE].coverage == 100.0
        assert result.activity[IDLE].mean_vertical_diff is None
        assert result.dragon_continuity.observed is None

    def test_zero_frame_clip(self):
        timeline = parse_detection_log("!geometry 640 480 30 0\n")
        result = analyze_timeline(timeline)
        assert len(result.states) == 0
        assert list(dense_frames(result)) == []
        assert result.episodes == []
        assert result.activity == {}

    def test_states_partition_every_frame(self):
        result = analyze_timeline(basking_timeline(frames=80, dropout=0.2, seed=5))
        assert [t for t, _ in dense_frames(result)] == list(range(80))
        spans = [(ep.start_frame, ep.end_frame) for ep in result.episodes]
        flat = [t for start, end in spans for t in range(start, end + 1)]
        assert flat == list(range(80))

    def test_config_geometry_overrides_header(self):
        timeline = parse_detection_log(
            "!geometry 640 480 30 10\n0 0 0.5 0.5 0.2 0.2 0.9\n0 1 0.5 0.3 0.1 0.1 0.9\n"
        )
        taller = RunConfig(geometry=FrameGeometry(640, 2000, 30.0))
        result = analyze_timeline(timeline, taller)
        assert result.config.geometry == taller.geometry
        # 0.2 normalised separation = 400 px on the 2000 px frame
        assert result.states.delta_y[0] == pytest.approx(400.0)

    def test_effective_fps_bounds_the_clip_length(self):
        timeline = parse_detection_log("!geometry 640 480 1e-300 10\n")
        with pytest.raises(ValueError, match="10 frames at 1e-300 fps last over 2"):
            analyze_timeline(timeline)
        # the config's geometry overrides the header's fps, both ways
        normal = RunConfig(geometry=FrameGeometry(640, 480, 30.0))
        assert analyze_timeline(timeline, normal).episodes[0].duration_s == 10 / 30.0
        tiny = RunConfig(geometry=FrameGeometry(640, 480, 1e-300))
        with pytest.raises(ValueError, match="at 1e-300 fps"):
            analyze_timeline(parse_detection_log("!geometry 640 480 30 10\n"), tiny)

    def test_frame_count_is_capped(self):
        # 10**17 frames at 10**12 fps last 10**5 s: inside the clip-length rule
        fast = FrameGeometry(640, 480, 1e12)
        timeline = Timeline.build(fast, 10**17, [], Columns([], [], [], [], [], []))
        with pytest.raises(ValueError, match=f"frame count must be <= 100000000, got {10**17}$"):
            analyze_timeline(timeline)

    def test_interpolated_frames_marked(self):
        text = (
            "!geometry 640 480 30 10\n"
            "0 0 0.5 0.5 0.2 0.2 0.9\n"
            "4 0 0.5 0.5 0.2 0.2 0.9\n"
        )
        result = analyze_timeline(parse_detection_log(text))
        assert result.states.dragon == [False, True, True, True, False]
        # frames 5-9 have no box, so no state
        assert result.states.frame == list(range(5))

    def test_continuity_improves_with_gap_filling(self):
        text = (
            "!geometry 640 480 30 20\n"
            "0 0 0.5 0.5 0.2 0.2 0.9\n"
            "4 0 0.5 0.5 0.2 0.2 0.9\n"
            "8 0 0.5 0.5 0.2 0.2 0.9\n"
        )
        result = analyze_timeline(parse_detection_log(text))
        assert result.dragon_continuity.observed == pytest.approx(3 / 9)
        assert result.dragon_continuity.interpolated == 1.0

    def test_report_dict_round_trips_through_json(self):
        result = analyze_timeline(basking_timeline())
        payload = json.loads(json.dumps(result.to_json_dict()))
        assert payload["frame_count"] == 60
        assert payload["activity"]["basking"]["coverage"] == 100.0
        assert payload["continuity"]["dragon"]["interpolated"] == 1.0
        assert payload["config"]["geometry"] == {"width": 640, "height": 480, "fps": 30.0}

    def test_coverage_sums_to_hundred(self):
        generated = generate(Scenario(kind=HUNTING, frames=200, vanish_frame=120))
        result = analyze_timeline(parse_detection_log(generated.log_text))
        total = sum(report.coverage for report in result.activity.values())
        assert total == pytest.approx(100.0, abs=1e-9)

    def test_empty_log_has_no_states(self):
        result = analyze_timeline(parse_detection_log("!geometry 640 480 30 1000000\n"))
        assert len(result.states) == 0
        assert [(ep.kind, ep.start_frame, ep.end_frame) for ep in result.episodes] == [
            (IDLE, 0, 999_999)
        ]

    def test_min_episode_demotes_flicker(self):
        # dragon under the lamp for 2 frames only, min_episode 3 demotes the run
        rows = ["!geometry 640 480 30 10"]
        for t in range(10):
            cy = 0.4 if t in (4, 5) else 0.9
            rows.append(f"{t} 0 0.5 {cy} 0.2 0.2 0.9")
            rows.append(f"{t} 1 0.5 0.2 0.1 0.08 0.85")
        result = analyze_timeline(parse_detection_log("\n".join(rows)))
        assert [ep.kind for ep in result.episodes] == [IDLE]
        relaxed = analyze_timeline(parse_detection_log("\n".join(rows)), RunConfig(min_episode=2))
        assert [ep.kind for ep in relaxed.episodes] == [IDLE, BASKING, IDLE]


DRAGON_ROW = "{} 0 {} {} 0.18 0.12 0.9"
LAMP_ROW = "{} 1 {} {} 0.1 0.08 0.85"
CRICKET_ROW = "{} 2 {} 0.7 0.03 0.02 0.6"


@st.composite
def block_logs(draw) -> str:
    """Logs made of blocks: long empty stretches, short basking runs and hunts with no box.

    A hunt block shows the dragon for a few frames and the cricket for one to
    three frames more, so an event on the cricket's last frame finds no dragon
    box there unless gap filling reaches it.
    """
    rows: list[str] = []
    t = 0
    target = draw(st.integers(0, 300))
    while t < target:
        block = draw(st.sampled_from(["empty", "basking", "flicker", "dragon", "lamp", "hunt"]))
        if block == "empty":
            length = draw(st.integers(1, 120))
        elif block == "hunt":
            seen = draw(st.integers(1, 4))
            length = seen + draw(st.integers(1, 3))
            cx = draw(st.sampled_from([0.6, 0.66, 0.69]))
            rows += [DRAGON_ROW.format(f, 0.7, 0.7) for f in range(t, t + seen)]
            rows += [CRICKET_ROW.format(f, cx) for f in range(t, t + length)]
        else:
            length = draw(st.integers(1, 6))
            for f in range(t, t + length):
                # flicker moves the dragon across the basking limits frame by frame
                cy = draw(st.sampled_from([0.1, 0.2, 0.4, 0.53, 0.6])) if block == "flicker" else 0.4
                if block != "lamp":
                    rows.append(DRAGON_ROW.format(f, 0.55, cy))
                if block != "dragon":
                    rows.append(LAMP_ROW.format(f, 0.5, 0.2))
        t += length
    frame_count = t + draw(st.integers(0, 80))
    return "\n".join([f"!geometry 640 480 30 {frame_count}", *rows]) + "\n"


synth_logs = st.builds(
    lambda kind, frames, dropout, noise, seed: generate(
        Scenario(kind=kind, frames=frames, dropout_rate=dropout, position_noise=noise, seed=seed)
    ).log_text,
    kind=st.sampled_from(list(BehaviourKind)),
    frames=st.integers(1, 200),
    dropout=st.floats(0.0, 0.95),
    noise=st.floats(0.0, 0.1),
    seed=st.integers(0, 2**32),
)

run_configs = st.builds(
    RunConfig,
    max_gap=st.integers(0, 20),
    disappearance_window=st.integers(1, 20),
    min_episode=st.integers(1, 6),
)


class TestDenseReference:
    """The sparse frame axis writes the same bytes as one state per frame did."""

    @given(log=st.one_of(block_logs(), synth_logs), cfg=run_configs)
    @example(log="!geometry 640 480 30 0\n", cfg=RunConfig())
    @settings(max_examples=150, deadline=None)
    def test_outputs_match_dense_reference(self, log, cfg):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "clip.log"
            path.write_text(log, encoding="utf-8")
            out = Path(scratch) / "out"
            flags = {
                "--max-gap": cfg.max_gap,
                "--disappearance-window": cfg.disappearance_window,
                "--min-episode": cfg.min_episode,
            }
            argv = ["analyze", "--log", str(path), "--out", str(out)]
            assert main([*argv, *(str(x) for kv in flags.items() for x in kv)]) == 0
            expected = reference_outputs(parse_detection_log(log), cfg)
            for name, data in expected.items():
                assert (out / name).read_bytes() == data, name

    @given(log=st.one_of(block_logs(), synth_logs), cfg=run_configs)
    @settings(max_examples=100, deadline=None)
    def test_dense_frames_expand_to_reference_states(self, log, cfg):
        timeline = parse_detection_log(log)
        result = analyze_timeline(timeline, cfg)
        expected = reference_dense_states(timeline, result)
        dense = list(dense_frames(result))
        assert [t for t, _ in dense] == [s.frame for s in expected]
        for (frame, state), ref in zip(dense, expected):
            if state is None:
                assert ref == FrameRecord(frame, IDLE, None, None, None, None)
            else:
                assert state == ref
        # a state exists exactly where there is a box or a hunt
        states = state_records(result.states)
        assert states == [s for _, s in dense if s is not None]
        assert [s.frame for s in states] == [
            s.frame
            for s in expected
            if s.dragon_provenance or s.lamp_provenance or s.frame in result.hunting_event_frames
        ]
