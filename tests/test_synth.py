import pytest

from dragonwatch.behaviour import BehaviourKind
from dragonwatch.ingest import RunConfig, parse_detection_log
from dragonwatch.model import ClassLabel, FrameGeometry
from dragonwatch.pipeline import analyze_timeline
from dragonwatch.synth import InvalidScenario, Scenario, SplitMix64, generate

IDLE = BehaviourKind.IDLE
BASKING = BehaviourKind.BASKING
HUNTING = BehaviourKind.HUNTING


class TestSplitMix64:
    def test_reference_stream(self):
        # SplitMix64 with seed 1234567: first outputs of the published algorithm
        rng = SplitMix64(1234567)
        assert rng.next_uint64() == 6457827717110365317
        assert rng.next_uint64() == 3203168211198807973

    def test_floats_in_unit_interval(self):
        rng = SplitMix64(42)
        values = [rng.next_float() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_gauss_pairs_reasonable(self):
        rng = SplitMix64(7)
        values = []
        for _ in range(2000):
            a, b = rng.next_gauss_pair()
            values.extend((a, b))
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        assert abs(mean) < 0.05
        assert abs(var - 1.0) < 0.1


class TestScenarioValidation:
    def test_rejects_zero_frames(self):
        with pytest.raises(InvalidScenario):
            Scenario(kind=IDLE, frames=0)

    def test_rejects_dropout_one(self):
        with pytest.raises(InvalidScenario):
            Scenario(kind=IDLE, frames=10, dropout_rate=1.0)

    def test_rejects_negative_noise(self):
        with pytest.raises(InvalidScenario):
            Scenario(kind=IDLE, frames=10, position_noise=-0.1)

    @pytest.mark.parametrize("noise", [float("nan"), float("inf")])
    def test_rejects_non_finite_noise(self, noise):
        with pytest.raises(InvalidScenario):
            Scenario(kind=IDLE, frames=10, position_noise=noise)

    def test_rejects_vanish_outside_clip(self):
        with pytest.raises(InvalidScenario):
            Scenario(kind=HUNTING, frames=10, vanish_frame=10)

    def test_default_vanish_frame(self):
        assert Scenario(kind=HUNTING, frames=200).effective_vanish_frame == 120


class TestDeterminism:
    def test_same_fields_same_bytes(self):
        a = generate(Scenario(kind=BASKING, frames=50, dropout_rate=0.2, position_noise=0.01, seed=9))
        b = generate(Scenario(kind=BASKING, frames=50, dropout_rate=0.2, position_noise=0.01, seed=9))
        assert a.log_text == b.log_text
        assert a.expected_json() == b.expected_json()

    def test_seed_changes_output(self):
        a = generate(Scenario(kind=BASKING, frames=50, dropout_rate=0.2, seed=1))
        b = generate(Scenario(kind=BASKING, frames=50, dropout_rate=0.2, seed=2))
        assert a.log_text != b.log_text


class TestCleanScenarios:
    def test_basking_recovers_expected(self):
        generated = generate(Scenario(kind=BASKING, frames=200))
        result = analyze_timeline(parse_detection_log(generated.log_text))
        assert result.episodes == generated.expected_episodes
        assert result.hunting_event_frames == []
        assert result.activity[BASKING].coverage == 100.0
        expected = generated.expected_activity[BASKING]
        got = result.activity[BASKING]
        assert got.mean_vertical_diff == pytest.approx(expected.mean_vertical_diff)
        assert got.jitter == pytest.approx(expected.jitter)
        assert got.drift_slope == pytest.approx(expected.drift_slope, abs=1e-9)

    def test_idle_recovers_expected(self):
        generated = generate(Scenario(kind=IDLE, frames=200))
        result = analyze_timeline(parse_detection_log(generated.log_text))
        assert result.episodes == generated.expected_episodes
        assert result.activity[BASKING].coverage == 0.0
        assert result.hunting_event_frames == []

    def test_hunting_recovers_expected(self):
        generated = generate(Scenario(kind=HUNTING, frames=200, vanish_frame=120))
        result = analyze_timeline(parse_detection_log(generated.log_text))
        assert result.hunting_event_frames == [120]
        assert result.episodes == generated.expected_episodes
        hunting = result.activity[HUNTING]
        assert hunting.coverage == pytest.approx(0.5)
        assert hunting.jitter is None
        assert hunting.drift_slope is None
        assert hunting.frames_used == 1

    def test_hunting_far_vanish_no_event(self):
        generated = generate(
            Scenario(kind=HUNTING, frames=200, vanish_frame=120, vanish_distance_fraction=0.30)
        )
        assert generated.expected_hunting_frames == []
        result = analyze_timeline(parse_detection_log(generated.log_text))
        assert result.hunting_event_frames == []
        assert [ep.kind for ep in result.episodes] == [IDLE]

    def test_cricket_present_until_vanish_only(self):
        generated = generate(Scenario(kind=HUNTING, frames=100, vanish_frame=60))
        timeline = parse_detection_log(generated.log_text)
        frames = [d.frame for d in timeline.detections_for(ClassLabel.CRICKET)]
        assert frames == list(range(61))


class TestNoiseAndDropout:
    def test_dropout_removes_detections(self):
        clean = generate(Scenario(kind=BASKING, frames=200))
        noisy = generate(Scenario(kind=BASKING, frames=200, dropout_rate=0.4, seed=3))
        clean_count = parse_detection_log(clean.log_text).detection_count
        noisy_count = parse_detection_log(noisy.log_text).detection_count
        assert noisy_count < clean_count

    def test_noise_keeps_boxes_valid(self):
        generated = generate(Scenario(kind=HUNTING, frames=150, position_noise=0.3, seed=5))
        timeline = parse_detection_log(generated.log_text)  # parse re-validates bounds
        assert timeline.detection_count == 150 * 2 + 91

    def test_small_noise_keeps_basking_coverage(self):
        generated = generate(Scenario(kind=BASKING, frames=200, position_noise=0.005, seed=8))
        result = analyze_timeline(parse_detection_log(generated.log_text))
        assert result.activity[BASKING].coverage > 95.0


class TestExpectedSidecar:
    def test_json_shape(self):
        import json

        generated = generate(Scenario(kind=HUNTING, frames=200))
        payload = json.loads(generated.expected_json())
        assert payload["scenario"]["kind"] == "hunting"
        assert payload["scenario"]["vanish_frame"] == 120
        assert payload["hunting_event_frames"] == [120]
        assert payload["activity"]["hunting"]["jitter"] is None
        assert payload["thresholds"]["gamma"] == RunConfig().gamma

    def test_geometry_respected(self):
        geom = FrameGeometry(1280, 720, 25.0)
        generated = generate(Scenario(kind=BASKING, frames=10, geometry=geom))
        timeline = parse_detection_log(generated.log_text)
        assert timeline.geometry == geom
        expected = generated.expected_activity[BASKING]
        assert expected.mean_vertical_diff == pytest.approx(0.2 * 720)
