"""Deterministic synthetic scenarios for end-to-end testing.

Each scenario scripts noiseless trajectories for the dragon, the lamp and
(for hunting) one cricket, then optionally perturbs detection centres with
Gaussian noise and drops detections i.i.d. All randomness comes from the
SplitMix64 generator defined below, so identical scenario fields produce
byte-identical logs on any platform.

Draw order, fixed by contract: frames ascending; within a frame, entities
in the order dragon, lamp, cricket; per present entity one uniform draw
(dropout) followed by one Gaussian pair (centre noise), drawn whether or
not the detection is dropped.

The expected outcomes (``simulate``'s ``.expected.json``: hunting frames,
episodes and each behaviour's activity) are closed forms of the noiseless
script under the config's thresholds and geometry; with noise or dropout
they describe the target, not a guarantee. Out of scope: a cricket that
steps farther than ``cricket_gate * width`` a frame (``vanish_frame`` 1 to
11 at the defaults) splits into several tracks, which they do not model.
"""

from __future__ import annotations

import json
import math
from typing import Callable

from .activity import ActivityReport
from .behaviour import BehaviourKind, Episode, Run
from .ingest import THRESHOLDS, RunConfig, write_detection_log
from .model import (
    ClassLabel,
    Columns,
    FrameGeometry,
    Record,
    Timeline,
    check_clip_length,
    check_frame_count,
)

__all__ = [
    "InvalidScenario",
    "Scenario",
    "GeneratedScenario",
    "SplitMix64",
    "generate",
]

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 pseudo-random stream (Steele, Lea and Flood's mixer).

    state advances by the 64-bit golden ratio; output is the finalised mix.
    Uniform doubles take the top 53 bits; Gaussians come from Box-Muller.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def next_gauss_pair(self) -> tuple[float, float]:
        """Two independent standard normals via Box-Muller."""
        u1 = ((self.next_uint64() >> 11) + 1) * 2.0**-53  # (0, 1], keeps log finite
        u2 = self.next_float()
        radius = math.sqrt(-2.0 * math.log(u1))
        angle = 2.0 * math.pi * u2
        return radius * math.cos(angle), radius * math.sin(angle)


class InvalidScenario(ValueError):
    """Scenario fields violate their invariants."""


_DEFAULT_GEOMETRY = FrameGeometry(640, 480, 30.0)

# noiseless script constants, normalised coordinates
_LAMP_SIZE = (0.10, 0.08)
_DRAGON_SIZE = (0.18, 0.12)
_CRICKET_SIZE = (0.03, 0.02)
_LAMP_CONF = 0.85
_DRAGON_CONF = 0.9
_CRICKET_CONF = 0.6

# scenario kind -> (dragon centre, lamp centre); neither moves
_POSES = {
    BehaviourKind.BASKING: ((0.55, 0.40), (0.5, 0.20)),
    BehaviourKind.IDLE: ((0.72, 0.82), (0.5, 0.10)),
    BehaviourKind.HUNTING: ((0.70, 0.70), (0.5, 0.10)),
}
_HUNT_CRICKET_START = (0.08, 0.70)


class Scenario(Record):
    """Fully determines one synthetic clip; generation is a pure function of it."""

    __slots__ = (
        "kind", "frames", "geometry", "dropout_rate", "position_noise", "seed", "vanish_frame",
        "vanish_distance_fraction",
    )
    _defaults = {
        "geometry": _DEFAULT_GEOMETRY,
        "dropout_rate": 0.0,
        "position_noise": 0.0,
        "seed": 0,
        "vanish_frame": None,
        "vanish_distance_fraction": 0.04,
    }
    kind: BehaviourKind
    frames: int
    geometry: FrameGeometry
    dropout_rate: float
    position_noise: float
    seed: int
    vanish_frame: int | None
    vanish_distance_fraction: float

    def _check(self) -> None:
        if self.frames < 1:
            raise InvalidScenario(f"frames must be >= 1, got {self.frames}")
        try:
            check_frame_count(self.frames)
            check_clip_length(self.frames, self.geometry.fps)
        except ValueError as exc:
            raise InvalidScenario(str(exc)) from None
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InvalidScenario(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if not (math.isfinite(self.position_noise) and self.position_noise >= 0.0):
            raise InvalidScenario(
                f"position_noise must be finite and >= 0, got {self.position_noise}"
            )
        if self.vanish_frame is not None and not 0 <= self.vanish_frame < self.frames:
            raise InvalidScenario(
                f"vanish_frame must be in [0, {self.frames}), got {self.vanish_frame}"
            )
        dragon_x = _POSES[BehaviourKind.HUNTING][0][0]
        if not 0.0 <= self.vanish_distance_fraction <= dragon_x:
            raise InvalidScenario(
                "vanish_distance_fraction must be in "
                f"[0, {dragon_x}] to keep the scripted cricket in frame, "
                f"got {self.vanish_distance_fraction}"
            )

    @property
    def effective_vanish_frame(self) -> int:
        return self.vanish_frame if self.vanish_frame is not None else self.frames * 3 // 5


class _Body(Record):
    __slots__ = ("label", "size", "confidence", "position", "last_frame")
    _defaults = {"last_frame": None}  # None means present for the whole clip
    label: ClassLabel
    size: tuple[float, float]
    confidence: float
    position: Callable[[int], tuple[float, float]]
    last_frame: int | None

    def present(self, frame: int) -> bool:
        return self.last_frame is None or frame <= self.last_frame


def _scripts(scenario: Scenario) -> list[_Body]:
    dragon, lamp = _POSES[scenario.kind]
    bodies = [
        _Body(ClassLabel.BEARDED_DRAGON, _DRAGON_SIZE, _DRAGON_CONF, lambda t: dragon),
        _Body(ClassLabel.HEATING_LAMP, _LAMP_SIZE, _LAMP_CONF, lambda t: lamp),
    ]
    if scenario.kind is not BehaviourKind.HUNTING:
        return bodies
    vanish = scenario.effective_vanish_frame
    end = (dragon[0] - scenario.vanish_distance_fraction, dragon[1])

    def cricket_pos(t: int) -> tuple[float, float]:
        if vanish == 0:
            return end
        frac = t / vanish
        return (
            _HUNT_CRICKET_START[0] + (end[0] - _HUNT_CRICKET_START[0]) * frac,
            _HUNT_CRICKET_START[1] + (end[1] - _HUNT_CRICKET_START[1]) * frac,
        )

    bodies.append(
        _Body(ClassLabel.CRICKET, _CRICKET_SIZE, _CRICKET_CONF, cricket_pos, last_frame=vanish)
    )
    return bodies


def _clamp01(value: float) -> float:
    return min(1.0, max(0.0, value))


class GeneratedScenario(Record):
    """Detection log text plus the outcomes the pipeline should reproduce."""

    __slots__ = (
        "scenario", "config", "log_text", "expected_episodes", "expected_hunting_frames",
        "expected_activity",
    )
    scenario: Scenario
    config: RunConfig
    log_text: str
    expected_episodes: list[Episode]
    expected_hunting_frames: list[int]
    expected_activity: dict[BehaviourKind, ActivityReport]

    def expected_json(self) -> str:
        scenario = self.scenario
        payload = {
            "scenario": {
                "kind": scenario.kind.value,
                "frames": scenario.frames,
                "geometry": scenario.geometry._asdict(),
                "dropout_rate": scenario.dropout_rate,
                "position_noise": scenario.position_noise,
                "seed": scenario.seed,
                "vanish_frame": scenario.effective_vanish_frame
                if scenario.kind is BehaviourKind.HUNTING
                else None,
                "vanish_distance_fraction": scenario.vanish_distance_fraction,
            },
            # the sidecar has never echoed cricket_gate, and the golden sidecars pin these six keys
            "thresholds": {
                t.name: getattr(self.config, t.name) for t in THRESHOLDS if t.name != "cricket_gate"
            },
            "note": "expected values computed from the noiseless script",
            "hunting_event_frames": self.expected_hunting_frames,
            "episodes": [ep.to_json_dict() for ep in self.expected_episodes],
            "activity": {
                kind.value: report.to_json_dict() for kind, report in self.expected_activity.items()
            },
        }
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _expected_report(
    kind: BehaviourKind, runs: list[Run], frame_count: int, delta_px: float
) -> ActivityReport:
    """The kind's report when every frame of the clip measures the separation ``delta_px``."""
    lengths = [end - start + 1 for start, end, k in runs if k is kind]
    used = sum(lengths)
    return ActivityReport(
        coverage=100.0 * used / frame_count,
        mean_vertical_diff=delta_px if used else None,
        # jitter needs two adjacent frames of the kind, so two frames of one run
        jitter=0.0 if any(n >= 2 for n in lengths) else None,
        drift_slope=0.0 if used >= 2 else None,
        frames_used=used,
    )


def _expected_outputs(
    scenario: Scenario, config: RunConfig
) -> tuple[list[Episode], list[int], dict[BehaviourKind, ActivityReport]]:
    frames = scenario.frames
    width, height, fps = scenario.geometry.width, scenario.geometry.height, scenario.geometry.fps
    basking, idle = BehaviourKind.BASKING, BehaviourKind.IDLE
    # every frame but a hunt's takes the basking rule on the scripted pose, restated here in
    # classify_basking's order (scale each centre, then subtract) to keep this an independent check
    (dragon_x, dragon_y), (lamp_x, lamp_y) = _POSES[scenario.kind]
    delta_px = (dragon_y - lamp_y) * height  # the pinned sidecars subtract, then scale
    dragon_y, lamp_y = dragon_y * height, lamp_y * height
    delta_y = abs(dragon_y - lamp_y)
    off_x = abs(dragon_x * width - lamp_x * width)
    theta = 90.0 if delta_y == 0 else math.degrees(math.atan(off_x / delta_y))
    basks = lamp_y < dragon_y and delta_y <= config.beta * height and theta < config.theta_max
    background = basking if basks else idle
    runs: list[Run] = [(0, frames - 1, background)]
    hunts: list[int] = []
    if scenario.kind is BehaviourKind.HUNTING:
        vanish = scenario.effective_vanish_frame
        window_fits = frames - 1 - vanish >= config.disappearance_window
        if window_fits and scenario.vanish_distance_fraction * width < config.gamma * width:
            runs = [
                (0, vanish - 1, background),
                (vanish, vanish, BehaviourKind.HUNTING),
                (vanish + 1, frames - 1, background),
            ]
            hunts = [vanish]
    # drop the empty runs; a basking run shorter than min_episode is idle
    runs = [
        (start, end, idle if kind is basking and end - start + 1 < config.min_episode else kind)
        for start, end, kind in runs
        if start <= end
    ]
    episodes = [Episode(kind, start, end, (end - start + 1) / fps) for start, end, kind in runs]
    activity = {kind: _expected_report(kind, runs, frames, delta_px) for kind in BehaviourKind}
    return episodes, hunts, activity


def generate(scenario: Scenario, config: RunConfig | None = None) -> GeneratedScenario:
    """Produce the detection log and expected outcomes for a scenario."""
    config = config if config is not None else RunConfig()
    rng = SplitMix64(scenario.seed)
    bodies = _scripts(scenario)
    code: list[int] = []
    columns = Columns([], [], [], [], [], [])
    for frame in range(scenario.frames):
        for body in bodies:
            if not body.present(frame):
                continue
            drop = rng.next_float()
            nx, ny = rng.next_gauss_pair()
            if drop < scenario.dropout_rate:
                continue
            cx, cy = body.position(frame)
            cx = _clamp01(cx + scenario.position_noise * nx)
            cy = _clamp01(cy + scenario.position_noise * ny)
            code.append(body.label)
            for column, value in zip(columns.fields(), (frame, cx, cy, *body.size, body.confidence)):
                column.append(value)
    timeline = Timeline.build(scenario.geometry, scenario.frames, code, columns)
    episodes, hunts, activity = _expected_outputs(scenario, config)
    return GeneratedScenario(
        scenario=scenario,
        config=config,
        log_text=write_detection_log(timeline),
        expected_episodes=episodes,
        expected_hunting_frames=hunts,
        expected_activity=activity,
    )
