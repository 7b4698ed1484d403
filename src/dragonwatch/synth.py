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
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Callable

from .activity import ActivityReport
from .behaviour import BehaviourKind, Episode
from .ingest import THRESHOLDS, RunConfig, write_detection_log
from .model import (
    ClassLabel,
    Columns,
    FrameGeometry,
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

_BASKING_LAMP = (0.5, 0.20)
_BASKING_DRAGON = (0.55, 0.40)
_IDLE_LAMP = (0.5, 0.10)
_IDLE_DRAGON = (0.72, 0.82)
_HUNT_LAMP = (0.5, 0.10)
_HUNT_DRAGON = (0.70, 0.70)
_HUNT_CRICKET_START = (0.08, 0.70)


@dataclass(frozen=True)
class Scenario:
    """Fully determines one synthetic clip; generation is a pure function of it."""

    kind: BehaviourKind
    frames: int
    geometry: FrameGeometry = _DEFAULT_GEOMETRY
    dropout_rate: float = 0.0
    position_noise: float = 0.0
    seed: int = 0
    vanish_frame: int | None = None
    vanish_distance_fraction: float = 0.04

    def __post_init__(self) -> None:
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
        if not 0.0 <= self.vanish_distance_fraction <= _HUNT_DRAGON[0]:
            raise InvalidScenario(
                "vanish_distance_fraction must be in "
                f"[0, {_HUNT_DRAGON[0]}] to keep the scripted cricket in frame, "
                f"got {self.vanish_distance_fraction}"
            )

    @property
    def effective_vanish_frame(self) -> int:
        return self.vanish_frame if self.vanish_frame is not None else self.frames * 3 // 5


@dataclass(frozen=True)
class _Body:
    label: ClassLabel
    size: tuple[float, float]
    confidence: float
    position: Callable[[int], tuple[float, float]]
    last_frame: int | None = None  # None means present for the whole clip

    def present(self, frame: int) -> bool:
        return self.last_frame is None or frame <= self.last_frame


def _scripts(scenario: Scenario) -> list[_Body]:
    kind = scenario.kind
    if kind is BehaviourKind.BASKING:
        return [
            _Body(ClassLabel.BEARDED_DRAGON, _DRAGON_SIZE, _DRAGON_CONF, lambda t: _BASKING_DRAGON),
            _Body(ClassLabel.HEATING_LAMP, _LAMP_SIZE, _LAMP_CONF, lambda t: _BASKING_LAMP),
        ]
    if kind is BehaviourKind.IDLE:
        return [
            _Body(ClassLabel.BEARDED_DRAGON, _DRAGON_SIZE, _DRAGON_CONF, lambda t: _IDLE_DRAGON),
            _Body(ClassLabel.HEATING_LAMP, _LAMP_SIZE, _LAMP_CONF, lambda t: _IDLE_LAMP),
        ]
    vanish = scenario.effective_vanish_frame
    end = (_HUNT_DRAGON[0] - scenario.vanish_distance_fraction, _HUNT_DRAGON[1])

    def cricket_pos(t: int) -> tuple[float, float]:
        if vanish == 0:
            return end
        frac = t / vanish
        return (
            _HUNT_CRICKET_START[0] + (end[0] - _HUNT_CRICKET_START[0]) * frac,
            _HUNT_CRICKET_START[1] + (end[1] - _HUNT_CRICKET_START[1]) * frac,
        )

    return [
        _Body(ClassLabel.BEARDED_DRAGON, _DRAGON_SIZE, _DRAGON_CONF, lambda t: _HUNT_DRAGON),
        _Body(ClassLabel.HEATING_LAMP, _LAMP_SIZE, _LAMP_CONF, lambda t: _HUNT_LAMP),
        _Body(ClassLabel.CRICKET, _CRICKET_SIZE, _CRICKET_CONF, cricket_pos, last_frame=vanish),
    ]


def _clamp01(value: float) -> float:
    return min(1.0, max(0.0, value))


@dataclass(frozen=True)
class GeneratedScenario:
    """Detection log text plus the outcomes the pipeline should reproduce.

    Expected values are closed forms of the noiseless script; with nonzero
    noise or dropout they describe the target, not a guarantee.
    """

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
                "geometry": asdict(scenario.geometry),
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
                f.name: getattr(self.config, f.name) for f in THRESHOLDS if f.name != "cricket_gate"
            },
            "note": "expected values computed from the noiseless script",
            "hunting_event_frames": self.expected_hunting_frames,
            "episodes": [ep.to_json_dict() for ep in self.expected_episodes],
            "activity": {
                kind.value: report.to_json_dict() for kind, report in self.expected_activity.items()
            },
        }
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _empty_report(kind: BehaviourKind) -> ActivityReport:
    return ActivityReport(kind, 0.0, None, None, None, 0)


def _constant_report(
    kind: BehaviourKind, frames_used: int, frame_count: int, delta_px: float
) -> ActivityReport:
    return ActivityReport(
        behaviour=kind,
        coverage=100.0 * frames_used / frame_count,
        mean_vertical_diff=delta_px,
        jitter=0.0 if frames_used >= 2 else None,
        drift_slope=0.0 if frames_used >= 2 else None,
        frames_used=frames_used,
    )


def _expected_outputs(
    scenario: Scenario, config: RunConfig
) -> tuple[list[Episode], list[int], dict[BehaviourKind, ActivityReport]]:
    frames = scenario.frames
    fps = scenario.geometry.fps
    height = scenario.geometry.height
    kind = scenario.kind

    if kind is BehaviourKind.BASKING:
        delta_px = (_BASKING_DRAGON[1] - _BASKING_LAMP[1]) * height
        if frames >= config.min_episode:
            episodes = [Episode(BehaviourKind.BASKING, 0, frames - 1, frames / fps)]
            activity = {
                BehaviourKind.IDLE: _empty_report(BehaviourKind.IDLE),
                BehaviourKind.BASKING: _constant_report(
                    BehaviourKind.BASKING, frames, frames, delta_px
                ),
                BehaviourKind.HUNTING: _empty_report(BehaviourKind.HUNTING),
            }
        else:  # run too short, demoted to idle
            episodes = [Episode(BehaviourKind.IDLE, 0, frames - 1, frames / fps)]
            activity = {
                BehaviourKind.IDLE: _constant_report(BehaviourKind.IDLE, frames, frames, delta_px),
                BehaviourKind.BASKING: _empty_report(BehaviourKind.BASKING),
                BehaviourKind.HUNTING: _empty_report(BehaviourKind.HUNTING),
            }
        return episodes, [], activity

    if kind is BehaviourKind.IDLE:
        delta_px = (_IDLE_DRAGON[1] - _IDLE_LAMP[1]) * height
        episodes = [Episode(BehaviourKind.IDLE, 0, frames - 1, frames / fps)]
        activity = {
            BehaviourKind.IDLE: _constant_report(BehaviourKind.IDLE, frames, frames, delta_px),
            BehaviourKind.BASKING: _empty_report(BehaviourKind.BASKING),
            BehaviourKind.HUNTING: _empty_report(BehaviourKind.HUNTING),
        }
        return episodes, [], activity

    # hunting scenario: idle background plus (possibly) one event at the vanish frame
    delta_px = (_HUNT_DRAGON[1] - _HUNT_LAMP[1]) * height
    vanish = scenario.effective_vanish_frame
    width = scenario.geometry.width
    distance_px = scenario.vanish_distance_fraction * width
    window_fits = frames - 1 - vanish >= config.disappearance_window
    fires = window_fits and distance_px < config.gamma * width
    if not fires:
        episodes = [Episode(BehaviourKind.IDLE, 0, frames - 1, frames / fps)]
        activity = {
            BehaviourKind.IDLE: _constant_report(BehaviourKind.IDLE, frames, frames, delta_px),
            BehaviourKind.BASKING: _empty_report(BehaviourKind.BASKING),
            BehaviourKind.HUNTING: _empty_report(BehaviourKind.HUNTING),
        }
        return episodes, [], activity
    episodes = []
    if vanish > 0:
        episodes.append(Episode(BehaviourKind.IDLE, 0, vanish - 1, vanish / fps))
    episodes.append(Episode(BehaviourKind.HUNTING, vanish, vanish, 1 / fps))
    if vanish < frames - 1:
        episodes.append(
            Episode(BehaviourKind.IDLE, vanish + 1, frames - 1, (frames - 1 - vanish) / fps)
        )
    idle_frames = frames - 1
    idle = _constant_report(BehaviourKind.IDLE, idle_frames, frames, delta_px)
    # jitter needs an adjacent idle pair; a lone idle frame on both sides of the event has none
    if idle_frames >= 2 and max(vanish, frames - 1 - vanish) < 2:
        idle = ActivityReport(
            BehaviourKind.IDLE, idle.coverage, idle.mean_vertical_diff, None, 0.0, idle_frames
        )
    activity = {
        BehaviourKind.IDLE: idle,
        BehaviourKind.BASKING: _empty_report(BehaviourKind.BASKING),
        BehaviourKind.HUNTING: ActivityReport(
            BehaviourKind.HUNTING, 100.0 / frames, delta_px, None, None, 1
        ),
    }
    return episodes, [vanish], activity


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
