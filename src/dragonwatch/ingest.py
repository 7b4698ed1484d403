"""Parsing of detection logs, ground-truth labels and run configuration.

The toolkit defines three plain-text formats, all UTF-8, all with ``#``
comments and blank lines ignored:

Detection log (one file per clip)::

    !geometry <W> <H> <FPS> <FRAME_COUNT>
    <frame:int> <class:int> <cx> <cy> <w> <h> <confidence>

The geometry directive must precede all data lines. Floats may use decimal
or scientific notation. Coordinates are normalised (see :class:`BBox`).

Ground truth::

    <class:int> <cx> <cy> <w> <h>

either one file per frame named ``<stem>_<frame>.txt`` or a single stream
with ``!frame <n>`` separators. Confidence is fixed at 1.0.

Config::

    key = value

Parsing is strict: anything that does not match is rejected with a typed
error carrying the 1-based line number, never coerced. Value ranges belong to
the types the values build (:class:`BBox`, :class:`FrameGeometry`,
:class:`Detection`, :class:`RunConfig`); the parsers turn their ``ValueError``
into the typed error for the offending line.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from .model import BBox, ClassLabel, Detection, FrameGeometry, Provenance, Timeline

__all__ = [
    "ParseError",
    "MalformedLine",
    "OutOfRange",
    "UnknownClass",
    "MissingGeometry",
    "InvalidValue",
    "UnknownKey",
    "RunConfig",
    "parse_detection_log",
    "parse_ground_truth",
    "parse_ground_truth_lines",
    "parse_config",
    "write_detection_log",
    "write_ground_truth",
]


class ParseError(ValueError):
    """Base for all parse failures; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class MalformedLine(ParseError):
    """Wrong field count, unknown directive or a field that is not a number."""


class OutOfRange(ParseError):
    """A numeric field violates its permitted range."""


class UnknownClass(ParseError):
    """Class id outside {0, 1, 2}."""


class MissingGeometry(ParseError):
    """Data encountered before (or without) a ``!geometry`` directive."""


class InvalidValue(ParseError):
    """A config value violates the RunConfig invariants."""


class UnknownKey(ParseError):
    """A config key this toolkit does not define."""


@dataclass(frozen=True)
class RunConfig:
    """Thresholds steering classification, tracking and episode aggregation.

    ``beta`` bounds the dragon-lamp vertical separation as a fraction of the
    frame height, ``theta_max`` the off-vertical angle in degrees, and
    ``gamma`` the dragon-cricket distance as a fraction of the frame width.
    ``geometry`` is optional; when None the clip's own log header is used.
    """

    beta: float = 0.33
    theta_max: float = 45.0
    gamma: float = 0.25
    max_gap: int = 15
    disappearance_window: int = 15
    min_episode: int = 3
    cricket_gate: float = 0.05
    geometry: FrameGeometry | None = None

    def __post_init__(self) -> None:
        if not 0 < self.beta <= 1:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if not 0 < self.theta_max <= 90:
            raise ValueError(f"theta_max must be in (0, 90] degrees, got {self.theta_max}")
        if not 0 < self.gamma <= 1:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.max_gap < 0:
            raise ValueError(f"max_gap must be >= 0, got {self.max_gap}")
        if self.disappearance_window < 1:
            raise ValueError(f"disappearance_window must be >= 1, got {self.disappearance_window}")
        if self.min_episode < 1:
            raise ValueError(f"min_episode must be >= 1, got {self.min_episode}")
        if not 0 < self.cricket_gate <= 1:
            raise ValueError(f"cricket_gate must be in (0, 1], got {self.cricket_gate}")


def _lines(source: str | Iterable[str]) -> Iterable[str]:
    return source.splitlines() if isinstance(source, str) else source


def _int_field(token: str, line_no: int, name: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise MalformedLine(line_no, f"{name} is not an integer: {token!r}") from None


def _float_field(token: str, line_no: int, name: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise MalformedLine(line_no, f"{name} is not a number: {token!r}") from None


def _box_fields(parts: list[str], line_no: int) -> BBox:
    cx = _float_field(parts[0], line_no, "cx")
    cy = _float_field(parts[1], line_no, "cy")
    w = _float_field(parts[2], line_no, "w")
    h = _float_field(parts[3], line_no, "h")
    try:
        return BBox(cx, cy, w, h)
    except ValueError as exc:
        raise OutOfRange(line_no, str(exc)) from None


def _class_field(token: str, line_no: int) -> ClassLabel:
    code = _int_field(token, line_no, "class")
    try:
        return ClassLabel(code)
    except ValueError:
        raise UnknownClass(line_no, f"unknown class id {code}") from None


def parse_detection_log(source: str | Iterable[str]) -> Timeline:
    """Parse a detection log into a Timeline with Observed provenance.

    Raises MissingGeometry / MalformedLine / UnknownClass / OutOfRange with
    the offending line number.
    """
    geometry: FrameGeometry | None = None
    frame_count = 0
    detections: list[Detection] = []
    for line_no, raw in enumerate(_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if line.startswith("!"):
            if parts[0] != "!geometry":
                raise MalformedLine(line_no, f"unknown directive {parts[0]!r}")
            if geometry is not None:
                raise MalformedLine(line_no, "duplicate !geometry directive")
            if len(parts) != 5:
                raise MalformedLine(line_no, f"!geometry takes 4 fields, got {len(parts) - 1}")
            width = _int_field(parts[1], line_no, "width")
            height = _int_field(parts[2], line_no, "height")
            fps = _float_field(parts[3], line_no, "fps")
            frame_count = _int_field(parts[4], line_no, "frame count")
            try:
                geometry = FrameGeometry(width, height, fps)
            except ValueError as exc:
                raise OutOfRange(line_no, str(exc)) from None
            if frame_count < 0:
                raise OutOfRange(line_no, f"frame count must be >= 0, got {frame_count}")
            continue
        if geometry is None:
            raise MissingGeometry(line_no, "data line before !geometry header")
        if len(parts) != 7:
            raise MalformedLine(line_no, f"expected 7 fields, got {len(parts)}")
        frame = _int_field(parts[0], line_no, "frame")
        if not 0 <= frame < frame_count:
            raise OutOfRange(line_no, f"frame {frame} outside [0, {frame_count})")
        label = _class_field(parts[1], line_no)
        box = _box_fields(parts[2:6], line_no)
        confidence = _float_field(parts[6], line_no, "confidence")
        try:
            detections.append(Detection(frame, label, box, confidence, Provenance.OBSERVED))
        except ValueError as exc:
            raise OutOfRange(line_no, str(exc)) from None
    if geometry is None:
        raise MissingGeometry(0, "no !geometry directive found")
    return Timeline.build(geometry, frame_count, detections)


def parse_ground_truth_lines(source: str | Iterable[str], start_frame: int = 0) -> list[Detection]:
    """Parse ground-truth label lines; ``!frame <n>`` switches the current frame."""
    current = start_frame
    detections: list[Detection] = []
    for line_no, raw in enumerate(_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if line.startswith("!"):
            if parts[0] != "!frame":
                raise MalformedLine(line_no, f"unknown directive {parts[0]!r}")
            if len(parts) != 2:
                raise MalformedLine(line_no, f"!frame takes 1 field, got {len(parts) - 1}")
            current = _int_field(parts[1], line_no, "frame")
            if current < 0:
                raise OutOfRange(line_no, f"frame must be >= 0, got {current}")
            continue
        if len(parts) != 5:
            raise MalformedLine(line_no, f"expected 5 fields, got {len(parts)}")
        label = _class_field(parts[0], line_no)
        box = _box_fields(parts[1:5], line_no)
        detections.append(Detection(current, label, box, 1.0, Provenance.OBSERVED))
    return detections


def parse_ground_truth(
    source: str | Iterable[str],
    geometry: FrameGeometry | None = None,
    frame_count: int | None = None,
    start_frame: int = 0,
) -> Timeline:
    """Parse ground truth into a Timeline usable for evaluation.

    Ground-truth files carry no geometry of their own; evaluation overlap is
    scale free, so a 1x1 placeholder is used unless ``geometry`` is given.
    """
    detections = parse_ground_truth_lines(source, start_frame)
    if frame_count is None:
        frame_count = max((d.frame for d in detections), default=-1) + 1
    if geometry is None:
        geometry = FrameGeometry(1, 1, 1.0)
    return Timeline.build(geometry, frame_count, detections)


# key -> caster; ranges are checked by building the value's owner (RunConfig or FrameGeometry)
_CONFIG_KEYS: dict[str, type] = {
    "beta": float,
    "theta_max": float,
    "gamma": float,
    "max_gap": int,
    "disappearance_window": int,
    "min_episode": int,
    "cricket_gate": float,
    "width": int,
    "height": int,
    "fps": float,
}
_GEOMETRY_KEYS = ("width", "height", "fps")
_ANY_GEOMETRY = FrameGeometry(1, 1, 1.0)


def parse_config(source: str | Iterable[str], base: RunConfig | None = None) -> RunConfig:
    """Parse ``key = value`` lines into a RunConfig, defaults applied for absent keys.

    ``width``, ``height`` and ``fps`` must be given together and set the
    geometry override. Unknown keys and out-of-range values are rejected.
    """
    base = base if base is not None else RunConfig()
    seen: dict[str, tuple[float | int, int]] = {}
    for line_no, raw in enumerate(_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise MalformedLine(line_no, "expected 'key = value'")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise UnknownKey(line_no, f"unknown config key {key!r}")
        if key in seen:
            raise MalformedLine(line_no, f"duplicate config key {key!r}")
        caster = _CONFIG_KEYS[key]
        try:
            parsed = caster(value)
        except ValueError:
            raise InvalidValue(line_no, f"{key} is not a valid {caster.__name__}: {value!r}") from None
        try:
            replace(_ANY_GEOMETRY if key in _GEOMETRY_KEYS else base, **{key: parsed})
        except ValueError as exc:
            raise InvalidValue(line_no, str(exc)) from None
        seen[key] = (parsed, line_no)

    geometry = base.geometry
    geom_present = [k for k in _GEOMETRY_KEYS if k in seen]
    if geom_present:
        if len(geom_present) != len(_GEOMETRY_KEYS):
            missing = sorted(set(_GEOMETRY_KEYS) - set(geom_present))
            raise InvalidValue(
                seen[geom_present[0]][1],
                f"width, height and fps must be given together; missing {', '.join(missing)}",
            )
        geometry = FrameGeometry(*(seen[k][0] for k in _GEOMETRY_KEYS))

    overrides = {k: v for k, (v, _) in seen.items() if k not in _GEOMETRY_KEYS}
    return replace(base, geometry=geometry, **overrides)


def write_detection_log(timeline: Timeline) -> str:
    """Serialise a Timeline to the detection-log format.

    Floats use shortest round-trip notation, so parsing the output yields a
    bit-exact Timeline. Provenance is not encoded; every line re-parses as
    Observed.
    """
    geom = timeline.geometry
    rows = [f"!geometry {geom.width} {geom.height} {geom.fps!r} {timeline.frame_count}"]
    for det in timeline.all_detections():
        box = det.box
        rows.append(
            f"{det.frame} {int(det.label)} {box.cx!r} {box.cy!r} {box.w!r} {box.h!r}"
            f" {det.confidence!r}"
        )
    return "\n".join(rows) + "\n"


def write_ground_truth(timeline: Timeline) -> str:
    """Serialise a Timeline as a combined ground-truth stream with !frame separators."""
    rows: list[str] = []
    current = None
    for det in timeline.all_detections():
        if det.frame != current:
            current = det.frame
            rows.append(f"!frame {current}")
        box = det.box
        rows.append(f"{int(det.label)} {box.cx!r} {box.cy!r} {box.w!r} {box.h!r}")
    return "\n".join(rows) + ("\n" if rows else "")
