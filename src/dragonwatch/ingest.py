"""Parsing of detection logs, ground-truth labels and run configuration.

The toolkit defines three plain-text formats, all UTF-8. Every reader skips
the lines that are blank or start with ``#`` after any blanks (``_content``);
its error line numbers count every line, skipped ones too:

Detection log (one file per clip)::

    !geometry <W> <H> <FPS> <FRAME_COUNT>
    <frame:int> <class:int> <cx> <cy> <w> <h> <confidence>

The geometry directive must precede all data lines. Floats may use decimal
or scientific notation. Coordinates are normalised (see :class:`Columns`).

Ground truth::

    <class:int> <cx> <cy> <w> <h>

either one file per frame named ``<stem>_<frame>.txt`` or a single stream
with ``!frame <n>`` separators. Confidence is fixed at 1.0.

Config::

    key = value

Parsing is strict: anything that does not match is rejected with a typed
error carrying the 1-based line number, never coerced. Numbers are ASCII,
without ``_`` digit separators. The ranges of the geometry and the
thresholds belong to the types the values build (:class:`FrameGeometry`,
:class:`RunConfig`); the parsers turn their ``ValueError`` into the typed
error for the offending line. The strict parsers check each box and
confidence on its line, with the messages written here. Every parser
appends its rows' values to :class:`Columns` and makes its
:class:`Timeline` with :meth:`Timeline.build`, which checks every row again.

Detection logs and ground truth are first read into columns, a block of
lines at a time: each content line is split as the strict parsers split
it, and each column of tokens goes through ``int()`` or ``float()``. Any
content line that is not ASCII or holds ``_``, a row of the wrong width, a
2-token ground-truth row that is not ``!frame`` and a frame ``>= 0``, or
columns that ``Timeline.build`` rejects, sends the whole input to the
format's strict line parser, which reports the first fault; so the
errors are the strict parser's, line number and text.
"""

from __future__ import annotations

from itertools import compress, count
from typing import Any, Callable, Iterable, Iterator, Sequence

from .model import (
    ClassLabel,
    Columns,
    FrameGeometry,
    Record,
    Timeline,
    check_frame_count,
    in_extent_range,
    in_unit_range,
)

__all__ = [
    "ParseError",
    "MalformedLine",
    "OutOfRange",
    "UnknownClass",
    "MissingGeometry",
    "InvalidValue",
    "UnknownKey",
    "RunConfig",
    "Threshold",
    "THRESHOLDS",
    "parse_detection_log",
    "parse_ground_truth",
    "parse_config",
    "write_detection_log",
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


class Threshold(Record):
    """One threshold: its config key, its default, whose type casts its text, and its flag's help.

    A threshold with ``help`` None is set in the config file only.
    """

    name: str
    default: int | float
    help: str | None


# The thresholds: config keys, ``analyze`` flags, :class:`RunConfig` fields and defaults, and
# the report.json echo, in echo order.
THRESHOLDS = (
    Threshold("beta", 0.33, "basking vertical threshold fraction"),
    Threshold("theta_max", 45.0, "basking angle limit, degrees"),
    Threshold("gamma", 0.25, "hunting distance fraction of frame width"),
    Threshold("max_gap", 15, "largest interpolatable gap, frames"),
    Threshold("disappearance_window", 15, "frames a cricket must stay gone to confirm a hunt"),
    Threshold("min_episode", 3, "shortest basking episode kept, frames"),
    Threshold("cricket_gate", 0.05, None),
)


class RunConfig(Record):
    """Thresholds steering classification, tracking and episode aggregation.

    ``beta`` bounds the dragon-lamp vertical separation as a fraction of the
    frame height, ``theta_max`` the off-vertical angle in degrees, and
    ``gamma`` the dragon-cricket distance as a fraction of the frame width.
    ``geometry`` is optional; when None the clip's own log header is used.

    The fields are the thresholds (:data:`THRESHOLDS`), with their
    defaults, then ``geometry``.
    """

    __slots__ = (*(t.name for t in THRESHOLDS), "geometry")
    _defaults = {**{t.name: t.default for t in THRESHOLDS}, "geometry": None}
    beta: float
    theta_max: float
    gamma: float
    max_gap: int
    disappearance_window: int
    min_episode: int
    cricket_gate: float
    geometry: FrameGeometry | None

    def _check(self) -> None:
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


# any valid geometry: ground truth's placeholder, and the record parse_config checks a width, height or fps in
_ANY_GEOMETRY = FrameGeometry(1, 1, 1.0)


def _lines(source: str | Iterable[str]) -> list[str]:
    return source.splitlines() if isinstance(source, str) else list(source)


def _content(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """``(1-based line number, stripped text)`` of each line neither blank nor a ``#`` comment."""
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line


def _number(cast: type, token: str) -> int | float:
    """``cast(token)`` for an ASCII token without ``_``; ValueError otherwise.

    ``int`` and ``float`` alone would also take ``1_0`` and ``６４０``.
    """
    if not token.isascii() or "_" in token:
        raise ValueError(f"not a plain ASCII number: {token!r}")
    return cast(token)


def _int_field(token: str, line_no: int, name: str) -> int:
    try:
        return _number(int, token)
    except ValueError:
        raise MalformedLine(line_no, f"{name} is not an integer: {token!r}") from None


def _float_field(token: str, line_no: int, name: str) -> float:
    try:
        return _number(float, token)
    except ValueError:
        raise MalformedLine(line_no, f"{name} is not a number: {token!r}") from None


def _box_fields(parts: list[str], line_no: int) -> tuple[float, float, float, float]:
    cx = _float_field(parts[0], line_no, "cx")
    cy = _float_field(parts[1], line_no, "cy")
    w = _float_field(parts[2], line_no, "w")
    h = _float_field(parts[3], line_no, "h")
    if not (in_unit_range(cx) and in_unit_range(cy)):
        raise OutOfRange(line_no, f"box centre outside unit square: ({cx}, {cy})")
    if not (in_extent_range(w) and in_extent_range(h)):
        raise OutOfRange(line_no, f"box extent outside (0, 1]: ({w}, {h})")
    return cx, cy, w, h


def _class_field(token: str, line_no: int) -> ClassLabel:
    code = _int_field(token, line_no, "class")
    try:
        return ClassLabel(code)
    except ValueError:
        raise UnknownClass(line_no, f"unknown class id {code}") from None


def parse_detection_log(source: str | Iterable[str]) -> Timeline:
    """Parse a detection log into a Timeline.

    Raises MissingGeometry / MalformedLine / UnknownClass / OutOfRange with
    the offending line number.
    """
    lines = _lines(source)
    head, line = next(_content(lines), (0, "!"))  # the first content line; "!" if none
    parts = line.split()
    # the columnar read first, after a header; the strict parser reads the lines again if that fails
    if parts[0] == "!geometry":
        try:
            geometry, frame_count = _geometry_header(parts, head)
            frame, code, *boxes = _columns(_blocks(lines[head:]), _LOG_CASTS)
            return Timeline.build(geometry, frame_count, code, Columns(frame, *boxes))
        except ValueError:  # ParseError too
            pass
    return _strict_detection_log(lines)


_LOG_CASTS = (int, int, float, float, float, float, float)  # frame, class, cx, cy, w, h, confidence
_GROUND_TRUTH_CASTS = (int, float, float, float, float)  # class, cx, cy, w, h
_BLOCK_LINES = 256


def _blocks(lines: list[str]) -> Iterator[list[list[str]]]:
    """The tokens of each content line of ``lines`` (:func:`_content`), a block of lines at a time.

    Only one block's token strings exist at once. ValueError when a
    block's content lines are not ASCII or hold ``_``: the text ``int()``
    and ``float()`` read but :func:`_number` refuses.
    """
    for start in range(0, len(lines), _BLOCK_LINES):
        block = lines[start : start + _BLOCK_LINES]
        text = "".join(block)
        if "#" in text:  # comments may hold any text
            block = [line for _, line in _content(block)]
            text = "".join(block)
        if not text.isascii() or "_" in text:
            raise ValueError("a line is not plain ASCII without '_'")
        yield list(filter(None, map(str.split, block)))


def _columns(blocks: Iterable[list[list[str]]], casts: Sequence[Callable[[str], Any]]) -> list[list]:
    """Column ``i`` holds token ``i`` of each row of ``blocks`` through ``casts[i]``.

    ValueError unless every row has one token per cast, or when a token
    is no number.
    """
    columns: list[list] = [[] for _ in casts]
    for rows in blocks:
        if any(map(len(casts).__ne__, map(len, rows))):
            raise ValueError(f"a row has not {len(casts)} tokens")
        for column, cast, tokens in zip(columns, casts, zip(*rows)):
            column.extend(map(cast, tokens))
    return columns


def _geometry_header(parts: list[str], line_no: int) -> tuple[FrameGeometry, int]:
    """The geometry and frame count of a ``!geometry`` line split into ``parts``."""
    if len(parts) != 5:
        raise MalformedLine(line_no, f"!geometry takes 4 fields, got {len(parts) - 1}")
    width = _int_field(parts[1], line_no, "width")
    height = _int_field(parts[2], line_no, "height")
    fps = _float_field(parts[3], line_no, "fps")
    frame_count = _int_field(parts[4], line_no, "frame count")
    try:
        geometry = FrameGeometry(width, height, fps)
        check_frame_count(frame_count)
    except ValueError as exc:
        raise OutOfRange(line_no, str(exc)) from None
    if frame_count < 0:
        raise OutOfRange(line_no, f"frame count must be >= 0, got {frame_count}")
    return geometry, frame_count


def _strict_detection_log(lines: list[str]) -> Timeline:
    """The reference parser: one line at a time, the first fault raised with its line number."""
    geometry: FrameGeometry | None = None
    frame_count = 0
    code: list[int] = []
    columns = Columns([], [], [], [], [], [])
    for line_no, line in _content(lines):
        parts = line.split()
        if line.startswith("!"):
            if parts[0] != "!geometry":
                raise MalformedLine(line_no, f"unknown directive {parts[0]!r}")
            if geometry is not None:
                raise MalformedLine(line_no, "duplicate !geometry directive")
            geometry, frame_count = _geometry_header(parts, line_no)
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
        if not in_unit_range(confidence):
            raise OutOfRange(line_no, f"confidence outside [0, 1]: {confidence}")
        code.append(label)
        for column, value in zip(columns.fields(), (frame, *box, confidence)):
            column.append(value)
    if geometry is None:
        raise MissingGeometry(0, "no !geometry directive found")
    return Timeline.build(geometry, frame_count, code, columns)


def parse_ground_truth(
    source: str | Iterable[str],
    geometry: FrameGeometry | None = None,
    start_frame: int = 0,
) -> Timeline:
    """Parse ground truth into a Timeline usable for evaluation.

    The frame count is one past the last labelled frame. Ground-truth files
    carry no geometry of their own; evaluation overlap is scale free, so a
    1x1 placeholder is used unless ``geometry`` is given. ``!frame <n>``
    switches the current frame, which starts at ``start_frame``.
    """
    lines = _lines(source)
    geometry = geometry if geometry is not None else _ANY_GEOMETRY
    # the columnar read first; the strict parser reads the lines again if that fails
    frame: list[int] = []
    try:
        code, *boxes = _columns(_ground_truth_blocks(lines, start_frame, frame), _GROUND_TRUTH_CASTS)
        columns = Columns(frame, *boxes, [1.0] * len(frame))
        return Timeline.build(geometry, max(frame, default=-1) + 1, code, columns)
    except ValueError:
        pass
    return _strict_ground_truth(lines, geometry, start_frame)


def _ground_truth_blocks(lines: list[str], start_frame: int, frame: list[int]) -> Iterator[list[list[str]]]:
    """The data rows of each of :func:`_blocks`, each row's frame appended to ``frame``.

    A 2-token row ``!frame <n>`` sets the frame of the rows below it, in
    later blocks too; the rows above the first take ``start_frame``.
    ValueError at any other 2-token row or a negative frame.
    """
    current = start_frame
    for rows in _blocks(lines):
        lengths = list(map(len, rows))
        marks = list(compress(count(), map((2).__eq__, lengths)))
        ends = [*marks, len(rows)]
        frame.extend([current] * ends[0])
        for mark, end in zip(marks, ends[1:]):
            directive, value = rows[mark]
            current = int(value)
            if directive != "!frame" or current < 0:
                raise ValueError(f"not a frame line: {directive} {value}")
            frame.extend([current] * (end - mark - 1))
        yield list(compress(rows, map((2).__ne__, lengths)))


def _strict_ground_truth(lines: list[str], geometry: FrameGeometry, start_frame: int) -> Timeline:
    """The reference parser: one line at a time, the first fault raised with its line number."""
    current = start_frame
    code: list[int] = []
    columns = Columns([], [], [], [], [], [])
    for line_no, line in _content(lines):
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
        code.append(label)
        for column, value in zip(columns.fields(), (current, *box, 1.0)):
            column.append(value)
    frame_count = max(columns.frame, default=-1) + 1
    return Timeline.build(geometry, frame_count, code, columns)


_GEOMETRY_KEYS = FrameGeometry.__slots__
# key -> caster, the type of the key's value in RunConfig() or _ANY_GEOMETRY; ranges are
# checked by building the value's owner (RunConfig or FrameGeometry)
_CONFIG_KEYS: dict[str, type] = {
    **{t.name: type(t.default) for t in THRESHOLDS},
    **{k: type(v) for k, v in _ANY_GEOMETRY._asdict().items()},
}


def parse_config(source: str | Iterable[str]) -> RunConfig:
    """Parse ``key = value`` lines into a RunConfig, defaults applied for absent keys.

    ``width``, ``height`` and ``fps`` must be given together and set the
    geometry override. Unknown keys and out-of-range values are rejected.
    """
    defaults = RunConfig()
    seen: dict[str, tuple[float | int, int]] = {}
    for line_no, line in _content(_lines(source)):
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
            parsed = _number(caster, value)
        except ValueError:
            raise InvalidValue(line_no, f"{key} is not a valid {caster.__name__}: {value!r}") from None
        try:
            (_ANY_GEOMETRY if key in _GEOMETRY_KEYS else defaults)._replace(**{key: parsed})
        except ValueError as exc:
            raise InvalidValue(line_no, str(exc)) from None
        seen[key] = (parsed, line_no)

    geometry = None
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
    return defaults._replace(geometry=geometry, **overrides)


def write_detection_log(timeline: Timeline) -> str:
    """Serialise a Timeline to the detection-log format.

    Floats use shortest round-trip notation, so parsing the output yields a
    bit-exact Timeline. A Timeline holds read boxes only, so no line marks
    a box as interpolated.
    """
    geom = timeline.geometry
    rows = [f"!geometry {geom.width} {geom.height} {geom.fps!r} {timeline.frame_count}"]
    for label, row in timeline.rows():
        c = timeline.by_class[label]
        rows.append(
            f"{c.frame[row]} {int(label)} {c.cx[row]!r} {c.cy[row]!r} {c.w[row]!r} {c.h[row]!r}"
            f" {c.conf[row]!r}"
        )
    return "\n".join(rows) + "\n"

