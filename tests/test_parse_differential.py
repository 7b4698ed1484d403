"""``parse_detection_log``'s columnar fast path against the strict reference parser.

``ingest._strict_detection_log`` reads one line at a time and raises the
first fault with its line number; it is the specification. The public
parser must give equal columns, bit for bit, or the same exception class,
line number and message, on valid logs and on logs with one token or one
line changed. Logs the toolkit writes must not need the strict parser at
all, and hostile input must end in its typed error in bounded time.
"""

from __future__ import annotations

import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dragonwatch
from dragonwatch import ingest
from dragonwatch.behaviour import BehaviourKind
from dragonwatch.ingest import ParseError, _lines, _strict_detection_log, parse_detection_log, write_detection_log
from dragonwatch.model import ClassLabel, FrameGeometry
from dragonwatch.synth import Scenario, generate

from helpers import Row, timeline_of

HEADER = "!geometry 640 480 30 100"
ROW = "3 0 0.5 0.25 0.1 0.2 0.9"


def timeline_bits(timeline) -> tuple:
    """Geometry, frame count and every class's columns, floats as ``float.hex``."""
    geom = timeline.geometry
    columns = {}
    for label in ClassLabel:
        c = timeline.detections_for(label)
        columns[label] = (c.frame, *([v.hex() for v in floats] for floats in c.fields()[1:]))
    return geom.width, geom.height, geom.fps.hex(), timeline.frame_count, columns


def outcome(parse, source) -> tuple:
    try:
        timeline = parse(source)
    except ParseError as exc:
        return "error", type(exc), exc.line_no, str(exc)
    return "ok", timeline_bits(timeline)


def strict(source) -> object:
    return _strict_detection_log(_lines(source))


def assert_same_verdict(text: str) -> None:
    """Both parsers agree on ``text`` as a string, a list of lines and a file object."""
    for make in (lambda t: t, lambda t: t.splitlines(keepends=True), lambda t: io.StringIO(t, newline="")):
        assert outcome(parse_detection_log, make(text)) == outcome(strict, make(text))


CASES = {
    "plain": f"{HEADER}\n{ROW}\n",
    "plus sign": f"{HEADER}\n+3 0 +0.5 0.25 0.1 0.2 0.9\n",
    "leading zeros": f"{HEADER}\n07 00 0.5 0.25 0.1 0.2 00.9\n",
    "bare fraction": f"{HEADER}\n3 0 .5 0.25 .1 0.2 .9\n",
    "trailing point": f"{HEADER}\n3 0 0. 0.25 1. 0.2 1.\n",
    "capital exponent": f"{HEADER}\n3 0 5E-1 0.25 1E3 0.2 0.9\n",
    "exponent frame": f"{HEADER}\n1E3 0 0.5 0.25 0.1 0.2 0.9\n",
    "huge exponent": f"{HEADER}\n3 0 0.5 0.25 0.1 0.2 1e999\n",
    "negative huge exponent": f"{HEADER}\n3 0 -1e999 0.25 0.1 0.2 0.9\n",
    "tiny exponent": f"{HEADER}\n3 0 1e-999 0.25 0.1 0.2 0.9\n",
    "nan": f"{HEADER}\n3 0 0.5 nan 0.1 0.2 0.9\n",
    "inf": f"{HEADER}\n3 0 0.5 0.25 inf 0.2 0.9\n",
    "negative zero": f"{HEADER}\n3 0 -0.0 -0.0 0.1 0.2 -0.0\n",
    "underscore": f"{HEADER}\n3 0 0.5 0.2_5 0.1 0.2 0.9\n",
    "non-ASCII digit": f"{HEADER}\n3 0 0.5 0.25 0.1 0.2 0.\u0669\n",
    "tabs": f"{HEADER}\n3\t0\t0.5 \t0.25\t0.1\t0.2\t0.9\t\n",
    "leading blanks": f"{HEADER}\n   \t3 0 0.5 0.25 0.1 0.2 0.9\n",
    "CRLF": f"{HEADER}\r\n{ROW}\r\n{ROW}\r\n",
    "file separator": f"{HEADER}\n3 0 0.5\x1c0.25 0.1 0.2 0.9\n",
    "file separator ends a row": f"{HEADER}\n{ROW}\x1c{ROW}\n",
    "line separator": f"{HEADER}\n{ROW}\u2028{ROW}\n",
    "next line": f"{HEADER}\n{ROW}\x85{ROW}\n",
    "vertical tab": f"{HEADER}\n{ROW}\x0b{ROW}\n",
    "no-break space": f"{HEADER}\n3 0 0.5\xa00.25 0.1 0.2 0.9\n",
    "comments and blank lines": f"# a\n\n  # b\n{HEADER}\n\n# c\n{ROW}\n   \n#{ROW}\n{ROW}\n",
    "comment after a row": f"{HEADER}\n{ROW} # note\n",
    "duplicate header": f"{HEADER}\n{ROW}\n{HEADER}\n{ROW}\n",
    "data before the header": f"{ROW}\n{HEADER}\n",
    "no header": f"# nothing\n{ROW}\n",
    "empty": "",
    "header only": HEADER,
    "unknown directive": f"{HEADER}\n!frame 3\n{ROW}\n",
    "frame at the count": f"{HEADER}\n100 0 0.5 0.25 0.1 0.2 0.9\n",
    "negative frame": f"{HEADER}\n-1 0 0.5 0.25 0.1 0.2 0.9\n",
    "unknown class": f"{HEADER}\n3 3 0.5 0.25 0.1 0.2 0.9\n",
    "signed class": f"{HEADER}\n3 +1 0.5 0.25 0.1 0.2 0.9\n",
    "six fields": f"{HEADER}\n3 0 0.5 0.25 0.1 0.2\n",
    "eight fields": f"{HEADER}\n3 0 0.5 0.25 0.1 0.2 0.9 1\n",
    "zero frames": "!geometry 640 480 30 0\n",
    "bad header": "!geometry 640 480 30 1_00\n3 0 0.5 0.25 0.1 0.2 0.9\n",
    "ties and disorder": (
        f"{HEADER}\n5 0 0.1 0.1 0.1 0.1 0.5\n2 0 0.2 0.2 0.2 0.2 0.5\n5 0 0.3 0.3 0.3 0.3 0.9\n"
        "5 0 0.4 0.4 0.4 0.4 0.5\n2 2 0.5 0.5 0.5 0.5 0.7\n0 1 0.6 0.6 0.6 0.6 -0.0\n"
        "0 1 0.7 0.7 0.7 0.7 0.0\n"
    ),
}


@pytest.mark.parametrize("text", list(CASES.values()), ids=list(CASES))
def test_named_case_matches_strict_parser(text):
    assert_same_verdict(text)


def test_generator_source_matches_strict_parser():
    text = CASES["comments and blank lines"]
    assert outcome(parse_detection_log, iter(text.splitlines())) == outcome(strict, text)


# token renderings: how a valid value may be written
def _float_text(value: float, style: int) -> str:
    return [repr(value), f"{value:.6f}", f"{value:e}", f"{value:.3E}", f"+{value!r}", f"0{value!r}"][style]


def _int_text(value: int, style: int) -> str:
    return [str(value), f"+{value}", f"0{value}"][style]


SEPARATORS = [" ", "  ", "\t", " \t "]
ENDINGS = ["\n", "\r\n"]
UNIT = st.floats(min_value=0.0, max_value=1.0)
EXTENT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


@st.composite
def valid_logs(draw) -> list[str]:
    """A valid log as its lines, each with its line ending; comments and blanks anywhere."""
    frame_count = draw(st.integers(min_value=1, max_value=30))
    lines = []
    for _ in range(draw(st.integers(0, 2))):
        lines.append(draw(st.sampled_from(["", "# comment", "   ", "\t# x 1 2"])))
    lines.append(f"!geometry {draw(st.integers(1, 4000))} {draw(st.integers(1, 4000))} 30 {frame_count}")
    for _ in range(draw(st.integers(0, 14))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "# comment", "  # 0 0 0.5"])))
            continue
        values = [
            _int_text(draw(st.integers(0, frame_count - 1)), draw(st.integers(0, 2))),
            str(draw(st.integers(0, 2))),
            *(
                _float_text(draw(strategy), draw(st.integers(0, 5)))
                for strategy in (UNIT, UNIT, EXTENT, EXTENT, UNIT)
            ),
        ]
        sep = draw(st.sampled_from(SEPARATORS))
        lead = draw(st.sampled_from(["", " ", "\t"]))
        lines.append(lead + sep.join(values) + draw(st.sampled_from(["", " ", "\t"])))
    ending = draw(st.sampled_from(ENDINGS))
    return [line + ending for line in lines]


TOKENS = [
    "+3", "07", ".5", "5.", "1E3", "1e999", "-1e999", "1e-999", "nan", "-nan", "inf", "-inf",
    "-0.0", "0", "1", "2", "3", "-1", "100", "1.5", "x", "1_0", "\u0661", "0x1", "1e", "e1",
    "--1", "+-1", "0.5.5", "", "0.5 0.5", "#", "!geometry", "0.5\x1c0.5", "0.5\u20280.5",
    "0.5\xa00.5", "0.5\x850.5",
]


@st.composite
def mutated_logs(draw) -> str:
    """A valid log with one token replaced, one line duplicated or moved, or nothing changed."""
    lines = draw(valid_logs())
    kind = draw(st.sampled_from(["none", "token", "duplicate", "move"]))
    if kind != "none" and lines:
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "token":
            body = lines[i].rstrip("\r\n")
            parts = body.split()
            if parts:
                j = draw(st.integers(0, len(parts) - 1))
                parts[j] = draw(st.sampled_from(TOKENS))
                lines[i] = " ".join(parts) + lines[i][len(body):]
        elif kind == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        else:
            lines.insert(draw(st.integers(0, len(lines) - 1)), lines.pop(i))
    return "".join(lines)


@given(text=mutated_logs())
@settings(max_examples=400, deadline=None)
def test_mutated_log_matches_strict_parser(text):
    assert_same_verdict(text)


def generator_style_log(seed: int, frames: int = 300) -> str:
    """A log as a detector exporter writes it: fixed decimals, a comment, a blank line."""
    rng = random.Random(seed)
    rows = ["# exported detections", f"!geometry 1280 720 30 {frames}", ""]
    for frame in range(frames):
        for label in range(3):
            for _ in range(rng.choice([0, 1, 1, 2])):
                x, y, w, h = (rng.uniform(0.01, 0.99) for _ in range(4))
                rows.append(f"{frame} {label} {x:.6f} {y:.6f} {w:.6f} {h:.6f} {rng.random():.3f}")
    return "\n".join(rows) + "\n"


def extreme_floats_log() -> str:
    rows = [
        Row(0, ClassLabel.BEARDED_DRAGON, 5e-324, 1.0, 1e-17, 1.0, 0.9999999999999999),
        Row(0, ClassLabel.BEARDED_DRAGON, 0.0, 0.1, 0.2, 0.3, 0.0),
        Row(2, ClassLabel.CRICKET, 0.123456789012345, 1e-05, 0.25, 3e-2, 1.0),
    ]
    return write_detection_log(timeline_of(FrameGeometry(7, 3, 0.5), 3, rows))


FAST_LOGS = {
    "synthetic hunting clip": generate(
        Scenario(kind=BehaviourKind.HUNTING, frames=200, dropout_rate=0.2, position_noise=0.02, seed=3)
    ).log_text,
    "written extreme floats": extreme_floats_log(),
    "exported with comments": generator_style_log(1),
}


@pytest.mark.parametrize("text", list(FAST_LOGS.values()), ids=list(FAST_LOGS))
def test_written_and_generated_logs_never_reach_the_strict_parser(text, monkeypatch):
    expected = outcome(strict, text)

    def refuse(lines):
        raise AssertionError("the strict parser read a log the fast path should read")

    monkeypatch.setattr(ingest, "_strict_detection_log", refuse)
    assert outcome(parse_detection_log, text) == expected
    assert outcome(parse_detection_log, io.StringIO(text)) == expected


ROW_TEXT = "'0 0 0.5 0.5 0.1 0.1 0.9\\n'"
HOSTILE = {
    # a one-line log of 1 MB: no header
    "digits": ("'9' * 1_000_000", "MissingGeometry 1"),
    # after a header, a 1 MB line: a run of digits ending in a letter, then 500k tokens
    "long token": ("'!geometry 640 480 30 100\\n0 0 0.5 0.5 0.1 0.1 ' + '1' * 1_000_000 + 'x'", "MalformedLine 2"),
    "many tokens": ("'!geometry 640 480 30 100\\n' + '1 ' * 500_000", "MalformedLine 2"),
    # 200k lines, the last one bad: by range, then by token
    "last line out of range": (
        f"'!geometry 640 480 30 100\\n' + {ROW_TEXT} * 199_998 + '0 0 0.5 0.5 0.1 0.1 2'",
        "OutOfRange 200000",
    ),
    "last line not a number": (
        f"'!geometry 640 480 30 100\\n' + {ROW_TEXT} * 199_998 + '0 0 0.5 0.5 0.1 0.1 x'",
        "MalformedLine 200000",
    ),
}


@pytest.mark.parametrize("expr, verdict", list(HOSTILE.values()), ids=list(HOSTILE))
def test_hostile_log_ends_in_its_typed_error_in_bounded_time(expr, verdict):
    code = (
        "from dragonwatch.ingest import ParseError, parse_detection_log\n"
        f"text = {expr}\n"
        "try:\n"
        "    parse_detection_log(text)\n"
        "except ParseError as exc:\n"
        "    print(type(exc).__name__, exc.line_no)\n"
    )
    src = Path(dragonwatch.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout == verdict + "\n"
