"""The public parsers against the strict reference parsers, for logs and ground truth.

``ingest._strict_detection_log`` and ``ingest._strict_ground_truth`` read
one line at a time and raise the first fault with its line number; they
are the specification. ``parse_detection_log`` and ``parse_ground_truth``
must give equal columns, bit for bit, or the same exception class, line
number and message, on valid input and on input with one token or one line
changed, whether the source is a string, a list of lines, a file object or
a generator. Input the toolkit writes must not need the strict parser at
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
from dragonwatch.ingest import (
    ParseError,
    _lines,
    _strict_detection_log,
    _strict_ground_truth,
    parse_detection_log,
    parse_ground_truth,
    write_detection_log,
)
from dragonwatch.model import ClassLabel, FrameGeometry
from dragonwatch.synth import Scenario, generate

from helpers import Row, timeline_of, write_ground_truth

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


# the forms a source may take: a string, a list of lines, a file object, a generator
SOURCES = {
    "str": lambda text: text,
    "list": lambda text: text.splitlines(keepends=True),
    "file": lambda text: io.StringIO(text, newline=""),
    "generator": lambda text: (line for line in text.splitlines(keepends=True)),
}


def assert_same_verdict(text: str) -> None:
    """Both parsers agree on ``text`` in each form of source."""
    for make in SOURCES.values():
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
    # a blank to str.split() that ends no line
    "unit separator": f"{HEADER}\n3 0 0.5\x1f0.25 0.1 0.2 0.9\n{ROW}\x1f\n",
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
    "0.5\xa00.5", "0.5\x850.5", "!frame", "!frame 3",
]


def mutate(draw, lines: list[str]) -> str:
    """``lines`` with one token replaced, one line duplicated or moved, or nothing changed."""
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


@st.composite
def mutated_logs(draw) -> str:
    """A valid log with one token replaced, one line duplicated or moved, or nothing changed."""
    return mutate(draw, draw(valid_logs()))


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


# a comment that the number rule would refuse as data: "_" and non-ASCII text
NOTE = "# exported_by caf\xe9 \u2462"


def with_notes(text: str, line_numbers: list[int]) -> str:
    """``text`` with NOTE as each of the given 1-based lines."""
    lines = text.splitlines(keepends=True)
    for line_no in sorted(line_numbers):
        lines.insert(line_no - 1, NOTE + "\n")
    return "".join(lines)


FAST_LOGS = {
    "synthetic hunting clip": generate(
        Scenario(kind=BehaviourKind.HUNTING, frames=200, dropout_rate=0.2, position_noise=0.02, seed=3)
    ).log_text,
    "written extreme floats": extreme_floats_log(),
    "exported with comments": generator_style_log(1),
    "notes with _ and non-ASCII text": with_notes(generator_style_log(2), [1, 5, 40]),
    # comments at the end of one block of 256 lines and the start of the next: the blocks
    # start after the header, on line 2, so lines 258 and 259 end one and start the next
    "notes across a block edge": with_notes(generator_style_log(3), [256, 257, 258, 259]),
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


def run_parser(parser: str, expr: str) -> str:
    """What a fresh interpreter prints for ``parser`` on the text ``expr`` builds: the error class and line."""
    code = (
        f"from dragonwatch.ingest import ParseError, {parser}\n"
        f"text = {expr}\n"
        "try:\n"
        f"    {parser}(text)\n"
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
    return done.stdout


@pytest.mark.parametrize("expr, verdict", list(HOSTILE.values()), ids=list(HOSTILE))
def test_hostile_log_ends_in_its_typed_error_in_bounded_time(expr, verdict):
    assert run_parser("parse_detection_log", expr) == verdict + "\n"


# ground truth: ``<class> <cx> <cy> <w> <h>`` rows, ``!frame <n>`` setting the frame of the rows below

GT_ROW = "0 0.5 0.25 0.1 0.2"
GT_GEOMETRY = FrameGeometry(1, 1, 1.0)  # parse_ground_truth's placeholder when given none


def strict_ground_truth(source, start_frame: int = 0) -> object:
    return _strict_ground_truth(_lines(source), GT_GEOMETRY, start_frame)


def assert_same_ground_truth(text: str) -> None:
    """Both ground-truth parsers agree on ``text`` in each form of source, from frame 0 and 7."""
    for start_frame in (0, 7):
        for make in SOURCES.values():
            fast = outcome(lambda source: parse_ground_truth(source, start_frame=start_frame), make(text))
            assert fast == outcome(lambda source: strict_ground_truth(source, start_frame), make(text))


GT_CASES = {
    "plain": f"!frame 3\n{GT_ROW}\n",
    "frames in turn": f"!frame 0\n{GT_ROW}\n1 0.1 0.2 0.3 0.4\n!frame 2\n2 0.9 0.8 0.7 0.6\n",
    "plus-signed frame": f"!frame +3\n{GT_ROW}\n",
    "zero-led frame": f"!frame 03\n{GT_ROW}\n",
    "exponent frame": f"!frame 1e3\n{GT_ROW}\n",
    "negative frame": f"!frame -1\n{GT_ROW}\n",
    "frame not a number": f"!frame x\n{GT_ROW}\n",
    "non-ASCII frame": f"!frame \u0663\n{GT_ROW}\n",
    "underscore frame": f"!frame 1_0\n{GT_ROW}\n",
    "frame over the int digit limit": f"!frame {'9' * 5000}\n{GT_ROW}\n",
    "frame without a field": f"!frame\n{GT_ROW}\n",
    "frame with two fields": f"!frame 3 4\n{GT_ROW}\n",
    "frame glued to its number": f"!frame3\n{GT_ROW}\n",
    "frame with a comment after it": f"!frame 3 # three\n{GT_ROW}\n",
    "capital directive": f"!FRAME 3\n{GT_ROW}\n",
    "tabs": f"!frame\t3\t\n0\t0.5 \t0.25\t0.1\t0.2\t\n",
    "leading blanks": f"  \t!frame 3\n   \t{GT_ROW}\n",
    "CRLF": f"!frame 3\r\n{GT_ROW}\r\n!frame 4\r\n{GT_ROW}\r\n",
    "file separator": f"!frame 3\x1c{GT_ROW}\n0 0.5\x1c0.25 0.1 0.2\n",
    "unit separator": f"!frame\x1f3\n0 0.5\x1f0.25 0.1 0.2\n\x1f{GT_ROW}\n",
    "line separator": f"!frame 3\u2028{GT_ROW}\u2028{GT_ROW}\n",
    "next line": f"!frame 3\x85{GT_ROW}\n{GT_ROW}\x85{GT_ROW}\n",
    "vertical tab": f"!frame\x0b3\n{GT_ROW}\x0b{GT_ROW}\n",
    "no-break space": f"!frame\xa03\n0 0.5\xa00.25 0.1 0.2\n",
    "comments and blank lines": f"# a\n\n  # !frame 9\n!frame 3\n\n# c\n{GT_ROW}\n   \n#{GT_ROW}\n{GT_ROW}\n",
    "comment after a row": f"!frame 3\n{GT_ROW} # note\n",
    "data before the first frame": f"{GT_ROW}\n1 0.1 0.2 0.3 0.4\n!frame 5\n{GT_ROW}\n",
    "no frame directive": f"{GT_ROW}\n2 0.1 0.2 0.3 0.4\n",
    "descending frames": f"!frame 9\n{GT_ROW}\n!frame 2\n1 0.1 0.2 0.3 0.4\n!frame 0\n{GT_ROW}\n",
    "repeated frame": f"!frame 2\n{GT_ROW}\n!frame 2\n{GT_ROW}\n",
    "frame without rows": f"!frame 2\n{GT_ROW}\n!frame 50\n",
    "empty": "",
    "frame only": "!frame 3\n",
    "blank only": "\n  \n# x\n",
    "unknown directive": f"!geometry 640 480 30 100\n{GT_ROW}\n",
    "four fields": "!frame 3\n0 0.5 0.25 0.1\n",
    "six fields": f"!frame 3\n{GT_ROW} 0.9\n",
    "nan": "!frame 3\n0 0.5 nan 0.1 0.2\n",
    "inf": "!frame 3\n0 0.5 0.25 inf 0.2\n",
    "huge exponent": "!frame 3\n0 0.5 0.25 0.1 1e999\n",
    "tiny exponent": "!frame 3\n0 1e-999 0.25 0.1 0.2\n",
    "negative zero": "!frame 3\n0 -0.0 -0.0 0.1 0.2\n",
    "zero extent": "!frame 3\n0 0.5 0.25 0.0 0.2\n",
    "underscore": "!frame 3\n0 0.5 0.2_5 0.1 0.2\n",
    "non-ASCII digit": "!frame 3\n0 0.5 0.25 0.1 0.\u0662\n",
    "unknown class": "!frame 3\n3 0.5 0.25 0.1 0.2\n",
    "signed class": "!frame 3\n+1 0.5 0.25 0.1 0.2\n",
    "fractional class": "!frame 3\n1.0 0.5 0.25 0.1 0.2\n",
    "ties and disorder": (
        "!frame 5\n0 0.1 0.1 0.1 0.1\n!frame 2\n0 0.2 0.2 0.2 0.2\n!frame 5\n0 0.3 0.3 0.3 0.3\n"
        "2 0.5 0.5 0.5 0.5\n!frame 0\n1 0.6 0.6 0.6 0.6\n1 0.7 0.7 0.7 0.7\n"
    ),
}


@pytest.mark.parametrize("text", list(GT_CASES.values()), ids=list(GT_CASES))
def test_named_ground_truth_matches_strict_parser(text):
    assert_same_ground_truth(text)


@pytest.mark.parametrize(
    "parse, text",
    [(parse_detection_log, text) for text in CASES.values()]
    + [(parse_ground_truth, text) for text in GT_CASES.values()],
    ids=[f"log {name}" for name in CASES] + [f"ground truth {name}" for name in GT_CASES],
)
def test_string_ends_lines_where_a_text_file_does(parse, text):
    # only \n, \r\n and \r end a line; \f, \x1c, \x85 or U+2028 stay inside it
    assert outcome(parse, text) == outcome(parse, io.StringIO(text, newline=None))


@st.composite
def valid_ground_truth(draw) -> list[str]:
    """Valid ground truth as its lines, each with its line ending; ``!frame`` lines, comments and blanks anywhere."""
    lines = []
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "# comment", "   ", "\t# !frame 1", "  # 0 0.5 0.5 0.1 0.1"])))
        elif kind <= 2:
            lead = draw(st.sampled_from(["", " ", "\t"]))
            sep = draw(st.sampled_from(SEPARATORS))
            lines.append(f"{lead}!frame{sep}{_int_text(draw(st.integers(0, 40)), draw(st.integers(0, 2)))}")
        else:
            values = [
                str(draw(st.integers(0, 2))),
                *(_float_text(draw(strategy), draw(st.integers(0, 5))) for strategy in (UNIT, UNIT, EXTENT, EXTENT)),
            ]
            sep = draw(st.sampled_from(SEPARATORS))
            lead = draw(st.sampled_from(["", " ", "\t"]))
            lines.append(lead + sep.join(values) + draw(st.sampled_from(["", " ", "\t"])))
    ending = draw(st.sampled_from(ENDINGS))
    return [line + ending for line in lines]


@st.composite
def mutated_ground_truth(draw) -> str:
    """Valid ground truth with one token replaced, one line duplicated or moved, or nothing changed."""
    return mutate(draw, draw(valid_ground_truth()))


@given(text=mutated_ground_truth())
@settings(max_examples=400, deadline=None)
def test_mutated_ground_truth_matches_strict_parser(text):
    assert_same_ground_truth(text)


GT_ROW_TEXT = "'0 0.5 0.5 0.1 0.1\\n'"
GT_HOSTILE = {
    # a one-line file of 1 MB: one field
    "digits": ("'9' * 1_000_000", "MalformedLine 1"),
    # a 1 MB frame number: over int()'s digit limit, then ending in a letter
    "long frame": ("'!frame ' + '1' * 1_000_000", "MalformedLine 1"),
    "long frame ending in a letter": ("'!frame ' + '1' * 1_000_000 + 'x'", "MalformedLine 1"),
    # a 1 MB row: a run of digits ending in a letter, then 500k tokens
    "long token": ("'!frame 0\\n0 0.5 0.5 0.1 ' + '1' * 1_000_000 + 'x'", "MalformedLine 2"),
    "many tokens": ("'!frame 0\\n' + '1 ' * 500_000", "MalformedLine 2"),
    # 200k lines, the last one bad: by range, by token, then by directive
    "last line out of range": (
        f"'!frame 0\\n' + {GT_ROW_TEXT} * 199_998 + '0 0.5 0.5 0.1 2'",
        "OutOfRange 200000",
    ),
    "last line not a number": (
        f"'!frame 0\\n' + {GT_ROW_TEXT} * 199_998 + '0 0.5 0.5 0.1 x'",
        "MalformedLine 200000",
    ),
    "last line a negative frame": (
        f"'!frame 0\\n' + {GT_ROW_TEXT} * 199_998 + '!frame -1'",
        "OutOfRange 200000",
    ),
}


@pytest.mark.parametrize("expr, verdict", list(GT_HOSTILE.values()), ids=list(GT_HOSTILE))
def test_hostile_ground_truth_ends_in_its_typed_error_in_bounded_time(expr, verdict):
    assert run_parser("parse_ground_truth", expr) == verdict + "\n"


def generator_style_ground_truth(seed: int, frames: int = 100) -> str:
    """Ground truth as a labelling tool exports it: fixed decimals, comments, blank lines, ``!frame`` lines."""
    rng = random.Random(seed)
    rows = ["# exported labels", ""]
    for frame in range(frames):
        rows.append(f"!frame {frame}")
        for label in range(3):
            for _ in range(rng.choice([0, 1, 1, 2])):
                x, y, w, h = (rng.uniform(0.01, 0.99) for _ in range(4))
                rows.append(f"{label} {x:.6f} {y:.6f} {w:.6f} {h:.6f}")
        if frame % 10 == 0:
            rows.append(f"# end of frame {frame}")
    return "\n".join(rows) + "\n"


# (text, start frame)
FAST_GROUND_TRUTH = {
    "written synthetic clip": (write_ground_truth(parse_detection_log(FAST_LOGS["synthetic hunting clip"])), 0),
    "written extreme floats": (write_ground_truth(parse_detection_log(FAST_LOGS["written extreme floats"])), 0),
    "single frame from its file name": ("0 0.5 0.4 0.3 0.2\n1 0.5 0.2 0.2 0.1\n2 0.1 0.7 0.05 0.05\n", 7),
    "single frame, CRLF": ("0 0.5 0.4 0.3 0.2\r\n1 0.5 0.2 0.2 0.1\r\n", 12),
    "exported with comments": (generator_style_ground_truth(1), 0),
    "notes with _ and non-ASCII text": (with_notes(generator_style_ground_truth(2), [1, 4, 40]), 0),
    "notes across a block edge": (with_notes(generator_style_ground_truth(3), [256, 257]), 0),
    "single frame with a note": (f"{NOTE}\n0 0.5 0.4 0.3 0.2\n", 3),
}


@pytest.mark.parametrize("text, start_frame", list(FAST_GROUND_TRUTH.values()), ids=list(FAST_GROUND_TRUTH))
def test_written_and_exported_ground_truth_never_reaches_the_strict_parser(text, start_frame, monkeypatch):
    expected = outcome(lambda source: strict_ground_truth(source, start_frame), text)
    assert expected[0] == "ok"

    def refuse(lines, geometry, start_frame):
        raise AssertionError("the strict parser read ground truth the fast path should read")

    monkeypatch.setattr(ingest, "_strict_ground_truth", refuse)
    for make in SOURCES.values():
        assert outcome(lambda source: parse_ground_truth(source, start_frame=start_frame), make(text)) == expected
