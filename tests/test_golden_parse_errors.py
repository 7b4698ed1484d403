"""Pinned parser verdicts: exception class and line number for each input.

``tests/golden/parse_errors.json`` holds one row per input: the parser, the
input text, and either the class name of the ``ParseError`` raised with its
line number, or null for both when the input parses. Message text is not
pinned. The inputs cover every field of every format with out-of-range,
non-finite and non-numeric values, alone and in pairs, so the table also
fixes which of two faults on one line is reported.

Regenerate with ``PYTHONPATH=src python tests/test_golden_parse_errors.py``
only when a verdict is meant to change, and record why in CHANGES.md.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

from dragonwatch.ingest import ParseError, parse_config, parse_detection_log, parse_ground_truth

GOLDEN = Path(__file__).parent / "golden" / "parse_errors.json"
PARSERS = {"log": parse_detection_log, "ground_truth": parse_ground_truth, "config": parse_config}
HEADER = "!geometry 640 480 30 100"

# (valid value, replacement values) per field, in line order
LOG_FIELDS = [
    ("0", ["-1", "100", "x", "1.0"]),
    ("0", ["3", "-1", "x"]),
    ("0.5", ["0", "1", "1.5", "-0.1", "nan", "x"]),
    ("0.5", ["1.5", "inf", "x"]),
    ("0.1", ["1", "0", "1.5", "nan", "x"]),
    ("0.1", ["0", "-inf", "x"]),
    ("0.9", ["0", "1", "1.2", "-0.1", "nan", "inf", "x"]),
]
GT_FIELDS = LOG_FIELDS[1:6]
CONFIG_VALUES = {
    "beta": ["0.33", "0", "1", "1.5", "-0.1", "nan", "inf", "x"],
    "theta_max": ["45", "0", "90", "90.5", "nan", "-inf"],
    "gamma": ["0.25", "0", "1", "2", "nan"],
    "max_gap": ["0", "15", "-1", "1.5", "x"],
    "disappearance_window": ["1", "0", "-3", "x"],
    "min_episode": ["1", "0", "2.0"],
    "cricket_gate": ["0.05", "0", "1", "1.01", "nan"],
}


def _lines_with_faults(fields: list[tuple[str, list[str]]]) -> list[str]:
    """The valid line, then every single-field and every two-field replacement."""
    valid = [value for value, _ in fields]
    lines = [" ".join(valid)]
    for i, (_, bad) in enumerate(fields):
        for value in bad:
            lines.append(" ".join(valid[:i] + [value] + valid[i + 1 :]))
    for (i, (_, bad_i)), (j, (_, bad_j)) in itertools.combinations(enumerate(fields), 2):
        for a, b in itertools.product(bad_i, bad_j):
            fields_ij = list(valid)
            fields_ij[i], fields_ij[j] = a, b
            lines.append(" ".join(fields_ij))
    return lines


def cases() -> list[tuple[str, str]]:
    rows = []
    for w, h, fps, n in itertools.product(
        ["640", "0", "-1", "x"],
        ["480", "0"],
        ["30", "0", "-5", "inf", "nan", "x"],
        ["100", "-1", "x"],
    ):
        rows.append(("log", f"!geometry {w} {h} {fps} {n}\n"))
    rows += [
        ("log", ""),
        ("log", "# only a comment\n\n"),
        ("log", "!geometry 640 480 30\n"),
        ("log", "!geometry 640 480 30 100 1\n"),
        ("log", "!geometry 1.5 480 30 100\n"),
        ("log", "!shape 640 480 30 100\n"),
        ("log", f"{HEADER}\n{HEADER}\n"),
        ("log", "0 0 0.5 0.5 0.1 0.1 0.9\n"),
        ("log", f"{HEADER}\n0 0 0.5 0.5 0.1 0.1\n"),
        ("log", f"{HEADER}\n0 0 0.5 0.5 0.1 0.1 0.9 7\n"),
        ("log", f"{HEADER}\n!geometry 0 480 30 100\n"),
        ("log", "!geometry 640 480 inf 5\n"),
        ("log", f"# one\n\n{HEADER}\n# four\n0 0 0.5 0.5 0.1 0.1 0.9\n0 0 1.5 0.5 0.1 0.1 x\n"),
        ("log", "!geometry 640 480 30 0\n0 0 0.5 0.5 0.1 0.1 0.9\n"),
    ]
    rows += [("log", f"{HEADER}\n{line}\n") for line in _lines_with_faults(LOG_FIELDS)]

    rows += [
        ("ground_truth", ""),
        ("ground_truth", "!frame 3\n"),
        ("ground_truth", "!frame -1\n0 0.5 0.5 0.1 0.1\n"),
        ("ground_truth", "!frame x\n"),
        ("ground_truth", "!frame\n"),
        ("ground_truth", "!frame 1 2\n"),
        ("ground_truth", "!geometry 640 480 30 100\n"),
        ("ground_truth", "0 0.5 0.5 0.1\n"),
        ("ground_truth", "0 0.5 0.5 0.1 0.1 0.9\n"),
        ("ground_truth", "# c\n\n!frame 2\n1 0.5 0.5 0.1 0.1\n!frame 0\n0 0.5 nan 0.1 0.1\n"),
    ]
    rows += [("ground_truth", f"!frame 3\n{line}\n") for line in _lines_with_faults(GT_FIELDS)]

    for key, values in CONFIG_VALUES.items():
        rows += [("config", f"# thresholds\n{key} = {value}\n") for value in values]
    for w, h, fps in itertools.product(
        ["640", "0", "x"], ["480", "0", "-2"], ["30", "0", "inf", "nan", "x"]
    ):
        rows.append(("config", f"width = {w}\nheight = {h}\nfps = {fps}\n"))
    rows += [
        ("config", "fps = 30\nwidth = 0\nheight = 480\n"),
        ("config", "width = 640\n"),
        ("config", "height = 0\n"),
        ("config", "beta = 0.5\nfps = 25\nheight = 480\n"),
        ("config", "width = 640\nheight = 480\nfps = 30\nwidth = 320\n"),
        ("config", "beta = 0.5\nbeta = 0.6\n"),
        ("config", "beta = 5\nwidth = 0\n"),
        ("config", "alpha = 1\n"),
        ("config", "beta 0.5\n"),
        ("config", "beta =\n"),
        ("config", "max_gap = 1e3\n"),
    ]
    return rows


def verdict(parser: str, text: str) -> tuple[str | None, int | None]:
    try:
        PARSERS[parser](text)
    except ParseError as exc:
        return type(exc).__name__, exc.line_no
    return None, None


def table() -> list[dict]:
    rows = []
    for parser, text in cases():
        error, line_no = verdict(parser, text)
        rows.append({"parser": parser, "input": text, "error": error, "line_no": line_no})
    return rows


def test_table_covers_the_issue_examples():
    pinned = {(row["parser"], row["input"]): row for row in json.loads(GOLDEN.read_text())}
    expected = {
        ("log", f"{HEADER}\n0 0 1.5 0.5 0.1 0.1 x\n"): ("OutOfRange", 2),
        ("log", "!geometry 0 480 30 100\n"): ("OutOfRange", 1),
        ("log", "!geometry 640 480 inf 5\n"): ("OutOfRange", 1),
        ("config", "width = 640\nheight = 480\nfps = inf\n"): ("InvalidValue", 3),
    }
    for key, (error, line_no) in expected.items():
        assert (pinned[key]["error"], pinned[key]["line_no"]) == (error, line_no), key


@pytest.mark.parametrize("parser", sorted(PARSERS))
def test_verdicts_match_table(parser):
    pinned = [row for row in json.loads(GOLDEN.read_text()) if row["parser"] == parser]
    assert [(row["parser"], row["input"]) for row in pinned] == [
        case for case in cases() if case[0] == parser
    ]
    mismatches = []
    for row in pinned:
        actual = verdict(parser, row["input"])
        if actual != (row["error"], row["line_no"]):
            mismatches.append((row["input"], row["error"], row["line_no"], *actual))
    assert not mismatches


if __name__ == "__main__":
    lines = ",\n".join(json.dumps(row) for row in table())
    GOLDEN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
