"""Output checks run after every benchmark operation.

For the seed the digests were pinned with, every output file must match its
pinned SHA-256 digest. For any other seed there is nothing to pin against,
so the first run of each clip gets structural checks and later runs of the
same clip must reproduce its digests. ``run_meta.json`` is never checked: it
carries a timestamp.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

OUTPUTS = {
    "analyze": ("events.txt", "report.json", "frames.jsonl"),
    "evaluate": ("eval_report.json", "eval_report.txt"),
}
STATES = {"idle", "basking", "hunting"}


def digests(clip: dict) -> dict[str, str | None]:
    out = Path(clip["out"])
    found: dict[str, str | None] = {}
    for name in OUTPUTS[clip["argv"][0]]:
        try:
            found[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
        except FileNotFoundError:
            found[name] = None
    return found


def _analyze_structure(clip: dict) -> str | None:
    out = Path(clip["out"])
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    n = clip["frame_count"]
    if report["frame_count"] != n:
        return f"frame_count {report['frame_count']} != {n}"
    expected_start = 0
    for ep in report["episodes"]:
        if ep["start_frame"] != expected_start or ep["end_frame"] < ep["start_frame"]:
            return f"episodes do not tile [0, {n}) at frame {expected_start}"
        expected_start = ep["end_frame"] + 1
    if expected_start != n:
        return f"episodes end at {expected_start}, not {n}"
    events = (out / "events.txt").read_text(encoding="utf-8").splitlines()
    wanted = [f"{ep['behaviour']} {ep['start_frame']} {ep['end_frame']}" for ep in report["episodes"]]
    if [row.rsplit(" ", 1)[0] for row in events] != wanted:
        return "events.txt does not list the report's episodes"
    rows = (out / "frames.jsonl").read_text(encoding="utf-8").splitlines()
    if len(rows) != n:
        return f"frames.jsonl has {len(rows)} lines, not {n}"
    hunting_frames = []
    for i, row in enumerate(rows):
        frame = json.loads(row)
        if frame["frame"] != i or frame["state"] not in STATES:
            return f"frames.jsonl line {i + 1} is out of order or has an unknown state"
        if frame["state"] == "hunting":
            hunting_frames.append(i)
    # the generator scripts every eat to be detectable: next to the dragon,
    # clear of hides and state switches, with the cricket seen on its last frame
    events_at = report["hunting_event_frames"]
    if sorted(set(events_at)) != clip["eaten_frames"]:
        return f"hunting events {events_at} are not the scripted eaten frames {clip['eaten_frames']}"
    if hunting_frames != sorted(set(events_at)):
        return "hunting frames in frames.jsonl differ from the report's hunting events"
    return None


def _unit(value) -> bool:
    return value is None or (isinstance(value, (int, float)) and math.isfinite(value) and 0 <= value <= 1)


def _evaluate_structure(clip: dict) -> str | None:
    out = Path(clip["out"])
    report = json.loads((out / "eval_report.json").read_text(encoding="utf-8"))
    classes = report["classes"].values()
    figures = [report["map_50"], report["map_50_95"], report["max_f1"]]
    for metrics in classes:
        figures += [metrics[k] for k in ("precision", "recall", "f1", "ap_50", "ap_50_95")]
    figures += [v for row in report["confusion_matrix"]["normalized"] for v in row]
    if not all(_unit(v) for v in figures):
        return "an evaluation figure lies outside [0, 1]"
    if sum(m["predictions"] for m in classes) != clip["predictions"]:
        return "prediction count differs from the generated inputs"
    if sum(m["ground_truths"] for m in classes) != clip["ground_truths"]:
        return "ground-truth count differs from the generated inputs"
    if not (out / "eval_report.txt").read_text(encoding="utf-8").startswith("Class"):
        return "eval_report.txt is not an evaluation table"
    return None


def structure(clip: dict) -> str | None:
    """None when the clip's outputs are well formed, else what is wrong."""
    check = _analyze_structure if clip["argv"][0] == "analyze" else _evaluate_structure
    try:
        return check(clip)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable outputs: {exc!r}"


class Checker:
    """Checks one workload's clips against pinned digests or structure."""

    def __init__(self, clips: list[dict], pinned: list[dict] | None = None):
        if pinned is not None and len(pinned) != len(clips):
            raise ValueError(f"{len(pinned)} pinned digest sets for {len(clips)} clips")
        self.clips = clips
        self.reference: dict[int, dict] = dict(enumerate(pinned)) if pinned is not None else {}

    def check(self, index: int) -> str | None:
        """None when clip ``index``'s current outputs are correct, else why not."""
        clip = self.clips[index]
        got = digests(clip)
        if index in self.reference:
            bad = sorted(k for k, v in self.reference[index].items() if got.get(k) != v)
            return f"{clip['name']}: digest mismatch in {', '.join(bad)}" if bad else None
        problem = structure(clip)
        if problem is not None:
            return f"{clip['name']}: {problem}"
        self.reference[index] = got
        return None
