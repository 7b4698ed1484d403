"""Byte-identity goldens for ``dragonwatch simulate`` and ``dragonwatch analyze``.

Two sets live in ``tests/golden/analyze/``:

- ``<kind>/``: the three synthetic scenario kinds (300 frames, seed 0, centre
  noise 0.004, dropout 0.1) written by ``simulate`` and then analyzed. Both
  simulate outputs and the three deterministic analyze outputs are pinned.
- ``edge/<case>/``: the analyze outputs for small hand-written logs that hit
  the rule boundaries: an empty clip, no lamp, a lamp level with the dragon,
  a gap of exactly ``max_gap`` frames, a hunt cut off by the clip end, and
  duplicate boxes with equal confidence.

Regenerate with ``PYTHONPATH=src python tests/test_golden_analyze.py`` only
when the output is meant to change, and record why in CHANGES.md.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from dragonwatch.behaviour import BehaviourKind
from dragonwatch.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden" / "analyze"
ANALYZE_OUTPUTS = ("events.txt", "report.json", "frames.jsonl")
KINDS = tuple(kind.value for kind in BehaviourKind)

# default RunConfig: max_gap 15, disappearance_window 15, min_episode 3
DRAGON, LAMP, CRICKET = 0, 1, 2
DRAGON_SIZE, LAMP_SIZE, CRICKET_SIZE = (0.18, 0.12), (0.10, 0.08), (0.03, 0.02)


def _log(frame_count: int, rows: list[tuple]) -> str:
    lines = [f"!geometry 640 480 30 {frame_count}"]
    lines += [" ".join(str(field) for field in row) for row in rows]
    return "\n".join(lines) + "\n"


def _box(frame: int, label: int, cx: float, cy: float, conf: float) -> tuple:
    w, h = {DRAGON: DRAGON_SIZE, LAMP: LAMP_SIZE, CRICKET: CRICKET_SIZE}[label]
    return (frame, label, cx, cy, w, h, conf)


def _edge_logs() -> dict[str, str]:
    logs = {"zero_frames": _log(0, [])}
    logs["no_lamp"] = _log(30, [_box(t, DRAGON, 0.55, 0.40, 0.9) for t in range(30)])
    # equal rows: delta_y == 0, so theta is 90 degrees and basking never holds
    rows = []
    for t in range(20):
        rows.append(_box(t, DRAGON, 0.3, 0.4, 0.9))
        rows.append(_box(t, LAMP, 0.6, 0.4, 0.85))
    logs["level_lamp"] = _log(20, rows)
    # dragon missing for exactly 15 frames (filled), lamp for 16 (left open)
    rows = []
    for t in range(50):
        if not 10 <= t < 25:
            rows.append(_box(t, DRAGON, round(0.50 + 0.002 * t, 6), 0.40, 0.9))
        if not 30 <= t < 46:
            rows.append(_box(t, LAMP, 0.5, 0.20, 0.85))
    logs["gap_of_max_gap"] = _log(50, rows)
    # the cricket vanishes next to the dragon with only 14 frames of clip left
    rows = []
    for t in range(40):
        rows.append(_box(t, DRAGON, 0.70, 0.70, 0.9))
        rows.append(_box(t, LAMP, 0.5, 0.10, 0.85))
        if t <= 25:
            rows.append(_box(t, CRICKET, round(0.40 + 0.01 * t, 6), 0.70, 0.6))
    logs["hunt_cut_by_clip_end"] = _log(40, rows)
    # two dragon and two lamp boxes per frame with equal confidence
    rows = []
    for t in range(12):
        rows.append(_box(t, DRAGON, 0.55, 0.40, 0.9))
        rows.append(_box(t, DRAGON, 0.25, 0.80, 0.9))
        rows.append(_box(t, LAMP, 0.9, 0.10, 0.85))
        rows.append(_box(t, LAMP, 0.5, 0.20, 0.85))
    logs["duplicate_boxes"] = _log(12, rows)
    return logs


EDGE_LOGS = _edge_logs()


def simulate_and_analyze(kind: str, out: Path) -> None:
    sim = ["simulate", "--kind", kind, "--frames", "300", "--seed", "0"]
    assert main([*sim, "--noise", "0.004", "--dropout", "0.1", "--out", str(out)]) == 0
    assert main(["analyze", "--log", str(out / f"{kind}.log"), "--out", str(out)]) == 0


def analyze_text(text: str, root: Path) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    log = root / "clip.log"
    log.write_text(text, encoding="utf-8")
    out = root / "out"
    assert main(["analyze", "--log", str(log), "--out", str(out)]) == 0
    return out


def scenario_files(kind: str) -> tuple[str, ...]:
    return (f"{kind}.log", f"{kind}.expected.json", *ANALYZE_OUTPUTS)


@pytest.mark.parametrize("kind", KINDS)
def test_scenario_outputs_match_goldens(kind, tmp_path):
    simulate_and_analyze(kind, tmp_path)
    for name in scenario_files(kind):
        assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / kind / name).read_bytes(), name


@pytest.mark.parametrize("case", sorted(EDGE_LOGS))
def test_edge_case_outputs_match_goldens(case, tmp_path):
    out = analyze_text(EDGE_LOGS[case], tmp_path)
    for name in ANALYZE_OUTPUTS:
        assert (out / name).read_bytes() == (GOLDEN_DIR / "edge" / case / name).read_bytes(), name


if __name__ == "__main__":
    import shutil
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        for kind in KINDS:
            work = Path(scratch) / kind
            simulate_and_analyze(kind, work)
            (GOLDEN_DIR / kind).mkdir(parents=True, exist_ok=True)
            for name in scenario_files(kind):
                shutil.copyfile(work / name, GOLDEN_DIR / kind / name)
        for case, text in EDGE_LOGS.items():
            out = analyze_text(text, Path(scratch) / case)
            (GOLDEN_DIR / "edge" / case).mkdir(parents=True, exist_ok=True)
            for name in ANALYZE_OUTPUTS:
                shutil.copyfile(out / name, GOLDEN_DIR / "edge" / case / name)
