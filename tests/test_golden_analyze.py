"""Byte-identity goldens for ``dragonwatch simulate`` and ``dragonwatch analyze``.

Two sets live in ``tests/golden/analyze/``:

- ``<kind>/``: the three synthetic scenario kinds (300 frames, seed 0, centre
  noise 0.004, dropout 0.1) written by ``simulate`` and then analyzed. Both
  simulate outputs and the three deterministic analyze outputs are pinned.
- ``grid/<case>/``: the analyze outputs for each scenario kind over a small
  grid of centre noise, detection dropout and seed (120 frames each). The
  high dropout leaves gaps longer than ``max_gap``, so frames with no box at
  all sit between boxed ones.
- ``edge/<case>/``: the analyze outputs for small hand-written logs that hit
  the rule boundaries: an empty clip, no lamp, a lamp level with the dragon,
  a gap of exactly ``max_gap`` frames, a hunt cut off by the clip end,
  duplicate boxes with equal confidence, a hunt on a frame where neither the
  dragon nor the lamp has a box, a header frame count far past the last
  detection, and a swarm of 32 crickets whose association decides the hunts.
- ``oracle_grid.sha256``: one SHA-256 digest of the detection log and the
  ``.expected.json`` text that ``simulate`` writes for each noiseless
  scenario of ``ORACLE_GRID``: every kind, short clips, every vanish frame,
  near and far hunts, four configs and three geometries, at the default
  ``beta`` and ``theta_max``.

Regenerate with ``PYTHONPATH=src python tests/test_golden_analyze.py`` only
when the output is meant to change, and record why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from dragonwatch.behaviour import BehaviourKind
from dragonwatch.cli import main
from dragonwatch.ingest import RunConfig
from dragonwatch.model import FrameGeometry
from dragonwatch.synth import Scenario, generate

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
    # the dragon is last seen at frame 9 and never filled past it; the cricket
    # vanishes at frame 12, within max_gap of that sighting, with no lamp at all
    rows = [_box(t, DRAGON, 0.70, 0.70, 0.9) for t in range(10)]
    rows += [_box(t, CRICKET, round(0.55 + 0.01 * t, 6), 0.70, 0.6) for t in range(13)]
    logs["hunt_without_box"] = _log(40, rows)
    # 20 basking frames, then 980 frames with no detection up to the header's count
    rows = []
    for t in range(20):
        rows.append(_box(t, DRAGON, 0.55, 0.40, 0.9))
        rows.append(_box(t, LAMP, 0.5, 0.20, 0.85))
    logs["long_empty_tail"] = _log(1000, rows)
    logs["cricket_swarm"] = _log(90, _cricket_swarm_rows())
    return logs


def _cricket_swarm_rows() -> list[tuple]:
    """A feeding session: 32 crickets at once around a dragon, for 90 frames.

    30 crickets sit on a 6 x 5 lattice with its outer points on the frame
    edge, each walking the same 8 px square (clamped to the frame), so their
    steps tie; each misses a frame now and then. Four lattice crickets
    within gamma * width of the dragon vanish after frames 20, 30, 40 and
    50. The two on the dragon's row hide: one for 10 frames, which its track
    bridges, and one for 20 frames, after which its track has closed (a
    hunt at frame 35). The track that vanished at frame 50 is still open and
    takes the returning box, so it ends without a hunt. Two more crickets
    below the dragon, one inside the hunting distance and one outside, are
    both 15 px from the single box that replaces them at frame 30: the tie
    goes to the track opened first, the near one, so the far track ends
    without a hunt and the near one hunts at frame 59.
    """
    rows = []
    square = [(0, 0), (4, 0), (8, 0), (8, 4), (8, 8), (4, 8), (0, 8), (0, 4)]  # px
    last_seen = {(0.4, 0.25): 20, (0.6, 0.25): 30, (0.4, 0.75): 40, (0.6, 0.75): 50}
    hidden = {(0.4, 0.5): range(25, 35), (0.6, 0.5): range(36, 56)}
    for t in range(90):
        rows.append(_box(t, DRAGON, 0.5, 0.5, 0.9))
        rows.append(_box(t, LAMP, 0.5, 0.15, 0.85))
        dx, dy = square[t % len(square)]
        for i, home in enumerate((c / 5, r / 4) for r in range(5) for c in range(6)):
            if t > last_seen.get(home, t) or t in hidden.get(home, ()) or (7 * t + 3 * i) % 11 == 0:
                continue
            cx = round(min(1.0, home[0] + dx / 640), 6)
            cy = round(min(1.0, home[1] + dy / 480), 6)
            rows.append(_box(t, CRICKET, cx, cy, 0.6))
        # exact binary fractions: 390 / 480 = 0.8125, 405 / 480 = 0.84375, 420 / 480 = 0.875
        if t < 30:
            rows.append(_box(t, CRICKET, 0.5, 0.8125, 0.7))  # 150 px from the dragon
            rows.append(_box(t, CRICKET, 0.5, 0.875, 0.6))  # 180 px
        elif t < 60:
            rows.append(_box(t, CRICKET, 0.5, round(0.84375 - (t - 30) / 480, 6), 0.7))
    return rows


EDGE_LOGS = _edge_logs()

# case name -> (kind, noise, dropout, seed), as simulate flags
GRID = {
    f"{kind}-noise{noise}-dropout{dropout}-seed{seed}": (kind, noise, dropout, seed)
    for kind in KINDS
    for noise in ("0", "0.08")
    for dropout in ("0.3", "0.85")
    for seed in ("1", "2")
}
GRID_FRAMES = "120"


# noiseless scenarios for the simulate oracle, with the config each is generated under
ORACLE_GEOMETRIES = (
    FrameGeometry(640, 480, 30.0),
    FrameGeometry(1280, 720, 25.0),
    FrameGeometry(1, 3, 0.5),
)
ORACLE_CONFIGS = (
    RunConfig(),
    RunConfig(min_episode=5),  # basking clips of 3 and 4 frames are demoted too
    RunConfig(disappearance_window=1),  # 3 frames, vanish 1: a lone idle frame on each side
    RunConfig(gamma=0.05, disappearance_window=4, min_episode=1),
)
ORACLE_GRID = [
    (scenario, config)
    for geometry in ORACLE_GEOMETRIES
    for config in ORACLE_CONFIGS
    for frames in (1, 2, 3, 4, 5, 6, 7, 12, 20)
    for scenario in (
        Scenario(BehaviourKind.BASKING, frames, geometry),
        Scenario(BehaviourKind.IDLE, frames, geometry),
        *(
            Scenario(
                BehaviourKind.HUNTING,
                frames,
                geometry,
                vanish_frame=vanish,
                vanish_distance_fraction=distance,  # 0.3 is past every gamma here
            )
            for vanish in range(frames)
            for distance in (0.04, 0.3)
        ),
    )
]


def oracle_digest() -> str:
    """SHA-256 over each ``ORACLE_GRID`` case's log text, then its ``.expected.json`` text."""
    digest = hashlib.sha256()
    for scenario, config in ORACLE_GRID:
        generated = generate(scenario, config)
        digest.update(generated.log_text.encode())
        digest.update(generated.expected_json().encode())
    return digest.hexdigest()


def simulate_and_analyze(
    kind: str,
    out: Path,
    frames: str = "300",
    noise: str = "0.004",
    dropout: str = "0.1",
    seed: str = "0",
) -> None:
    sim = ["simulate", "--kind", kind, "--frames", frames, "--seed", seed]
    assert main([*sim, "--noise", noise, "--dropout", dropout, "--out", str(out)]) == 0
    assert main(["analyze", "--log", str(out / f"{kind}.log"), "--out", str(out)]) == 0


def simulate_grid_case(case: str, out: Path) -> None:
    kind, noise, dropout, seed = GRID[case]
    simulate_and_analyze(kind, out, GRID_FRAMES, noise, dropout, seed)


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


@pytest.mark.parametrize("case", sorted(GRID))
def test_grid_outputs_match_goldens(case, tmp_path):
    simulate_grid_case(case, tmp_path)
    for name in ANALYZE_OUTPUTS:
        assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / "grid" / case / name).read_bytes(), name


@pytest.mark.parametrize("case", sorted(EDGE_LOGS))
def test_edge_case_outputs_match_goldens(case, tmp_path):
    out = analyze_text(EDGE_LOGS[case], tmp_path)
    for name in ANALYZE_OUTPUTS:
        assert (out / name).read_bytes() == (GOLDEN_DIR / "edge" / case / name).read_bytes(), name


def test_simulate_oracle_matches_golden_digest():
    pinned = (GOLDEN_DIR / "oracle_grid.sha256").read_text(encoding="utf-8").strip()
    assert oracle_digest() == pinned


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
        for case in GRID:
            work = Path(scratch) / "grid" / case
            simulate_grid_case(case, work)
            (GOLDEN_DIR / "grid" / case).mkdir(parents=True, exist_ok=True)
            for name in ANALYZE_OUTPUTS:
                shutil.copyfile(work / name, GOLDEN_DIR / "grid" / case / name)
        for case, text in EDGE_LOGS.items():
            out = analyze_text(text, Path(scratch) / case)
            (GOLDEN_DIR / "edge" / case).mkdir(parents=True, exist_ok=True)
            for name in ANALYZE_OUTPUTS:
                shutil.copyfile(out / name, GOLDEN_DIR / "edge" / case / name)
    (GOLDEN_DIR / "oracle_grid.sha256").write_text(oracle_digest() + "\n", encoding="utf-8")
