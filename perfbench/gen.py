"""Seeded input generator for the benchmark workloads.

Writes detection logs and ground-truth files in the dragonwatch text
formats without importing dragonwatch, so the inputs stay the same when the
program changes. Every random draw comes from one ``random.Random`` per clip,
seeded from (workload, seed, clip index), and every number is written with a
fixed number of decimals: the same seed gives byte-identical files.

Each clip also gets a descriptor (``clips.json``) holding what the checks
need: the CLI arguments of its operation, its input line count, its frame
count and the frames on which the generator scripted a cricket being eaten.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WIDTH, HEIGHT = 640, 480
WORKLOADS = ("clip-day", "clip-swarm", "clip-night", "eval-batch")
CLIPS_PER_RUN = 4

# Default sizes: 0.1-0.25 s per operation on a 2-vCPU Xeon VM, small enough
# for well over 100 timed operations in a 25 s run, large enough that each
# workload's dominant layer is the one its "why" in BENCHMARK.json names.
FRAMES = {"clip-day": 3000, "clip-swarm": 300, "clip-night": 8640, "eval-batch": 100}

DRAGON = (0, (0.18, 0.12), 0.90)  # class id, (w, h), confidence
LAMP = (1, (0.10, 0.08), 0.85)
CRICKET = (2, (0.03, 0.02), 0.60)

BASKING_DRAGON = (0.52, 0.40)
LAMP_POS = (0.50, 0.15)
DROPOUT = 0.10
NOISE = 0.002  # uniform half-width of centre noise, normalised units
MAX_GAP = 15  # dragonwatch's default max_gap and disappearance_window
SETTLE = 20  # frames kept clear around scripted events, > MAX_GAP


def _clamp(value: float) -> float:
    return min(1.0, max(0.0, value))


class _Log:
    """Accumulates detection-log lines for one clip."""

    def __init__(self, rng: random.Random, frames: int, fps: int, noise: float = NOISE):
        self.rng = rng
        self.noise = noise
        self.rows = [f"!geometry {WIDTH} {HEIGHT} {fps} {frames}"]

    def emit(self, frame: int, body: tuple, pos: tuple[float, float], *, keep: bool = False,
             conf_jitter: float = 0.0, scale: float = 1.0) -> None:
        """One detection, dropped with probability DROPOUT unless ``keep``."""
        rng = self.rng
        drop = rng.random() < DROPOUT
        nx = (rng.random() * 2 - 1) * self.noise
        ny = (rng.random() * 2 - 1) * self.noise
        if drop and not keep:
            return
        label, (w, h), conf = body
        conf = min(1.0, max(0.0, conf + (rng.random() * 2 - 1) * conf_jitter))
        self.rows.append(
            f"{frame} {label} {_clamp(pos[0] + nx):.6f} {_clamp(pos[1] + ny):.6f}"
            f" {w * scale:.6f} {h * scale:.6f} {conf:.3f}"
        )

    def text(self) -> str:
        return "\n".join(self.rows) + "\n"


def _clip_day(rng: random.Random, frames: int, crickets: int) -> tuple[str, list[int]]:
    """Daytime clip: dragon alternates basking and idle, lamp always on.

    About 10% dropout, two hides longer than max_gap, a few same-frame
    duplicate dragon boxes, and ``crickets`` crickets alive one after
    another, so that one cricket is in view most of the time whatever their
    number. Every other cricket is eaten next to the dragon; the rest escape
    to the frame edge farthest from it, out of hunting range.
    """
    dragon_pos: list[tuple[float, float]] = []
    boundaries = []
    basking = rng.random() < 0.5
    while len(dragon_pos) < frames:
        boundaries.append(len(dragon_pos))
        pos = BASKING_DRAGON if basking else (0.6 + 0.3 * rng.random(), 0.65 + 0.25 * rng.random())
        dragon_pos.extend([pos] * rng.randint(150, 450))
        basking = not basking
    del dragon_pos[frames:]

    hidden: set[int] = set()
    for _ in range(2):
        start = rng.randrange(0, max(1, frames - 60))
        hidden.update(range(start, start + rng.randint(MAX_GAP + 5, 40)))

    def steady(t: int) -> bool:
        """No hide and no basking/idle switch within SETTLE frames of t."""
        return (
            SETTLE <= t < frames - SETTLE
            and not any(abs(t - b) <= SETTLE for b in boundaries)
            and not any(abs(t - h) <= SETTLE for h in hidden)
        )

    lives = []  # (first frame, last frame, start pos, end pos, eaten)
    slot = frames // max(1, crickets)
    if slot < 8 * SETTLE:
        raise ValueError(f"{frames} frames are too few for {crickets} crickets")
    for j in range(crickets):
        first = j * slot + rng.randint(SETTLE, 3 * SETTLE)
        last = (j + 1) * slot - SETTLE - rng.randint(0, 3 * SETTLE)
        eaten = j % 2 == 0
        while eaten and not steady(last):
            last -= 1
            eaten = last - first > 60
        start = (rng.choice((0.04, 0.96)), 0.3 + 0.6 * rng.random())
        dx, dy = dragon_pos[last]
        if eaten:
            end = (dx + 0.03, dy + 0.02)
        else:
            end = (0.02 if dx > 0.5 else 0.98, 0.3 + 0.6 * rng.random())
        lives.append((first, last, start, end, eaten))

    log = _Log(rng, frames, 30)
    for t in range(frames):
        if t not in hidden:
            log.emit(t, DRAGON, dragon_pos[t])
            if rng.random() < 0.03:  # duplicate box; ties on confidence now and then
                log.emit(t, DRAGON, dragon_pos[t], keep=True, conf_jitter=0.1 * rng.random(),
                         scale=0.9 + 0.2 * rng.random())
        log.emit(t, LAMP, LAMP_POS)
        for first, last, start, end, _ in lives:
            if first <= t <= last:
                walk = (t - first) / (last - first)
                pos = (start[0] + (end[0] - start[0]) * walk, start[1] + (end[1] - start[1]) * walk)
                log.emit(t, CRICKET, pos, keep=t == last)
    return log.text(), sorted(life[1] for life in lives if life[4])


def _clip_swarm(rng: random.Random, frames: int) -> tuple[str, list[int]]:
    """Feeding session: 30 crickets alive at once around a dragon in the middle.

    Each cricket circles inside its own cell of a 6 x 5 grid, so cells never
    overlap and association cannot swap identities. Crickets in the six
    cells within gamma * width of the dragon are eaten at scripted frames.
    """
    cols, rows = 6, 5
    dragon = (0.5, 0.5)
    reach = 0.25 * WIDTH  # dragonwatch's default gamma
    centres = [((c + 0.5) / cols, (r + 0.5) / rows) for r in range(rows) for c in range(cols)]
    # 35 px: the circle's radius plus noise
    near = [i for i, (x, y) in enumerate(centres)
            if math.hypot((x - dragon[0]) * WIDTH, (y - dragon[1]) * HEIGHT) + 35 < reach]
    # one eaten cricket per stratum of the clip, so every clip loses about
    # the same number of cricket detections
    strata = (frames - 2 * SETTLE) / len(near)
    eaten_at = [SETTLE + int((k + rng.random()) * strata) for k in range(len(near))]
    rng.shuffle(eaten_at)
    last_frame = dict(zip(near, eaten_at))
    crickets = [(centre, rng.random() * 2 * math.pi, last_frame.get(i)) for i, centre in enumerate(centres)]
    log = _Log(rng, frames, 30, noise=0.0015)
    for t in range(frames):
        log.emit(t, DRAGON, dragon)
        log.emit(t, LAMP, LAMP_POS)
        for centre, phase, last in crickets:
            if last is not None and t > last:
                continue
            angle = phase + 0.05 * t
            pos = (centre[0] + 25 / WIDTH * math.cos(angle), centre[1] + 20 / HEIGHT * math.sin(angle))
            log.emit(t, CRICKET, pos, keep=t == last)
    return log.text(), sorted(last for _, _, last in crickets if last is not None)


def _clip_night(rng: random.Random, frames: int) -> tuple[str, list[int]]:
    """Night at 1 fps: detections in bursts covering 20% of frames.

    One burst per six-minute slot, at a random place in its slot, with burst
    lengths drawn in pairs that sum to 20% of two slots, so every clip has
    the same detection load. The dragon shows in every burst; the lamp in
    every third, right above the dragon (basking) in every sixth. No crickets.
    """
    slot = 360
    log = _Log(rng, frames, 1)
    lengths = []
    for _ in range(0, frames // slot, 2):
        first = rng.randint(20, 124)
        lengths += [first, 144 - first]
    for index, length in enumerate(lengths[: frames // slot]):
        start = index * slot + rng.randint(0, slot - length)
        pos = BASKING_DRAGON if index % 6 == 0 else (0.2 + 0.6 * rng.random(), 0.35 + 0.5 * rng.random())
        for frame in range(start, start + length):
            log.emit(frame, DRAGON, pos)
            if index % 3 == 0:
                log.emit(frame, LAMP, LAMP_POS)
    return log.text(), []


# eval-batch: the basking, idle and hunting scripts of dragonwatch's own
# simulator, predicted with centre noise 0.01 and dropout 0.1 and scored
# against the clean boxes.
_EVAL_SCENES = {
    "basking": ((0.55, 0.40), (0.5, 0.20), False),
    "idle": ((0.72, 0.82), (0.5, 0.10), False),
    "hunting": ((0.70, 0.70), (0.5, 0.10), True),
}


def _eval_scene(rng: random.Random, frames: int, dragon, lamp, cricket: bool) -> tuple[str, str, int, int]:
    vanish = frames * 3 // 5
    preds = _Log(rng, frames, 30, noise=0.01)
    truth = []
    n_truth = 0
    for t in range(frames):
        bodies = [(DRAGON, dragon), (LAMP, lamp)]
        if cricket and t <= vanish:
            frac = t / vanish
            bodies.append((CRICKET, (0.08 + (0.66 - 0.08) * frac, 0.70)))
        truth.append(f"!frame {t}")
        for body, pos in bodies:
            label, (w, h), _ = body
            truth.append(f"{label} {pos[0]:.6f} {pos[1]:.6f} {w:.6f} {h:.6f}")
            n_truth += 1
            preds.emit(t, body, pos, conf_jitter=0.08)
    return preds.text(), "\n".join(truth) + "\n", len(preds.rows) - 1, n_truth


def generate(workload: str, seed: int, out_dir: Path, clips: int = CLIPS_PER_RUN,
             frames: int | None = None) -> list[dict]:
    """Write ``clips`` inputs for ``workload`` under ``out_dir`` and describe them.

    Returns the clip descriptors, also written to ``out_dir/clips.json``.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    frames = FRAMES[workload] if frames is None else frames
    out_dir.mkdir(parents=True, exist_ok=True)
    described = []
    for index in range(clips):
        rng = random.Random(f"{workload}/{seed}/{index}")
        name = f"clip{index}"
        out = out_dir / "out" / name
        if workload == "eval-batch":
            preds_dir = out_dir / name / "preds"
            gts_dir = out_dir / name / "gts"
            preds_dir.mkdir(parents=True, exist_ok=True)
            gts_dir.mkdir(parents=True, exist_ok=True)
            lines = n_preds = n_truth = 0
            for stem, (dragon, lamp, cricket) in _EVAL_SCENES.items():
                pred_text, truth_text, p, g = _eval_scene(rng, frames, dragon, lamp, cricket)
                (preds_dir / f"{stem}.txt").write_text(pred_text, encoding="utf-8")
                (gts_dir / f"{stem}.txt").write_text(truth_text, encoding="utf-8")
                lines += pred_text.count("\n") + truth_text.count("\n")
                n_preds += p
                n_truth += g
            described.append({
                "name": name,
                "argv": ["evaluate", str(preds_dir), str(gts_dir), "--out", str(out)],
                "out": str(out),
                "lines": lines,
                "predictions": n_preds,
                "ground_truths": n_truth,
            })
            continue
        if workload == "clip-day":
            text, eaten = _clip_day(rng, frames, crickets=1 + index % 3)
        else:
            make = _clip_swarm if workload == "clip-swarm" else _clip_night
            text, eaten = make(rng, frames)
        log = out_dir / f"{name}.log"
        log.write_text(text, encoding="utf-8")
        described.append({
            "name": name,
            "argv": ["analyze", "--log", str(log), "--out", str(out)],
            "out": str(out),
            "lines": text.count("\n"),
            "frame_count": frames,
            "eaten_frames": eaten,
        })
    (out_dir / "clips.json").write_text(json.dumps(described, indent=1) + "\n", encoding="utf-8")
    return described
