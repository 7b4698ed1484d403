"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
All oracles here are independent re-implementations (plain loops over corner
tuples), deliberately sharing no code with the package.
"""

import json
import math
import random
import time
from contextlib import contextmanager

import pytest

from dragonwatch.activity import drift_slope, jitter
from dragonwatch.behaviour import BehaviourKind
from dragonwatch.cli import main
from dragonwatch.evaluation import BoxRecord, average_precision, evaluate
from dragonwatch.ingest import (
    ParseError,
    RunConfig,
    parse_detection_log,
    write_detection_log,
)
from dragonwatch.model import ClassLabel, FrameGeometry, PixelBox
from dragonwatch.pipeline import analyze_timeline
from dragonwatch.synth import Scenario, generate
from dragonwatch.tracks import fill_gaps

from helpers import Row, det, normal_equations_slope, records, timeline_of, track_of

IDLE = BehaviourKind.IDLE
BASKING = BehaviourKind.BASKING
HUNTING = BehaviourKind.HUNTING


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    print(f"[criterion {number}] PASS - {description}")


# --------------------------------------------------------------------------
# independent oracles over (x1, y1, x2, y2) corner tuples


def oracle_iou(a, b):
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def oracle_tags(preds, gts, threshold):
    """preds: [(image, corners, conf)], gts: [(image, corners)]; greedy matching."""
    order = sorted(range(len(preds)), key=lambda i: -preds[i][2])
    used = set()
    tags = [False] * len(preds)
    for i in order:
        image, box, _ = preds[i]
        best_j, best = None, 0.0
        for j, (g_image, g_box) in enumerate(gts):
            if g_image != image or j in used:
                continue
            overlap = oracle_iou(box, g_box)
            if overlap >= threshold and overlap > best:
                best_j, best = j, overlap
        if best_j is not None:
            used.add(best_j)
            tags[i] = True
    return order, tags


def oracle_counts(preds, gts, threshold):
    _, tags = oracle_tags(preds, gts, threshold)
    tp = sum(tags)
    return tp, len(preds) - tp, len(gts) - tp


def oracle_prf(preds, gts, threshold):
    tp, fp, fn = oracle_counts(preds, gts, threshold)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def oracle_exact_ap(preds, gts, threshold):
    """Exact area under the monotone precision envelope (no sampling)."""
    if not gts:
        return None
    if not preds:
        return 0.0
    order, tags = oracle_tags(preds, gts, threshold)
    points = []
    tp = fp = 0
    for position, i in enumerate(order):
        if tags[i]:
            tp += 1
        else:
            fp += 1
        points.append((tp / (tp + fp), tp / len(gts)))
    envelope = [0.0] * len(points)
    best = 0.0
    for i in range(len(points) - 1, -1, -1):
        best = max(best, points[i][0])
        envelope[i] = best
    area = 0.0
    prev_recall = 0.0
    for (prec, recall), env in zip(points, envelope):
        area += (recall - prev_recall) * env
        prev_recall = recall
    return area


def corners_to_pixelbox(corners):
    x1, y1, x2, y2 = corners
    return PixelBox(x_min=x1, y_min=y1, x_max=x2, y_max=y2)


def random_micro_dataset(rng):
    """Per class up to 10 ground truths and predictions across up to 3 images."""
    preds = {label: [] for label in ClassLabel}
    gts = {label: [] for label in ClassLabel}
    images = rng.randint(1, 3)
    for label in ClassLabel:
        for _ in range(rng.randint(0, 10)):
            image = rng.randrange(images)
            x = rng.uniform(0, 80)
            y = rng.uniform(0, 80)
            w = rng.uniform(4, 20)
            h = rng.uniform(4, 20)
            gts[label].append((image, (x, y, x + w, y + h)))
        n_preds = rng.randint(0, 10)
        for _ in range(n_preds):
            image = rng.randrange(images)
            if gts[label] and rng.random() < 0.7:
                # perturb a ground truth so IoU values spread across thresholds
                _, (x1, y1, x2, y2) = rng.choice(gts[label])
                dx = rng.uniform(-6, 6)
                dy = rng.uniform(-6, 6)
                grow = rng.uniform(0.7, 1.3)
                w = (x2 - x1) * grow
                h = (y2 - y1) * grow
                box = (x1 + dx, y1 + dy, x1 + dx + w, y1 + dy + h)
            else:
                x = rng.uniform(0, 80)
                y = rng.uniform(0, 80)
                box = (x, y, x + rng.uniform(4, 20), y + rng.uniform(4, 20))
            preds[label].append((image, box, rng.random()))
    return preds, gts


def to_records(preds, gts):
    pred_records = [
        BoxRecord(image, label, corners_to_pixelbox(box), conf)
        for label, items in preds.items()
        for image, box, conf in items
    ]
    gt_records = [
        BoxRecord(image, label, corners_to_pixelbox(box), 1.0)
        for label, items in gts.items()
        for image, box in items
    ]
    return pred_records, gt_records


# --------------------------------------------------------------------------


def test_criterion_1_eval_matches_oracles():
    with criterion(1, "P/R/F1 match a brute-force counter; 101-point AP within 0.01 of exact"):
        rng = random.Random(20240917)
        start = time.perf_counter()
        for _ in range(200):
            preds, gts = random_micro_dataset(rng)
            pred_records, gt_records = to_records(preds, gts)
            report = evaluate(pred_records, gt_records, iou_threshold=0.5)
            for label in ClassLabel:
                expected = oracle_prf(preds[label], gts[label], 0.5)
                metrics = report.per_class[label]
                assert (metrics.precision, metrics.recall, metrics.f1) == expected
                for threshold in (0.5, 0.75):
                    exact = oracle_exact_ap(preds[label], gts[label], threshold)
                    approx = average_precision(
                        [r for r in pred_records if r.label == label],
                        [r for r in gt_records if r.label == label],
                        threshold,
                    )
                    if exact is None:
                        assert approx is None
                    else:
                        assert abs(approx - exact) <= 0.01
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s"


def test_criterion_2_degenerate_conventions():
    with criterion(2, "perfect inputs score exactly 1.0, empty score 0, mAP range <= mAP@0.5"):
        gts = []
        for image in range(3):
            for label in ClassLabel:
                x, y = 30.0 * int(label), 25.0 * image
                gts.append(BoxRecord(image, label, corners_to_pixelbox((x, y, x + 12, y + 9)), 1.0))
        perfect = [BoxRecord(g.image, g.label, g.box, 1.0) for g in gts]
        report = evaluate(perfect, gts)
        for metrics in report.per_class.values():
            assert metrics.precision == 1.0
            assert metrics.recall == 1.0
            assert metrics.f1 == 1.0
            assert metrics.ap_50 == 1.0
            assert metrics.ap_range == 1.0
        assert report.map_50 == 1.0
        assert report.map_range == 1.0

        empty = evaluate([], gts)
        for metrics in empty.per_class.values():
            assert metrics.precision == 0.0
            assert metrics.recall == 0.0
            assert metrics.f1 == 0.0
            assert metrics.ap_50 == 0.0
            assert metrics.ap_range == 0.0
        assert empty.map_50 == 0.0
        assert empty.map_range == 0.0

        rng = random.Random(416)
        for _ in range(200):
            preds, gt_map = random_micro_dataset(rng)
            pred_records, gt_records = to_records(preds, gt_map)
            report = evaluate(pred_records, gt_records)
            if report.map_50 is None:
                assert report.map_range is None
            else:
                assert report.map_range <= report.map_50 + 1e-12


def test_criterion_3_basking_rule():
    with criterion(3, "basking scenario covers 100% with hand-checked geometry; idle covers 0%"):
        generated = generate(Scenario(kind=BASKING, frames=200))
        result = analyze_timeline(parse_detection_log(generated.log_text))
        assert result.activity[BASKING].coverage == 100.0
        # hand evaluation from the scripted centres: dragon (0.55, 0.40), lamp (0.5, 0.20)
        geom = generated.scenario.geometry
        delta_expected = abs(0.40 - 0.20) * geom.height
        theta_expected = math.degrees(math.atan(abs(0.55 - 0.50) * geom.width / delta_expected))
        assert result.states.frame == list(range(200))
        for delta_y, theta in zip(result.states.delta_y, result.states.theta):
            assert delta_y is not None and theta is not None
            assert abs(delta_y - delta_expected) <= 1e-9
            assert abs(theta - theta_expected) <= 1e-9

        idle = generate(Scenario(kind=IDLE, frames=200))
        idle_result = analyze_timeline(parse_detection_log(idle.log_text))
        assert idle_result.activity[BASKING].coverage == 0.0
        assert idle_result.hunting_event_frames == []


def test_criterion_4_hunting_rule(tmp_path, capsys):
    with criterion(4, "hunt fires once at the vanish frame, distance gate blocks, dash rendering"):
        generated = generate(Scenario(kind=HUNTING, frames=200, vanish_frame=120))
        result = analyze_timeline(parse_detection_log(generated.log_text))
        assert result.hunting_event_frames == [120]

        far = generate(
            Scenario(kind=HUNTING, frames=200, vanish_frame=120, vanish_distance_fraction=0.30)
        )
        far_result = analyze_timeline(parse_detection_log(far.log_text))
        assert far_result.hunting_event_frames == []

        log = tmp_path / "hunting.log"
        log.write_text(generated.log_text, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["analyze", "--log", str(log), "--out", str(out)]) == 0
        assert main(["report", str(out / "report.json")]) == 0
        text = capsys.readouterr().out
        hunting_row = next(line for line in text.splitlines() if line.startswith("hunting "))
        columns = hunting_row.split()
        assert columns[3] == "–" and columns[4] == "–"  # jitter and drift absent


def drop_interior(timeline, rate, max_gap, seed):
    """Drop ~rate of each class's interior detections, runs capped at max_gap."""
    rng = random.Random(seed)
    kept = []
    for label in ClassLabel:
        dets = records(timeline.detections_for(label), label)
        run = 0
        for i, det in enumerate(dets):
            interior = 0 < i < len(dets) - 1
            if interior and run < max_gap and rng.random() < rate:
                run += 1
                continue
            run = 0
            kept.append(det)
    return timeline_of(timeline.geometry, timeline.frame_count, kept)


def test_criterion_5_interpolation_continuity():
    with criterion(5, "30% in-track dropout keeps >= 99% basking coverage; fill_gaps idempotent"):
        generated = generate(Scenario(kind=BASKING, frames=200))
        timeline = parse_detection_log(generated.log_text)
        baseline = analyze_timeline(timeline).activity[BASKING].coverage
        dropped = drop_interior(timeline, rate=0.3, max_gap=RunConfig().max_gap, seed=99)
        assert dropped.detection_count < timeline.detection_count * 0.8
        recovered = analyze_timeline(dropped).activity[BASKING].coverage
        assert recovered >= 0.99 * baseline

        rng = random.Random(31)
        for _ in range(100):
            frames = sorted(rng.sample(range(80), k=rng.randint(1, 25)))
            track = track_of(
                ClassLabel.BEARDED_DRAGON,
                tuple(
                    det(f, cx=rng.uniform(0.2, 0.8), cy=rng.uniform(0.2, 0.8), conf=rng.uniform(0.2, 1.0))
                    for f in frames
                ),
            )
            max_gap = rng.randint(0, 20)
            once = fill_gaps(track, max_gap)
            assert fill_gaps(once, max_gap) == once


def test_criterion_6_activity_closed_forms():
    with criterion(6, "constant series give 0 jitter/slope; OLS slope matches normal equations"):
        constant = [(t, 233.0) for t in range(50)]
        assert jitter(constant) == 0.0
        assert drift_slope([t / 30 for t, _ in constant], [v for _, v in constant]) == 0.0

        rng = random.Random(77)
        for _ in range(50):
            a = rng.uniform(-100, 100)
            b = rng.uniform(-50, 50)
            times = [t / 30 for t in range(40)]
            values = [a + b * t for t in times]
            slope = drift_slope(times, values)
            assert abs(slope - b) <= 1e-9 * max(1.0, abs(b))

        for _ in range(100):
            n = rng.randint(2, 60)
            times = sorted(rng.uniform(0, 120) for _ in range(n))
            if len(set(times)) < 2:
                continue
            values = [rng.uniform(-400, 400) for _ in range(n)]
            slope = drift_slope(times, values)
            oracle = normal_equations_slope(times, values)
            assert slope == pytest.approx(oracle, rel=1e-9, abs=1e-9)


def test_criterion_7_determinism_and_round_trip(tmp_path):
    with criterion(7, "byte-identical reruns, bit-exact round-trip, fuzz yields typed errors"):
        generated = generate(Scenario(kind=HUNTING, frames=150, position_noise=0.01, seed=4))
        log = tmp_path / "clip.log"
        log.write_text(generated.log_text, encoding="utf-8")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["analyze", "--log", str(log), "--out", str(out1)]) == 0
        assert main(["analyze", "--log", str(log), "--out", str(out2)]) == 0
        for name in ("events.txt", "report.json", "frames.jsonl"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

        rng = random.Random(12)
        for _ in range(50):
            frame_count = rng.randint(1, 40)
            detections = [
                Row(
                    rng.randrange(frame_count),
                    rng.choice(list(ClassLabel)),
                    rng.random(),
                    rng.random(),
                    rng.uniform(1e-9, 1.0),
                    rng.uniform(1e-9, 1.0),
                    rng.random(),
                )
                for _ in range(rng.randint(0, 30))
            ]
            timeline = timeline_of(
                FrameGeometry(rng.randint(1, 4000), rng.randint(1, 4000), rng.uniform(0.5, 120)),
                frame_count,
                detections,
            )
            assert parse_detection_log(write_detection_log(timeline)) == timeline

        rng = random.Random(404)
        header = "!geometry 640 480 30 100"
        for i in range(10_000):
            raw = bytes(rng.randrange(256) for _ in range(rng.randint(0, 30)))
            line = raw.decode("utf-8", errors="replace").replace("\n", " ").replace("\r", " ")
            try:
                parse_detection_log([header, line] if i % 2 else [line])
            except ParseError:
                pass  # typed failure is the contract; anything else propagates


def big_log_text(num_lines=100_000):
    frames = (num_lines + 2) // 3
    rows = [f"!geometry 640 480 30 {frames}"]
    count = 0
    for t in range(frames):
        if count >= num_lines:
            break
        rows.append(f"{t} 0 0.5 {0.4 + 0.05 * ((t % 100) / 100):.6f} 0.18 0.12 0.9")
        count += 1
        if count >= num_lines:
            break
        rows.append(f"{t} 1 0.5 0.2 0.1 0.08 0.85")
        count += 1
        if count >= num_lines:
            break
        rows.append(f"{t} 2 {0.1 + 0.6 * (t % 500) / 500:.6f} 0.7 0.03 0.02 0.6")
        count += 1
    return "\n".join(rows)


def test_criterion_8_throughput():
    with criterion(8, "parse + analyze of a 100,000-line log finishes under 2 seconds"):
        text = big_log_text()
        assert len(text.splitlines()) == 100_001  # header plus 100k data lines
        start = time.perf_counter()
        timeline = parse_detection_log(text)
        result = analyze_timeline(timeline)
        elapsed = time.perf_counter() - start
        assert result.frame_count == 33_334
        assert elapsed < 2.0, f"pipeline took {elapsed:.2f}s"
