"""Byte-identity goldens for ``dragonwatch evaluate``.

The three synthetic scenario kinds (300 frames, seed 0, centre noise 0.01,
dropout 0.1) are scored through the CLI against their clean ground truth, once
at an IoU threshold on the mAP grid (0.5) and once off it (0.3). The pinned
reports live in ``tests/golden/eval/iou_<threshold>/``.

``random_reports.json`` pins the SHA-256 of both report texts for seeded
random batches scored by ``evaluate`` directly: confidence ties, wrong-class
predictions, classes without ground truth and images without predictions, at
several IoU thresholds and confusion cuts. The batches draw only
``random.Random(seed).random()``, whose numbers do not change across Python
versions.

Regenerate every golden with ``PYTHONPATH=src python tests/test_golden_eval.py``
only when the output is meant to change, and record why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from dragonwatch import evaluation
from dragonwatch.behaviour import BehaviourKind
from dragonwatch.cli import main
from dragonwatch.evaluation import Boxes, evaluate
from dragonwatch.ingest import parse_detection_log
from dragonwatch.model import ClassLabel, Corners, iou
from dragonwatch.synth import Scenario, generate

from helpers import BoxRow, boxes_of, write_ground_truth

GOLDEN_DIR = Path(__file__).parent / "golden" / "eval"
REPORTS = ("eval_report.json", "eval_report.txt")
IOU_THRESHOLDS = ("0.5", "0.3")
RANDOM_REPORTS = GOLDEN_DIR / "random_reports.json"
RANDOM_SEEDS = range(400)
RANDOM_IOUS = (0.3, 0.5, 0.55, 0.77, 1.0)
RANDOM_CUTS = (0.0, 0.25, 0.6)


def write_inputs(root: Path) -> tuple[Path, Path]:
    """Noisy predictions and clean ground truth, one file per scenario kind."""
    preds_dir, gts_dir = root / "preds", root / "gts"
    preds_dir.mkdir(parents=True)
    gts_dir.mkdir(parents=True)
    for kind in BehaviourKind:
        noisy = generate(Scenario(kind=kind, frames=300, position_noise=0.01, dropout_rate=0.1))
        clean = generate(Scenario(kind=kind, frames=300))
        (preds_dir / f"{kind.value}.txt").write_text(noisy.log_text, encoding="utf-8")
        (gts_dir / f"{kind.value}.txt").write_text(
            write_ground_truth(parse_detection_log(clean.log_text)), encoding="utf-8"
        )
    return preds_dir, gts_dir


def run_evaluate(inputs: tuple[Path, Path], iou: str, out: Path) -> None:
    preds_dir, gts_dir = inputs
    code = main(["evaluate", str(preds_dir), str(gts_dir), "--iou", iou, "--out", str(out)])
    assert code == 0


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden_eval"))


@pytest.mark.parametrize("iou", IOU_THRESHOLDS)
def test_reports_match_goldens(inputs, iou, tmp_path, capsys):
    run_evaluate(inputs, iou, tmp_path)
    golden = GOLDEN_DIR / f"iou_{iou}"
    for name in REPORTS:
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name
    assert capsys.readouterr().out == (golden / "eval_report.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("iou, matcher_calls", [("0.5", 30), ("0.3", 33)])
def test_each_class_matched_once_per_threshold(inputs, iou, matcher_calls, tmp_path, monkeypatch):
    # 3 classes x 10 mAP thresholds, plus one pass per class when --iou is off that grid
    thresholds = []
    original = evaluation.match_ranked

    def counting(candidates, iou_threshold):
        thresholds.append(iou_threshold)
        return original(candidates, iou_threshold)

    monkeypatch.setattr(evaluation, "match_ranked", counting)
    run_evaluate(inputs, iou, tmp_path)
    assert len(thresholds) == matcher_calls
    assert len(set(thresholds)) == matcher_calls // 3


def _random_box(draw) -> Corners:
    x, y = draw() * 100, draw() * 100
    return x, y, x + 5 + draw() * 40, y + 5 + draw() * 40


def _moved(box: Corners, draw) -> Corners:
    """``box`` with each corner moved by up to 15% of its side."""
    x_min, y_min, x_max, y_max = box
    dx = (x_max - x_min) * 0.3
    dy = (y_max - y_min) * 0.3
    return (
        x_min + (draw() - 0.5) * dx,
        y_min + (draw() - 0.5) * dy,
        x_max + (draw() - 0.5) * dx,
        y_max + (draw() - 0.5) * dy,
    )


def random_batch(seed: int) -> tuple[Boxes, Boxes, float, float]:
    """Predictions, ground truth, IoU threshold and confusion cut of one seeded batch."""
    draw = random.Random(seed).random
    labels = list(ClassLabel)
    iou_threshold = RANDOM_IOUS[int(draw() * len(RANDOM_IOUS))]
    cut = RANDOM_CUTS[int(draw() * len(RANDOM_CUTS))]
    gt_labels = [label for label in labels if draw() < 0.75]
    # half the batches draw confidences from a few levels, so ties are common
    levels = 1 + int(draw() * 6) if draw() < 0.5 else 0

    def confidence() -> float:
        return int(draw() * levels) / levels if levels else draw()

    preds: list[BoxRow] = []
    gts: list[BoxRow] = []
    for index in range(1 + int(draw() * 6)):
        image = f"clip:{index}"
        image_gts = [
            BoxRow(image, label, _random_box(draw))
            for label in gt_labels
            for _ in range(int(draw() * 4))
        ]
        gts.extend(image_gts)
        if draw() < 0.2:
            continue  # an image without predictions
        for target in image_gts:
            if draw() < 0.7:
                label = target.label if draw() < 0.8 else labels[int(draw() * len(labels))]
                box = target.corners if draw() < 0.3 else _moved(target.corners, draw)
                preds.append(BoxRow(image, label, box, confidence()))
        for _ in range(int(draw() * 3)):
            label = labels[int(draw() * len(labels))]
            preds.append(BoxRow(image, label, _random_box(draw), confidence()))
    return boxes_of(preds), boxes_of(gts), iou_threshold, cut


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def random_report_digests(seed: int) -> dict:
    preds, gts, iou_threshold, cut = random_batch(seed)
    report = evaluate(preds, gts, iou_threshold, cut)
    return {
        "seed": seed,
        "iou": iou_threshold,
        "conf": cut,
        "report_sha256": _sha256(json.dumps(report.to_json_dict(), indent=2)),
        "table_sha256": _sha256(report.to_table()),
    }


def test_random_reports_match_goldens():
    pinned = json.loads(RANDOM_REPORTS.read_text(encoding="utf-8"))
    assert [case["seed"] for case in pinned] == list(RANDOM_SEEDS)
    changed = [case["seed"] for case in pinned if random_report_digests(case["seed"]) != case]
    assert changed == []


def test_random_batches_cover_the_edge_cases():
    seen: set[str] = set()
    for seed in RANDOM_SEEDS:
        preds, gts, iou_threshold, cut = random_batch(seed)
        seen.add(f"iou {iou_threshold}")
        seen.add(f"cut {cut}")
        keys = list(zip(preds.label, preds.conf))
        if len(set(keys)) < len(keys):
            seen.add("confidence tie")
        if any(
            p_image == g_image and p_label != g_label and iou(p_box, g_box) >= iou_threshold
            for p_image, p_label, p_box in zip(preds.image, preds.label, preds.corners)
            for g_image, g_label, g_box in zip(gts.image, gts.label, gts.corners)
        ):
            seen.add("wrong-class prediction")
        if set(preds.label) - set(gts.label):
            seen.add("predicted class without ground truth")
        if set(gts.image) - set(preds.image):
            seen.add("image without predictions")
    assert seen == {
        *(f"iou {t}" for t in RANDOM_IOUS),
        *(f"cut {c}" for c in RANDOM_CUTS),
        "confidence tie",
        "wrong-class prediction",
        "predicted class without ground truth",
        "image without predictions",
    }


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        generated = write_inputs(Path(scratch))
        for threshold in IOU_THRESHOLDS:
            run_evaluate(generated, threshold, GOLDEN_DIR / f"iou_{threshold}")
    cases = [random_report_digests(seed) for seed in RANDOM_SEEDS]
    RANDOM_REPORTS.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
