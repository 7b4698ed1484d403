"""Byte-identity goldens for ``dragonwatch evaluate``.

The three synthetic scenario kinds (300 frames, seed 0, centre noise 0.01,
dropout 0.1) are scored through the CLI against their clean ground truth, once
at an IoU threshold on the mAP grid (0.5) and once off it (0.3). The pinned
reports live in ``tests/golden/eval/iou_<threshold>/``. Regenerate them with
``PYTHONPATH=src python tests/test_golden_eval.py`` only when the output is
meant to change, and record why in CHANGES.md.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from dragonwatch import evaluation
from dragonwatch.behaviour import BehaviourKind
from dragonwatch.cli import main
from dragonwatch.ingest import parse_detection_log
from dragonwatch.synth import Scenario, generate

from helpers import write_ground_truth

GOLDEN_DIR = Path(__file__).parent / "golden" / "eval"
REPORTS = ("eval_report.json", "eval_report.txt")
IOU_THRESHOLDS = ("0.5", "0.3")


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

    def counting(ranked, gts_by_image, iou_threshold):
        thresholds.append(iou_threshold)
        return original(ranked, gts_by_image, iou_threshold)

    monkeypatch.setattr(evaluation, "match_ranked", counting)
    run_evaluate(inputs, iou, tmp_path)
    assert len(thresholds) == matcher_calls
    assert len(set(thresholds)) == matcher_calls // 3


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        generated = write_inputs(Path(scratch))
        for threshold in IOU_THRESHOLDS:
            run_evaluate(generated, threshold, GOLDEN_DIR / f"iou_{threshold}")
