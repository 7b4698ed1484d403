"""Detection-quality metrics: precision, recall, F1, AP, mAP, confusion matrix.

Matching is class-wise and greedy in descending confidence: each prediction
takes the unmatched ground truth with the highest IoU at or above the
threshold. ``evaluate`` ranks each class's predictions once and matches them
once per distinct IoU threshold: the ten mAP thresholds, plus the reporting
threshold when it is off that grid. Every figure derives from those matches.
AP integrates the monotone precision envelope at 101 evenly spaced recall
points; mAP averages over the classes that actually appear in the ground
truth. mAP@0.5:0.95 averages over IoU thresholds 0.50 to 0.95 in steps of
0.05. Degenerate ratios (0/0) are defined as 0 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .model import ClassLabel, PixelBox, Timeline, iou, to_pixels

__all__ = [
    "BoxRecord",
    "ConfusionMatrix",
    "ClassMetrics",
    "EvalReport",
    "MAP_IOU_THRESHOLDS",
    "rank_by_confidence",
    "match_ranked",
    "precision_recall_f1",
    "average_precision",
    "mean_ap",
    "confusion_matrix",
    "check_thresholds",
    "evaluate",
    "records_from_timeline",
]

MAP_IOU_THRESHOLDS: tuple[float, ...] = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
_RECALL_SAMPLES = np.linspace(0.0, 1.0, 101)
_BACKGROUND = len(ClassLabel)


@dataclass(frozen=True)
class BoxRecord:
    """One predicted or ground-truth box, keyed by image (clip stem + frame)."""

    image: str | int
    label: ClassLabel
    box: PixelBox
    confidence: float = 1.0


def records_from_timeline(
    timeline: Timeline, prefix: str | None = None
) -> list[BoxRecord]:
    """Flatten a Timeline into evaluation records, boxes in pixel space."""
    geom = timeline.geometry
    records = []
    for det in timeline.all_detections():
        image = det.frame if prefix is None else f"{prefix}:{det.frame}"
        records.append(BoxRecord(image, det.label, to_pixels(det.box, geom), det.confidence))
    return records


def precision_recall_f1(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision, recall and F1 from counts; 0/0 ratios are 0 by convention."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def _group_by_image(records: Sequence[BoxRecord]) -> dict[str | int, list[BoxRecord]]:
    groups: dict[str | int, list[BoxRecord]] = {}
    for rec in records:
        groups.setdefault(rec.image, []).append(rec)
    return groups


def rank_by_confidence(preds: Sequence[BoxRecord]) -> list[BoxRecord]:
    """Predictions in descending confidence, stable on ties: the matching order."""
    return sorted(preds, key=lambda r: -r.confidence)


def match_ranked(
    ranked: Sequence[BoxRecord],
    gts_by_image: Mapping[str | int, Sequence[BoxRecord]],
    iou_threshold: float,
) -> np.ndarray:
    """Greedy matching of one class's predictions, in ``rank_by_confidence`` order.

    Each prediction in turn takes the unmatched ground truth of its image
    with the highest IoU >= threshold, the lowest index winning IoU ties.
    Returns, per prediction, the index of the ground truth it took within
    ``gts_by_image[image]``, or -1 for a false positive.
    """
    taken: dict[str | int, list[bool]] = {
        image: [False] * len(gts) for image, gts in gts_by_image.items()
    }
    matched = np.full(len(ranked), -1)
    for i, pred in enumerate(ranked):
        gts = gts_by_image.get(pred.image, [])
        flags = taken.get(pred.image, [])
        best_j = None
        best_iou = 0.0
        for j, gt in enumerate(gts):
            if flags[j]:
                continue
            overlap = iou(pred.box, gt.box)
            if overlap >= iou_threshold and overlap > best_iou:
                best_j, best_iou = j, overlap
        if best_j is not None:
            flags[best_j] = True
            matched[i] = best_j
    return matched


def _ap_from_tags(tags: np.ndarray, ground_truths: int) -> float | None:
    """101-point interpolated AP from TP tags in matching order."""
    if not ground_truths:
        return None
    if not len(tags):
        return 0.0
    tp = np.cumsum(tags)
    fp = np.cumsum(~tags)
    precision = tp / (tp + fp)
    recall = tp / ground_truths
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(recall, _RECALL_SAMPLES, side="left")
    sampled = np.where(idx < len(envelope), envelope[np.minimum(idx, len(envelope) - 1)], 0.0)
    return float(sampled.mean())


def average_precision(
    preds: Sequence[BoxRecord],
    gts: Sequence[BoxRecord],
    iou_threshold: float,
) -> float | None:
    """101-point interpolated AP for one class across the dataset.

    None when the class has no ground truth (undefined); 0.0 when it has
    ground truth but no predictions.
    """
    matched = match_ranked(rank_by_confidence(preds), _group_by_image(gts), iou_threshold)
    return _ap_from_tags(matched >= 0, len(gts))


def _mean_defined(values: Iterable[float | None]) -> float | None:
    defined = [v for v in values if v is not None]
    return sum(defined) / len(defined) if defined else None


def mean_ap(class_aps: Mapping[ClassLabel, float | None]) -> float | None:
    """Mean AP over classes that have a defined AP; None when none do."""
    return _mean_defined(class_aps.values())


def _split_by_class(
    records: Sequence[BoxRecord],
) -> dict[ClassLabel, list[BoxRecord]]:
    split: dict[ClassLabel, list[BoxRecord]] = {label: [] for label in ClassLabel}
    for rec in records:
        split[rec.label].append(rec)
    return split


def _f1_sweep(
    tagged: list[tuple[float, bool]], total_gts: int
) -> tuple[float, float | None, float | None]:
    """P/R/F1 at every distinct confidence cut over pooled (confidence, TP) pairs.

    Returns the maximum F1, the cut reaching it (lowest on ties) and the
    lowest cut at which precision reaches 1.0, if any.
    """
    if not tagged:
        return 0.0, None, None
    tagged = sorted(tagged, key=lambda pair: -pair[0])
    cuts = sorted({conf for conf, _ in tagged}, reverse=True)
    best_f1 = 0.0
    best_conf: float | None = None
    full_precision: float | None = None
    tp = fp = 0
    i = 0
    for cut in cuts:
        while i < len(tagged) and tagged[i][0] >= cut:
            if tagged[i][1]:
                tp += 1
            else:
                fp += 1
            i += 1
        precision, _, f1 = precision_recall_f1(tp, fp, total_gts - tp)
        if best_conf is None or f1 >= best_f1:
            best_f1, best_conf = f1, cut
        if precision == 1.0:
            full_precision = cut
    return best_f1, best_conf, full_precision


@dataclass(frozen=True)
class ConfusionMatrix:
    """Column-normalised confusion over the classes plus a background bucket.

    Rows are predicted classes, columns ground-truth classes; each column
    sums to 1 unless that class never appears. ``counts`` keeps the raw
    tallies.
    """

    order: tuple[str, ...]
    counts: np.ndarray
    normalized: np.ndarray

    def __eq__(self, other: object) -> bool:  # ndarray fields need explicit eq
        if not isinstance(other, ConfusionMatrix):
            return NotImplemented
        return (
            self.order == other.order
            and np.array_equal(self.counts, other.counts)
            and np.array_equal(self.normalized, other.normalized)
        )


def confusion_matrix(
    preds: Sequence[BoxRecord],
    gts: Sequence[BoxRecord],
    confidence_threshold: float,
    iou_threshold: float,
) -> ConfusionMatrix:
    """Cross-class confusion with a background row and column.

    Predictions below the confidence threshold are dropped. Within each
    image, candidate pairs at IoU >= threshold are matched greedily by
    descending IoU regardless of class. Unmatched predictions land in the
    background column, unmatched ground truths in the background row.
    """
    kept = [p for p in preds if p.confidence >= confidence_threshold]
    n = len(ClassLabel)
    counts = np.zeros((n + 1, n + 1), dtype=float)
    preds_by_image = _group_by_image(kept)
    gts_by_image = _group_by_image(gts)
    for image in sorted(set(preds_by_image) | set(gts_by_image), key=str):
        ipreds = preds_by_image.get(image, [])
        igts = gts_by_image.get(image, [])
        pairs = []
        for pi, pred in enumerate(ipreds):
            for gi, gt in enumerate(igts):
                overlap = iou(pred.box, gt.box)
                if overlap >= iou_threshold:
                    pairs.append((-overlap, pi, gi))
        pairs.sort()
        matched_p: set[int] = set()
        matched_g: set[int] = set()
        for _, pi, gi in pairs:
            if pi in matched_p or gi in matched_g:
                continue
            matched_p.add(pi)
            matched_g.add(gi)
            counts[int(ipreds[pi].label), int(igts[gi].label)] += 1
        for pi, pred in enumerate(ipreds):
            if pi not in matched_p:
                counts[int(pred.label), _BACKGROUND] += 1
        for gi, gt in enumerate(igts):
            if gi not in matched_g:
                counts[_BACKGROUND, int(gt.label)] += 1
    col_sums = counts.sum(axis=0)
    normalized = np.divide(
        counts, col_sums, out=np.zeros_like(counts), where=col_sums > 0
    )
    order = tuple(label.display_name for label in ClassLabel) + ("background",)
    return ConfusionMatrix(order=order, counts=counts, normalized=normalized)


@dataclass(frozen=True)
class ClassMetrics:
    label: ClassLabel
    ground_truths: int
    predictions: int
    precision: float
    recall: float
    f1: float
    ap_50: float | None
    ap_range: float | None


@dataclass(frozen=True)
class EvalReport:
    """Full evaluation: per-class metrics, aggregates and the confusion matrix."""

    iou_threshold: float
    confusion_confidence: float
    per_class: dict[ClassLabel, ClassMetrics]
    map_50: float | None
    map_range: float | None
    max_f1: float
    max_f1_confidence: float | None
    full_precision_confidence: float | None
    confusion: ConfusionMatrix

    def to_json_dict(self) -> dict:
        return {
            "settings": {
                "iou_threshold": self.iou_threshold,
                "confusion_confidence_threshold": self.confusion_confidence,
                "map_iou_thresholds": list(MAP_IOU_THRESHOLDS),
            },
            "classes": {
                metrics.label.display_name: {
                    "ground_truths": metrics.ground_truths,
                    "predictions": metrics.predictions,
                    "precision": metrics.precision,
                    "recall": metrics.recall,
                    "f1": metrics.f1,
                    "ap_50": metrics.ap_50,
                    "ap_50_95": metrics.ap_range,
                }
                for metrics in self.per_class.values()
            },
            "map_50": self.map_50,
            "map_50_95": self.map_range,
            "max_f1": self.max_f1,
            "max_f1_confidence": self.max_f1_confidence,
            "precision_at_full_confidence": self.full_precision_confidence,
            "confusion_matrix": {
                "order": list(self.confusion.order),
                "columns_are_ground_truth": True,
                "normalized": [[float(v) for v in row] for row in self.confusion.normalized],
                "counts": [[float(v) for v in row] for row in self.confusion.counts],
            },
        }

    def to_table(self) -> str:
        def fmt(value: float | None) -> str:
            return "–" if value is None else f"{value:.3f}"

        rows = [f"{'Class':<15} {'P':>7} {'R':>7} {'F1':>7} {'mAP@0.5':>9} {'mAP@0.5:0.95':>13}"]
        for metrics in self.per_class.values():
            rows.append(
                f"{metrics.label.display_name:<15} {metrics.precision:>7.3f}"
                f" {metrics.recall:>7.3f} {metrics.f1:>7.3f}"
                f" {fmt(metrics.ap_50):>9} {fmt(metrics.ap_range):>13}"
            )
        with_gt = [m for m in self.per_class.values() if m.ground_truths > 0]
        if with_gt:
            mp = sum(m.precision for m in with_gt) / len(with_gt)
            mr = sum(m.recall for m in with_gt) / len(with_gt)
            mf = sum(m.f1 for m in with_gt) / len(with_gt)
            rows.append(
                f"{'All':<15} {mp:>7.3f} {mr:>7.3f} {mf:>7.3f}"
                f" {fmt(self.map_50):>9} {fmt(self.map_range):>13}"
            )
        rows.append("")
        rows.append(f"{'Metric':<20} {'Peak':>7} {'Confidence':>12}")
        rows.append(
            f"{'Max F1':<20} {self.max_f1:>7.3f} {fmt(self.max_f1_confidence):>12}"
        )
        peak = "–" if self.full_precision_confidence is None else f"{1.0:.3f}"
        rows.append(
            f"{'Precision at 100%':<20} {peak:>7} {fmt(self.full_precision_confidence):>12}"
        )
        return "\n".join(rows) + "\n"


def check_thresholds(iou_threshold: float, confusion_confidence: float) -> None:
    """Raise ValueError for an IoU threshold outside (0, 1] or a confidence outside [0, 1]."""
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"IoU threshold must be in (0, 1], got {iou_threshold}")
    if not 0.0 <= confusion_confidence <= 1.0:
        raise ValueError(f"confusion confidence must be in [0, 1], got {confusion_confidence}")


def evaluate(
    preds: Sequence[BoxRecord],
    gts: Sequence[BoxRecord],
    iou_threshold: float = 0.5,
    confusion_confidence: float = 0.25,
) -> EvalReport:
    """Evaluate a prediction set against ground truth at one IoU threshold.

    Per-class precision/recall/F1 use all predictions (no confidence cut);
    threshold-swept figures are reported separately by the F1 sweep. Each
    class is matched once per distinct threshold in ``MAP_IOU_THRESHOLDS``
    and ``iou_threshold``. Out-of-range thresholds raise ValueError, see
    :func:`check_thresholds`.
    """
    check_thresholds(iou_threshold, confusion_confidence)
    thresholds = dict.fromkeys((*MAP_IOU_THRESHOLDS, iou_threshold))
    preds_by_class = _split_by_class(preds)
    gts_by_class = _split_by_class(gts)
    per_class: dict[ClassLabel, ClassMetrics] = {}
    # aps[threshold][label]; inner dicts fill in ClassLabel order
    aps: dict[float, dict[ClassLabel, float | None]] = {t: {} for t in thresholds}
    pooled: list[tuple[float, bool]] = []
    for label in ClassLabel:
        ranked = rank_by_confidence(preds_by_class[label])
        cls_gts = gts_by_class[label]
        gts_by_image = _group_by_image(cls_gts)
        tags = {t: match_ranked(ranked, gts_by_image, t) >= 0 for t in thresholds}
        for t, t_tags in tags.items():
            aps[t][label] = _ap_from_tags(t_tags, len(cls_gts))
        tp = int(tags[iou_threshold].sum())
        precision, recall, f1 = precision_recall_f1(tp, len(ranked) - tp, len(cls_gts) - tp)
        per_class[label] = ClassMetrics(
            label=label,
            ground_truths=len(cls_gts),
            predictions=len(ranked),
            precision=precision,
            recall=recall,
            f1=f1,
            ap_50=aps[0.5][label],
            ap_range=_mean_defined(aps[t][label] for t in MAP_IOU_THRESHOLDS),
        )
        pooled.extend((rec.confidence, bool(tag)) for rec, tag in zip(ranked, tags[iou_threshold]))
    max_f1, max_f1_confidence, full_precision_confidence = _f1_sweep(pooled, len(gts))
    return EvalReport(
        iou_threshold=iou_threshold,
        confusion_confidence=confusion_confidence,
        per_class=per_class,
        map_50=mean_ap(aps[0.5]),
        map_range=_mean_defined(mean_ap(aps[t]) for t in MAP_IOU_THRESHOLDS),
        max_f1=max_f1,
        max_f1_confidence=max_f1_confidence,
        full_precision_confidence=full_precision_confidence,
        confusion=confusion_matrix(preds, gts, confusion_confidence, iou_threshold),
    )
