"""Detection-quality metrics: precision, recall, F1, AP, mAP, confusion matrix.

Predictions and ground truth are :class:`Boxes`, one row per box. Matching is
class-wise and greedy in descending confidence: each prediction takes the
unmatched ground truth with the highest IoU at or above the threshold. As in
COCO's evaluator, ``evaluate`` computes each same-image IoU once and keeps
only the pairs with IoU > 0: every threshold lies in (0, 1], so no other pair
can match. It ranks the predictions once and matches each class once per
distinct IoU threshold: the ten mAP thresholds, plus the reporting threshold
when it is off that grid. Every figure derives from those matches. The
confusion matrix sorts the batch's pairs once: pairs from different images
share no box, so one sort makes the same greedy choices as one per image.
AP integrates the monotone precision envelope at 101 evenly spaced recall
points; mAP averages over the classes that actually appear in the ground
truth. mAP@0.5:0.95 averages over IoU thresholds 0.50 to 0.95 in steps of
0.05. Degenerate ratios (0/0) are defined as 0 throughout.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache, reduce
from itertools import accumulate, compress, count, groupby, repeat
from operator import add, itemgetter
from typing import Iterable, Mapping, Sequence

from .model import ClassLabel, Corners, Record, Timeline, iou, sequential_sum, to_pixels

__all__ = [
    "Boxes",
    "ConfusionMatrix",
    "ClassMetrics",
    "EvalReport",
    "MAP_IOU_THRESHOLDS",
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
# 0, 0.01, ..., 1 as numpy's linspace makes them: i * 0.01, then an exact 1.0
_RECALL_SAMPLES = (*(i * 0.01 for i in range(100)), 1.0)
_BACKGROUND = len(ClassLabel)


class Boxes(Record):
    """Predicted or ground-truth boxes as parallel columns: row ``i`` is one box.

    ``image`` keys the image a box lies in (clip stem and frame), ``label``
    holds its class, ``corners`` its pixel corners ``(x_min, y_min, x_max,
    y_max)`` and ``conf`` its confidence (1.0 for ground truth).
    """

    __slots__ = ("image", "label", "corners", "conf")
    image: list[str]
    label: list[ClassLabel]
    corners: list[Corners]
    conf: list[float]

    def __len__(self) -> int:
        return len(self.image)


def records_from_timeline(pairs: Iterable[tuple[str, Timeline]]) -> Boxes:
    """The boxes of every ``(stem, timeline)`` pair, keyed ``"stem:frame"``, corners in pixels.

    Each timeline's rows come class by class, each class's rows in timeline
    order, so each image's rows run by class, then by descending confidence.
    """
    boxes = Boxes([], [], [], [])
    for stem, timeline in pairs:
        geom = repeat(timeline.geometry)
        for label, columns in timeline.by_class.items():
            boxes.image.extend(f"{stem}:{frame}" for frame in columns.frame)
            boxes.label.extend(repeat(label, len(columns)))
            boxes.corners.extend(map(to_pixels, columns.cx, columns.cy, columns.w, columns.h, geom))
            boxes.conf.extend(columns.conf)
    return boxes


def precision_recall_f1(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision, recall and F1 from counts; 0/0 ratios are 0 by convention."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def _overlaps(preds: Boxes, gts: Boxes) -> list[list[tuple[int, float]]]:
    """Per prediction row, the ``(ground-truth row, IoU)`` pairs of its image with IoU > 0."""
    rows_by_image: dict[str, list[int]] = {}
    for row, image in enumerate(gts.image):
        rows_by_image.setdefault(image, []).append(row)
    return [
        [
            (row, overlap)
            for row in rows_by_image.get(image, ())
            if (overlap := iou(box, gts.corners[row])) > 0
        ]
        for image, box in zip(preds.image, preds.corners)
    ]


def match_ranked(
    candidates: Sequence[Sequence[tuple[int, float]]], iou_threshold: float
) -> list[int]:
    """Greedy matching of one class's predictions, in descending confidence.

    ``candidates`` holds, per prediction in matching order, the
    ``(ground-truth row, IoU)`` pairs it may take, in row order. Each
    prediction in turn takes the untaken ground truth with the highest
    IoU >= threshold, the lowest row winning IoU ties. Returns, per
    prediction, the row it took, or -1 for a false positive.
    """
    taken: set[int] = set()
    matched = []
    for pairs in candidates:
        best_row = -1
        best_iou = 0.0
        for row, overlap in pairs:
            if overlap >= iou_threshold and overlap > best_iou and row not in taken:
                best_row, best_iou = row, overlap
        if best_row >= 0:
            taken.add(best_row)
        matched.append(best_row)
    return matched


def _mean_of_101(values: Sequence[float]) -> float:
    """Mean of 101 floats, summed in the pairwise order of numpy's ``mean``."""
    # The pinned AP outputs depend on this order, which a sequential sum does not keep:
    # eight strided lanes over the first 96 values, folded pairwise, then the last 5.
    r = [reduce(add, values[lane:96:8]) for lane in range(8)]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return reduce(add, values[96:], total) / 101


@lru_cache(maxsize=256)
def _sample_reader(ground_truths: int) -> itemgetter:
    """Per recall sample, the index of the first true positive whose recall reaches it."""
    recall = [hits / ground_truths for hits in range(1, ground_truths + 1)]
    return itemgetter(*(bisect_left(recall, r) for r in _RECALL_SAMPLES))


def average_precision(tags: Sequence[bool], ground_truths: int) -> float | None:
    """101-point interpolated AP of one class from its TP tags in matching order.

    None when the class has no ground truth (undefined); 0.0 when it has
    ground truth but no true positive.
    """
    if not ground_truths:
        return None
    # only a true positive raises precision, so the envelope needs no other rank
    precision = [hits / rank for hits, rank in enumerate(compress(count(1), tags), 1)]
    envelope = [*accumulate(reversed(precision), max)][::-1]
    envelope += [0.0] * (ground_truths - len(envelope))
    return _mean_of_101(_sample_reader(ground_truths)(envelope))


def _mean_defined(values: Iterable[float | None]) -> float | None:
    defined = [v for v in values if v is not None]
    return sequential_sum(defined) / len(defined) if defined else None


def mean_ap(class_aps: Mapping[ClassLabel, float | None]) -> float | None:
    """Mean AP over classes that have a defined AP; None when none do."""
    return _mean_defined(class_aps.values())


def _f1_sweep(
    tagged: list[tuple[float, bool]], total_gts: int
) -> tuple[float, float | None, float | None]:
    """P/R/F1 at every distinct confidence cut over pooled (confidence, TP) pairs.

    Returns the maximum F1, the cut reaching it (lowest on ties) and the
    lowest cut at which precision reaches 1.0, if any.
    """
    best_f1 = 0.0
    best_conf: float | None = None
    full_precision: float | None = None
    tp = seen = 0
    # confidences in descending order, one group per distinct cut
    for cut, group in groupby(sorted(tagged, key=itemgetter(0), reverse=True), itemgetter(0)):
        tags = [tag for _, tag in group]
        tp += sum(tags)
        seen += len(tags)
        precision, _, f1 = precision_recall_f1(tp, seen - tp, total_gts - tp)
        if best_conf is None or f1 >= best_f1:
            best_f1, best_conf = f1, cut
        if precision == 1.0:
            full_precision = cut
    return best_f1, best_conf, full_precision


class ConfusionMatrix(Record):
    """Column-normalised confusion over the classes plus a background bucket.

    Rows are predicted classes, columns ground-truth classes; each column
    sums to 1 unless that class never appears. ``counts`` keeps the raw
    tallies.
    """

    __slots__ = ("order", "counts", "normalized")
    order: tuple[str, ...]
    counts: tuple[tuple[float, ...], ...]
    normalized: tuple[tuple[float, ...], ...]


def confusion_matrix(
    preds: Boxes,
    gts: Boxes,
    overlaps: Sequence[Sequence[tuple[int, float]]],
    confidence_threshold: float,
    iou_threshold: float,
) -> ConfusionMatrix:
    """Cross-class confusion with a background row and column.

    ``overlaps`` holds, per prediction row, the ``(ground-truth row, IoU)``
    pairs of its image with IoU > 0. Predictions below the confidence
    threshold are dropped. Pairs at IoU >= threshold are matched greedily by
    descending IoU regardless of class, then by prediction row and
    ground-truth row. Unmatched predictions land in the background column,
    unmatched ground truths in the background row.
    """
    free_pred = [conf >= confidence_threshold for conf in preds.conf]
    free_gt = [True] * len(gts)
    pairs = sorted(
        (-overlap, p, g)
        for p in compress(range(len(preds)), free_pred)
        for g, overlap in overlaps[p]
        if overlap >= iou_threshold
    )
    counts = [[0.0] * (_BACKGROUND + 1) for _ in range(_BACKGROUND + 1)]
    for _, p, g in pairs:
        if free_pred[p] and free_gt[g]:
            free_pred[p] = free_gt[g] = False
            counts[preds.label[p]][gts.label[g]] += 1
    for label in compress(preds.label, free_pred):
        counts[label][_BACKGROUND] += 1
    for label in compress(gts.label, free_gt):
        counts[_BACKGROUND][label] += 1
    col_sums = [sum(column) for column in zip(*counts)]
    normalized = [tuple(c / t if t else 0.0 for c, t in zip(row, col_sums)) for row in counts]
    order = tuple(label.display_name for label in ClassLabel) + ("background",)
    return ConfusionMatrix(order, tuple(map(tuple, counts)), tuple(normalized))


class ClassMetrics(Record):
    __slots__ = ("ground_truths", "predictions", "precision", "recall", "f1", "ap_50", "ap_range")
    ground_truths: int
    predictions: int
    precision: float
    recall: float
    f1: float
    ap_50: float | None
    ap_range: float | None


class EvalReport(Record):
    """Full evaluation: per-class metrics, aggregates and the confusion matrix."""

    __slots__ = (
        "iou_threshold", "confusion_confidence", "per_class", "map_50", "map_range",
        "max_f1", "max_f1_confidence", "full_precision_confidence", "confusion",
    )
    iou_threshold: float
    confusion_confidence: float
    per_class: dict[ClassLabel, ClassMetrics]  # the class is the key, not a field
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
                label.display_name: {
                    "ground_truths": metrics.ground_truths,
                    "predictions": metrics.predictions,
                    "precision": metrics.precision,
                    "recall": metrics.recall,
                    "f1": metrics.f1,
                    "ap_50": metrics.ap_50,
                    "ap_50_95": metrics.ap_range,
                }
                for label, metrics in self.per_class.items()
            },
            "map_50": self.map_50,
            "map_50_95": self.map_range,
            "max_f1": self.max_f1,
            "max_f1_confidence": self.max_f1_confidence,
            "precision_at_full_confidence": self.full_precision_confidence,
            "confusion_matrix": {
                "order": list(self.confusion.order),
                "columns_are_ground_truth": True,
                "normalized": [list(row) for row in self.confusion.normalized],
                "counts": [list(row) for row in self.confusion.counts],
            },
        }

    def to_table(self) -> str:
        def fmt(value: float | None) -> str:
            return "–" if value is None else f"{value:.3f}"

        rows = [f"{'Class':<15} {'P':>7} {'R':>7} {'F1':>7} {'mAP@0.5':>9} {'mAP@0.5:0.95':>13}"]
        for label, metrics in self.per_class.items():
            rows.append(
                f"{label.display_name:<15} {metrics.precision:>7.3f}"
                f" {metrics.recall:>7.3f} {metrics.f1:>7.3f}"
                f" {fmt(metrics.ap_50):>9} {fmt(metrics.ap_range):>13}"
            )
        with_gt = [m for m in self.per_class.values() if m.ground_truths > 0]
        if with_gt:
            mp = sequential_sum(m.precision for m in with_gt) / len(with_gt)
            mr = sequential_sum(m.recall for m in with_gt) / len(with_gt)
            mf = sequential_sum(m.f1 for m in with_gt) / len(with_gt)
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
    preds: Boxes,
    gts: Boxes,
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
    overlaps = _overlaps(preds, gts)
    ranked = sorted(range(len(preds)), key=preds.conf.__getitem__, reverse=True)  # stable on ties
    per_class: dict[ClassLabel, ClassMetrics] = {}
    # aps[threshold][label]; inner dicts fill in ClassLabel order
    aps: dict[float, dict[ClassLabel, float | None]] = {t: {} for t in thresholds}
    pooled: list[tuple[float, bool]] = []
    for label in ClassLabel:
        mine = [p for p in ranked if preds.label[p] == label]
        candidates = [[pair for pair in overlaps[p] if gts.label[pair[0]] == label] for p in mine]
        ground_truths = gts.label.count(label)
        tags = {t: [g >= 0 for g in match_ranked(candidates, t)] for t in thresholds}
        for t, t_tags in tags.items():
            aps[t][label] = average_precision(t_tags, ground_truths)
        tp = sum(tags[iou_threshold])
        precision, recall, f1 = precision_recall_f1(tp, len(mine) - tp, ground_truths - tp)
        per_class[label] = ClassMetrics(
            ground_truths=ground_truths,
            predictions=len(mine),
            precision=precision,
            recall=recall,
            f1=f1,
            ap_50=aps[0.5][label],
            ap_range=_mean_defined(aps[t][label] for t in MAP_IOU_THRESHOLDS),
        )
        pooled.extend(zip(map(preds.conf.__getitem__, mine), tags[iou_threshold]))
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
        confusion=confusion_matrix(preds, gts, overlaps, confusion_confidence, iou_threshold),
    )
