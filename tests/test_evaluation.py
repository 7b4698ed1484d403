import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dragonwatch import evaluation
from dragonwatch.evaluation import (
    MAP_IOU_THRESHOLDS,
    Boxes,
    average_precision,
    evaluate,
    match_ranked,
    mean_ap,
    precision_recall_f1,
    records_from_timeline,
)
from dragonwatch.ingest import parse_detection_log
from dragonwatch.model import ClassLabel, Corners, iou

from helpers import BoxRow, boxes_of, corner_box, reference_evaluate

DRAGON = ClassLabel.BEARDED_DRAGON
LAMP = ClassLabel.HEATING_LAMP
CRICKET = ClassLabel.CRICKET


def pred(image, label, box, conf):
    return BoxRow(image, label, box, conf)


def gt(image, label, box):
    return BoxRow(image, label, box)


def run(preds, gts, *thresholds):
    """``evaluate`` on test rows; ``thresholds`` are its IoU threshold and confusion cut."""
    return evaluate(boxes_of(preds), boxes_of(gts), *thresholds)


def box_at(x, y, size=10.0):
    return corner_box(x, y, x + size, y + size)


def box_with_iou(base: Corners, target_iou: float) -> Corners:
    """A box nested inside ``base`` sharing its top-left corner with the given IoU."""
    # shrinking only the height keeps intersection == pred area, union == base area
    x_min, y_min, x_max, y_max = base
    return corner_box(x_min, y_min, x_max, y_min + (y_max - y_min) * target_iou)


def ranked_matches(preds, gts, iou_threshold):
    """One class's test rows ranked by descending confidence and matched by ``match_ranked``.

    The candidates are built with ``iou``, zero overlaps included. Returns
    the ranked predictions and, per prediction, the index of the ground
    truth it took, or -1.
    """
    ranked = sorted(preds, key=lambda p: -p.conf)
    candidates = [
        [(j, iou(p.corners, g.corners)) for j, g in enumerate(gts) if g.image == p.image]
        for p in ranked
    ]
    return ranked, match_ranked(candidates, iou_threshold)


def class_ap(preds, gts, iou_threshold):
    """AP of one class's test rows, from ``ranked_matches`` and ``average_precision``."""
    _, matched = ranked_matches(preds, gts, iou_threshold)
    return average_precision([g >= 0 for g in matched], len(gts))


def match_one_image(pred_boxes, confidences, gt_boxes, iou_threshold):
    """Match one image's predictions of one class.

    Returns ``(confidence, gt index)`` per prediction in matching order (gt
    index -1 for a false positive) and the (tp, fp, fn) counts.
    """
    ranked, matched = ranked_matches(
        [pred(0, DRAGON, b, c) for b, c in zip(pred_boxes, confidences)],
        [gt(0, DRAGON, b) for b in gt_boxes],
        iou_threshold,
    )
    taken = [g for g in matched if g >= 0]
    assert len(set(taken)) == len(taken)  # no ground truth is taken twice
    pairs = [(p.conf, g) for p, g in zip(ranked, matched)]
    tp = len(taken)
    return pairs, (tp, len(ranked) - tp, len(gt_boxes) - tp)


class TestMatch:
    def test_perfect_single(self):
        b = box_at(0, 0)
        _, counts = match_one_image([b], [0.9], [b], 0.5)
        assert counts == (1, 0, 0)

    def test_prediction_without_ground_truth(self):
        _, counts = match_one_image([box_at(0, 0)], [0.9], [], 0.5)
        assert counts == (0, 1, 0)

    def test_ground_truth_without_prediction(self):
        _, counts = match_one_image([], [], [box_at(0, 0)], 0.5)
        assert counts == (0, 0, 1)

    def test_confidence_order_wins_over_iou(self):
        base = box_at(0, 0)
        high_conf = box_with_iou(base, 0.6)
        better_iou = box_with_iou(base, 0.7)
        pairs, counts = match_one_image([high_conf, better_iou], [0.9, 0.8], [base], 0.5)
        assert pairs == [(0.9, 0), (0.8, -1)]  # 0.9 pred takes the gt, 0.8 is FP
        assert counts == (1, 1, 0)

    def test_below_threshold_is_fp(self):
        base = box_at(0, 0)
        _, counts = match_one_image([box_with_iou(base, 0.4)], [0.9], [base], 0.5)
        assert counts == (0, 1, 1)

    def test_each_gt_used_once(self):
        base = box_at(0, 0)
        pairs, counts = match_one_image([base, base], [0.9, 0.8], [base], 0.5)
        assert pairs == [(0.9, 0), (0.8, -1)]
        assert counts == (1, 1, 0)

    def test_iou_tie_goes_to_lowest_gt_index(self):
        base = box_at(0, 0)
        pairs, counts = match_one_image([base], [0.9], [base, base], 0.5)
        assert pairs == [(0.9, 0)]
        assert counts == (1, 0, 1)

    def test_deterministic_under_shuffle_with_distinct_confidences(self):
        # evaluate ranks the rows itself: a shuffled batch gives the same report
        rng = random.Random(3)
        base_boxes = [box_at(20 * i, 0) for i in range(5)]
        gts = [gt(0, DRAGON, b) for b in base_boxes]
        preds = [
            pred(0, DRAGON, box_with_iou(b, 0.6 + 0.05 * i), conf)
            for i, (b, conf) in enumerate(zip(base_boxes, [0.9, 0.8, 0.7, 0.6, 0.5]))
        ]
        preds.append(pred(0, DRAGON, box_with_iou(base_boxes[2], 0.9), 0.75))
        reference = run(preds, gts, 0.5).to_json_dict()
        for _ in range(10):
            rng.shuffle(preds)
            assert run(preds, gts, 0.5).to_json_dict() == reference


def test_each_same_image_pair_overlaps_once(monkeypatch):
    # several images and classes, tied confidences, wrong-class and far-off predictions
    rng = random.Random(11)
    preds, gts = [], []
    for image in range(4):
        for label in ClassLabel:
            for i in range(1 + rng.randrange(3)):
                base = box_at(12 * i, 15 * int(label))
                gts.append(gt(image, label, base))
                if rng.random() < 0.8:
                    box = box_with_iou(base, rng.uniform(0.3, 1.0))
                    pred_label = rng.choice(list(ClassLabel))
                    preds.append(pred(image, pred_label, box, rng.choice((0.4, 0.7))))
        preds.append(pred(image, DRAGON, box_at(500, 500), 0.7))
    assert len({(p.label, p.conf) for p in preds}) < len(preds)
    calls = []
    original = evaluation.iou

    def counting(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(evaluation, "iou", counting)
    run(preds, gts, 0.5, 0.25)
    assert len(calls) == sum(p.image == g.image for p in preds for g in gts)


class TestPrecisionRecallF1:
    def test_perfect(self):
        assert precision_recall_f1(1, 0, 0) == (1.0, 1.0, 1.0)

    def test_degenerate_zero_convention(self):
        assert precision_recall_f1(0, 3, 2) == (0.0, 0.0, 0.0)
        assert precision_recall_f1(0, 0, 0) == (0.0, 0.0, 0.0)

    def test_hand_values(self):
        p, r, f1 = precision_recall_f1(1, 1, 2)
        assert p == pytest.approx(0.5)
        assert r == pytest.approx(1 / 3)
        assert f1 == pytest.approx(0.4)


class TestAveragePrecision:
    def test_all_correct(self):
        gts = [gt(0, DRAGON, box_at(0, 0)), gt(0, DRAGON, box_at(50, 0))]
        preds = [
            pred(0, DRAGON, box_at(0, 0), 0.9),
            pred(0, DRAGON, box_at(50, 0), 0.8),
        ]
        assert class_ap(preds, gts, 0.5) == 1.0
        assert run(preds, gts).per_class[DRAGON].ap_50 == 1.0

    def test_no_predictions(self):
        assert class_ap([], [gt(0, DRAGON, box_at(0, 0))], 0.5) == 0.0
        assert average_precision([], 1) == 0.0

    def test_no_ground_truth_is_undefined(self):
        assert class_ap([pred(0, DRAGON, box_at(0, 0), 0.9)], [], 0.5) is None
        assert average_precision([False], 0) is None

    def test_hand_computed_envelope(self):
        # points: (1.0, 0.5), (0.5, 0.5), (2/3, 1.0); 101-point AP = (51 + 50 * 2/3) / 101
        gts = [gt(0, DRAGON, box_at(0, 0)), gt(0, DRAGON, box_at(50, 0))]
        preds = [
            pred(0, DRAGON, box_at(0, 0), 0.9),  # TP
            pred(0, DRAGON, box_at(200, 200), 0.8),  # FP
            pred(0, DRAGON, box_at(50, 0), 0.7),  # TP
        ]
        expected = (51 * 1.0 + 50 * (2 / 3)) / 101
        assert class_ap(preds, gts, 0.5) == pytest.approx(expected, abs=1e-12)
        assert average_precision([True, False, True], 2) == class_ap(preds, gts, 0.5)
        assert run(preds, gts).per_class[DRAGON].ap_50 == class_ap(preds, gts, 0.5)
        assert expected == pytest.approx(0.8350, abs=5e-5)

    @given(
        confs=st.lists(
            st.integers(min_value=1, max_value=100).map(lambda k: k / 100),
            min_size=1,
            max_size=12,
        ),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=80)
    def test_invariant_under_monotone_confidence_transform(self, confs, seed):
        rng = random.Random(seed)
        gts = [gt(0, DRAGON, box_at(30 * i, 0)) for i in range(4)]
        preds = [
            pred(0, DRAGON, box_at(30 * rng.randrange(6), 0), c) for c in confs
        ]
        transformed = [p._replace(conf=(p.conf + 1.0) / 2.0) for p in preds]
        assert class_ap(preds, gts, 0.5) == class_ap(transformed, gts, 0.5)
        ap_50 = run(preds, gts).per_class[DRAGON].ap_50
        assert ap_50 == run(transformed, gts).per_class[DRAGON].ap_50

    @given(seed=st.integers(0, 2000))
    @settings(max_examples=60)
    def test_antitone_in_iou_threshold(self, seed):
        rng = random.Random(seed)
        base = box_at(0, 0)
        gts = [gt(i, DRAGON, base) for i in range(3)]
        preds = [
            pred(rng.randrange(3), DRAGON, box_with_iou(base, rng.uniform(0.2, 1.0)), rng.random())
            for _ in range(6)
        ]
        previous = 1.1
        for threshold in (0.3, 0.5, 0.7, 0.9):
            ap = class_ap(preds, gts, threshold)
            assert ap <= previous + 1e-12
            previous = ap


class TestMeanAp:
    def test_simple_mean(self):
        assert mean_ap({DRAGON: 0.8, LAMP: 0.4, CRICKET: None}) == pytest.approx(0.6)

    def test_all_undefined(self):
        assert mean_ap({DRAGON: None, LAMP: None, CRICKET: None}) is None

    def test_map_range_counts_passing_thresholds(self):
        base = box_at(0, 0, size=10.0)
        shrunk = box_with_iou(base, 0.72)  # passes 0.50 .. 0.70, fails 0.75 and above
        gts = [gt(0, DRAGON, base)]
        preds = [pred(0, DRAGON, shrunk, 0.9)]
        assert run(preds, gts).map_range == pytest.approx(0.5)

    def test_range_never_exceeds_single_threshold_map(self):
        rng = random.Random(5)
        for _ in range(30):
            gts, preds = [], []
            for image in range(2):
                for label in ClassLabel:
                    for i in range(rng.randrange(3)):
                        base = box_at(30 * i, 20 * int(label))
                        gts.append(gt(image, label, base))
                        if rng.random() < 0.8:
                            preds.append(
                                pred(
                                    image,
                                    label,
                                    box_with_iou(base, rng.uniform(0.3, 1.0)),
                                    rng.random(),
                                )
                            )
            aps = {
                label: class_ap(
                    [p for p in preds if p.label == label],
                    [g for g in gts if g.label == label],
                    0.5,
                )
                for label in ClassLabel
            }
            map50 = mean_ap(aps)
            report = run(preds, gts)
            assert report.map_50 == map50
            full = report.map_range
            if map50 is None:
                assert full is None
            else:
                assert full <= map50 + 1e-12


class TestF1Sweep:
    def test_all_correct_peaks_at_lowest_confidence(self):
        gts = [gt(0, DRAGON, box_at(0, 0)), gt(0, DRAGON, box_at(50, 0))]
        preds = [
            pred(0, DRAGON, box_at(0, 0), 0.9),
            pred(0, DRAGON, box_at(50, 0), 0.4),
        ]
        report = run(preds, gts, 0.5)
        assert report.max_f1 == 1.0
        assert report.max_f1_confidence == 0.4
        assert report.full_precision_confidence == 0.4

    def test_all_wrong(self):
        gts = [gt(0, DRAGON, box_at(0, 0))]
        preds = [pred(0, DRAGON, box_at(500, 500), 0.9)]
        report = run(preds, gts, 0.5)
        assert report.max_f1 == 0.0
        assert report.full_precision_confidence is None

    def test_hand_walked_cuts(self):
        # TP@0.9, FP@0.6, TP@0.5 with 2 gts: F1 by cut 2/3, 0.5, 0.8
        gts = [gt(0, DRAGON, box_at(0, 0)), gt(0, DRAGON, box_at(50, 0))]
        preds = [
            pred(0, DRAGON, box_at(0, 0), 0.9),
            pred(0, DRAGON, box_at(500, 500), 0.6),
            pred(0, DRAGON, box_at(50, 0), 0.5),
        ]
        report = run(preds, gts, 0.5)
        assert report.max_f1 == pytest.approx(0.8)
        assert report.max_f1_confidence == 0.5
        assert report.full_precision_confidence == 0.9

    def test_tied_f1_reports_lowest_cut(self):
        # F1 = 2/3 at cut 0.9 (1 TP of 1) and again at cut 0.6 (2 TP of 4)
        gts = [gt(0, DRAGON, box_at(0, 0)), gt(0, DRAGON, box_at(50, 0))]
        preds = [
            pred(0, DRAGON, box_at(0, 0), 0.9),
            pred(0, DRAGON, box_at(500, 500), 0.8),
            pred(0, DRAGON, box_at(300, 300), 0.7),
            pred(0, DRAGON, box_at(50, 0), 0.6),
        ]
        report = run(preds, gts, 0.5)
        assert report.max_f1 == pytest.approx(2 / 3)
        assert report.max_f1_confidence == 0.6

    def test_no_predictions(self):
        report = run([], [gt(0, DRAGON, box_at(0, 0))], 0.5)
        assert report.max_f1 == 0.0
        assert report.max_f1_confidence is None
        assert report.full_precision_confidence is None


def confusion(preds, gts):
    """The confusion matrix of ``evaluate`` at IoU 0.5 and confidence cut 0.25."""
    return run(preds, gts, 0.5, 0.25).confusion


class TestConfusionMatrix:
    def test_perfect_predictions_identity(self):
        gts, preds = [], []
        for image, label in enumerate(ClassLabel):
            base = box_at(0, 20 * image)
            gts.append(gt(image, label, base))
            preds.append(pred(image, label, base, 0.9))
        result = confusion(preds, gts)
        for label in ClassLabel:
            assert result.normalized[int(label)][int(label)] == 1.0
        assert sum(result.normalized[3]) == 0.0  # nothing leaks to background row

    def test_no_predictions_all_background(self):
        gts = [gt(0, DRAGON, box_at(0, 0)), gt(0, LAMP, box_at(50, 0))]
        result = confusion([], gts)
        assert result.normalized[3][int(DRAGON)] == 1.0
        assert result.normalized[3][int(LAMP)] == 1.0

    def test_cross_class_confusion_fractions(self):
        # 10 lamp gts: 4 matched by dragon-class preds, 6 by lamp-class preds
        gts, preds = [], []
        for i in range(10):
            base = box_at(0, 30 * i)
            gts.append(gt(i, LAMP, base))
            label = DRAGON if i < 4 else LAMP
            preds.append(pred(i, label, base, 0.9))
        result = confusion(preds, gts)
        lamp_col = [row[int(LAMP)] for row in result.normalized]
        assert lamp_col[int(DRAGON)] == pytest.approx(0.4)
        assert lamp_col[int(LAMP)] == pytest.approx(0.6)

    def test_low_confidence_predictions_dropped(self):
        base = box_at(0, 0)
        result = confusion([pred(0, DRAGON, base, 0.1)], [gt(0, DRAGON, base)])
        assert result.normalized[3][int(DRAGON)] == 1.0  # gt missed
        assert result.counts[int(DRAGON)][3] == 0.0  # dropped pred is not background noise

    def test_columns_sum_to_one_or_zero(self):
        rng = random.Random(9)
        gts, preds = [], []
        for image in range(4):
            for label in (DRAGON, LAMP):
                for i in range(rng.randrange(3)):
                    base = box_at(25 * i, 25 * int(label))
                    gts.append(gt(image, label, base))
                if rng.random() < 0.7:
                    preds.append(pred(image, label, box_at(rng.randrange(3) * 25, 0), rng.random()))
        result = confusion(preds, gts)
        for col in range(4):
            total = sum(row[col] for row in result.normalized)
            assert total == pytest.approx(1.0) or total == 0.0


class TestEvaluate:
    def perfect_inputs(self):
        gts, preds = [], []
        for image in range(3):
            for label in ClassLabel:
                base = box_at(40 * int(label), 40 * image)
                gts.append(gt(image, label, base))
                preds.append(pred(image, label, base, 1.0))
        return preds, gts

    def test_perfect_report(self):
        preds, gts = self.perfect_inputs()
        report = run(preds, gts)
        for metrics in report.per_class.values():
            assert metrics.precision == 1.0
            assert metrics.recall == 1.0
            assert metrics.f1 == 1.0
            assert metrics.ap_50 == 1.0
            assert metrics.ap_range == 1.0
        assert report.map_50 == 1.0
        assert report.map_range == 1.0
        assert report.max_f1 == 1.0

    def test_empty_predictions_all_zero(self):
        _, gts = self.perfect_inputs()
        report = run([], gts)
        for metrics in report.per_class.values():
            assert metrics.precision == 0.0
            assert metrics.recall == 0.0
            assert metrics.f1 == 0.0
            assert metrics.ap_50 == 0.0
            assert metrics.ap_range == 0.0
        assert report.map_50 == 0.0
        assert report.map_range == 0.0

    def test_class_without_ground_truth_excluded_from_map(self):
        gts = [gt(0, DRAGON, box_at(0, 0))]
        preds = [pred(0, DRAGON, box_at(0, 0), 0.9)]
        report = run(preds, gts)
        assert report.per_class[LAMP].ap_50 is None
        assert report.per_class[CRICKET].ap_50 is None
        assert report.map_50 == 1.0

    def test_table_renders(self):
        preds, gts = self.perfect_inputs()
        table = run(preds, gts).to_table()
        assert "BeardedDragon" in table
        assert "mAP@0.5" in table
        assert "Max F1" in table

    @pytest.mark.parametrize(
        "iou_threshold, confusion_confidence",
        [(float("nan"), 0.25), (0.0, 0.25), (5.0, 0.25), (-0.1, 0.25),
         (0.5, -0.1), (0.5, 1.5), (0.5, float("nan"))],
    )
    def test_thresholds_out_of_range_rejected(self, iou_threshold, confusion_confidence):
        preds, gts = self.perfect_inputs()
        with pytest.raises(ValueError):
            run(preds, gts, iou_threshold, confusion_confidence)

    def test_threshold_bounds_accepted(self):
        preds, gts = self.perfect_inputs()
        assert run(preds, gts, 1.0, 0.0).map_50 == 1.0

    def test_json_dict_is_serialisable(self):
        import json

        preds, gts = self.perfect_inputs()
        payload = run(preds, gts).to_json_dict()
        text = json.dumps(payload)
        assert "confusion_matrix" in text


class TestRecordsFromTimeline:
    def test_boxes_scaled_and_keyed(self):
        tl = parse_detection_log("!geometry 100 200 30 10\n2 1 0.5 0.5 0.2 0.1 0.7\n")
        boxes = records_from_timeline([("clip", tl)])
        assert len(boxes) == 1
        assert boxes.image == ["clip:2"]
        assert boxes.label == [LAMP]
        assert boxes.corners == [(40.0, 90.0, 60.0, 110.0)]
        assert boxes.conf == [0.7]

    def test_pairs_follow_one_another(self):
        first = parse_detection_log("!geometry 100 200 30 10\n4 0 0.5 0.5 0.2 0.1 0.9\n")
        second = parse_detection_log("!geometry 10 10 30 10\n1 2 0.5 0.5 0.2 0.2 0.4\n")
        boxes = records_from_timeline([("b", first), ("a", second), ("b", second)])
        assert boxes.image == ["b:4", "a:1", "b:1"]
        assert boxes.label == [DRAGON, CRICKET, CRICKET]
        small = (4.0, 4.0, 6.0, 6.0)
        assert boxes.corners == [(40.0, 90.0, 60.0, 110.0), small, small]
        assert boxes.conf == [0.9, 0.4, 0.4]
        assert records_from_timeline([]) == Boxes([], [], [], [])

    def test_each_image_keeps_the_order_class_then_confidence(self):
        rng = random.Random(4)
        rows = [
            f"{rng.randrange(6)} {rng.randrange(3)} 0.5 0.5 0.2 0.1 {rng.choice((0.3, 0.6, 0.9))}"
            for _ in range(60)
        ]
        tl = parse_detection_log("!geometry 100 200 30 6\n" + "\n".join(rows) + "\n")
        boxes = records_from_timeline([("clip", tl)])
        assert boxes.label == sorted(boxes.label)
        for image in range(6):
            mine = [
                (label, conf)
                for key, label, conf in zip(boxes.image, boxes.label, boxes.conf)
                if key == f"clip:{image}"
            ]
            assert mine == [
                (label, tl.by_class[label].conf[row])
                for label, row in tl.rows()
                if tl.by_class[label].frame[row] == image
            ]

    def test_map_iou_thresholds_are_exact(self):
        assert MAP_IOU_THRESHOLDS == (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)


IMAGES = ["a:0", "b:0", "a:1", "a:12", "b:1", "c:5"]  # three stems; ground truth in the first three
grid = st.integers(0, 2).map(lambda k: 10.0 * k)
labels = st.sampled_from(list(ClassLabel))


@st.composite
def eval_batches(draw) -> tuple[list[BoxRow], list[BoxRow], float, float]:
    """Predictions, ground truth, an IoU threshold and a confusion cut.

    Ground truths are 20 px squares on a 10 px grid, often beside a
    neighbour of the same image and class, so overlaps tie: a box halfway
    between two neighbours meets each at IoU 0.6. Most
    predictions copy one, shifted by 5 px steps or cut short by 0 to 15
    rows: IoUs such as 0.6 or (20 - k) / 20 land exactly on a threshold, and
    several predictions fall on one ground truth. Confidences tie. Images,
    classes and stems go without boxes.
    """
    gts: list[BoxRow] = []
    for x, y in draw(st.lists(st.tuples(grid, grid), max_size=8)):
        if gts and draw(st.booleans()):  # the last one's neighbour, 10 px to the right
            image, label, (x, y, _, _) = gts[-1].image, gts[-1].label, gts[-1].corners
            x += 10
        else:
            image, label = draw(st.sampled_from(IMAGES[:3])), draw(labels)
        gts.append(BoxRow(image, label, corner_box(x, y, x + 20, y + 20)))
    preds = []
    for _ in range(draw(st.integers(0, 12))):
        if gts and draw(st.integers(0, 3)):
            base = draw(st.sampled_from(gts))
            x1, y1, x2, y2 = base.corners
            dx, dy = draw(st.sampled_from([0.0, 5.0, -5.0, 10.0])), draw(st.sampled_from([0.0, 0.0, 5.0, -10.0]))
            cut = draw(st.sampled_from([0, 0, 5]) | st.integers(1, 15))
            corners = corner_box(x1 + dx, y1 + dy, x2 + dx, y2 + dy - cut)
            image = base.image if draw(st.integers(0, 5)) else draw(st.sampled_from(IMAGES))
            label = base.label if draw(st.integers(0, 3)) else draw(labels)
        else:
            x, y, size = draw(grid), draw(grid), draw(st.sampled_from([10.0, 20.0, 25.0]))
            corners, image, label = corner_box(x, y, x + size, y + size), draw(st.sampled_from(IMAGES)), draw(labels)
        conf = draw(st.sampled_from([0.25, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0))
        preds.append(BoxRow(image, label, corners, conf))
    iou_threshold = draw(
        st.sampled_from([*MAP_IOU_THRESHOLDS, 0.3, 1.0]) | st.floats(0.0, 1.0, exclude_min=True)
    )
    confusion_confidence = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0))
    return preds, gts, iou_threshold, confusion_confidence


SQUARE = box_at(0, 0, size=20.0)


class TestReferenceEvaluate:
    """``evaluate`` against the reference written from the definitions, every float bit for bit."""

    @given(batch=eval_batches())
    # one prediction between two ground truths at IoU 0.6 each: the lower row wins
    @example(
        batch=(
            [pred("a:0", DRAGON, box_at(5, 0, size=20.0), 0.9), pred("a:0", DRAGON, SQUARE, 0.9)],
            [gt("a:0", DRAGON, box_at(10, 0, size=20.0)), gt("a:0", DRAGON, SQUARE)],
            0.6,
            0.25,
        )
    )
    # IoUs exactly 0.5, 0.75 and 0.95 of one ground truth, one FP ranked first
    @example(
        batch=(
            [
                pred("a:0", LAMP, box_with_iou(SQUARE, 0.5), 0.9),
                pred("a:0", LAMP, box_with_iou(SQUARE, 0.75), 0.5),
                pred("a:1", LAMP, box_with_iou(SQUARE, 0.95), 0.5),
                pred("b:0", LAMP, SQUARE, 1.0),
            ],
            [gt("a:0", LAMP, SQUARE), gt("a:1", LAMP, SQUARE), gt("b:1", CRICKET, SQUARE)],
            0.75,
            0.5,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_report_equals_reference(self, batch):
        preds, gts, iou_threshold, confusion_confidence = batch
        report = evaluate(boxes_of(preds), boxes_of(gts), iou_threshold, confusion_confidence)
        expected = reference_evaluate(boxes_of(preds), boxes_of(gts), iou_threshold, confusion_confidence)
        # JSON text tells apart any two floats that differ in a bit, and 1 from 1.0
        assert json.dumps(report.to_json_dict()) == json.dumps(expected)
