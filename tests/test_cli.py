import errno
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dragonwatch
from dragonwatch import cli
from dragonwatch.cli import main
from dragonwatch.ingest import THRESHOLDS, RunConfig, parse_detection_log
from dragonwatch.synth import Scenario, generate
from dragonwatch.behaviour import BehaviourKind

from helpers import records, write_ground_truth


def write_basking_log(path, frames=200):
    generated = generate(Scenario(kind=BehaviourKind.BASKING, frames=frames))
    path.write_text(generated.log_text, encoding="utf-8")
    return generated


class TestAnalyze:
    def test_happy_path(self, tmp_path):
        log = tmp_path / "clip.log"
        write_basking_log(log)
        out = tmp_path / "out"
        assert main(["analyze", "--log", str(log), "--out", str(out)]) == 0
        events = (out / "events.txt").read_text().splitlines()
        assert events == ["basking 0 199 6.667"]
        report = json.loads((out / "report.json").read_text())
        assert report["activity"]["basking"]["coverage"] == 100.0
        assert report["config"]["beta"] == 0.33
        assert report["config"]["geometry"]["width"] == 640
        frames = (out / "frames.jsonl").read_text().splitlines()
        assert len(frames) == 200
        first = json.loads(frames[0])
        assert first["state"] == "basking"
        assert first["dragon_provenance"] == "observed"

    def test_malformed_log_exits_1_without_outputs(self, tmp_path):
        log = tmp_path / "bad.log"
        log.write_text("!geometry 640 480 30 100\n0 9 0.5 0.5 0.1 0.1 0.9\n")
        out = tmp_path / "out"
        assert main(["analyze", "--log", str(log), "--out", str(out)]) == 1
        assert not (out / "events.txt").exists()
        assert not (out / "report.json").exists()

    def test_parse_error_message_has_line_number(self, tmp_path, capsys):
        log = tmp_path / "bad.log"
        log.write_text("!geometry 640 480 30 100\nnot a line\n")
        main(["analyze", "--log", str(log), "--out", str(tmp_path / "out")])
        assert "line 2" in capsys.readouterr().err

    def test_missing_log_exits_2(self, tmp_path):
        code = main(["analyze", "--log", str(tmp_path / "nope.log"), "--out", str(tmp_path)])
        assert code == 2

    def test_flag_overrides_and_echo(self, tmp_path):
        log = tmp_path / "clip.log"
        write_basking_log(log)
        out = tmp_path / "out"
        code = main(
            [
                "analyze",
                "--log",
                str(log),
                "--out",
                str(out),
                "--beta",
                "0.1",
                "--theta-max",
                "30",
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["beta"] == 0.1
        assert report["config"]["theta_max"] == 30.0
        # beta 0.1 means 48 px limit; scripted separation is 96 px, so no basking
        assert report["activity"]["basking"]["coverage"] == 0.0

    def test_flags_beat_config_file(self, tmp_path):
        log = tmp_path / "clip.log"
        write_basking_log(log)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 0.5\n")
        out = tmp_path / "out"
        code = main(
            ["analyze", "--log", str(log), "--config", str(cfg), "--out", str(out), "--beta", "0.2"]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["beta"] == 0.2

    def test_config_fps_overrides_a_log_fps_too_low(self, tmp_path):
        log = tmp_path / "clip.log"
        log.write_text(SLOW_FPS_LOG, encoding="utf-8")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("width = 640\nheight = 480\nfps = 2\n")
        out = tmp_path / "out"
        assert main(["analyze", "--log", str(log), "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "events.txt").read_text() == "basking 0 5 3.000\n"
        assert json.loads((out / "report.json").read_text())["activity"]["basking"]["drift_slope"] == 0.0

    def test_bad_config_exits_1(self, tmp_path):
        log = tmp_path / "clip.log"
        write_basking_log(log)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 1.5\n")
        assert main(["analyze", "--log", str(log), "--config", str(cfg), "--out", str(tmp_path)]) == 1

    def test_invalid_flag_value_exits_1(self, tmp_path):
        log = tmp_path / "clip.log"
        write_basking_log(log)
        assert main(["analyze", "--log", str(log), "--out", str(tmp_path), "--beta", "7"]) == 1

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--max-gap", "１５"),
            ("--max-gap", "1_5"),
            ("--beta", "0.3_3"),
            ("--theta-max", "4_5"),
            ("--gamma", "０.25"),
            ("--disappearance-window", "1_5"),
            ("--min-episode", "３"),
        ],
    )
    def test_threshold_flags_take_only_plain_ascii_numbers(self, tmp_path, flag, value):
        log = tmp_path / "clip.log"
        write_basking_log(log, frames=20)
        out = tmp_path / "out"
        assert main(["analyze", "--log", str(log), "--out", str(out), flag, value]) == 1
        assert not out.exists()

    def test_deterministic_outputs(self, tmp_path):
        log = tmp_path / "clip.log"
        write_basking_log(log)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["analyze", "--log", str(log), "--out", str(out1)]) == 0
        assert main(["analyze", "--log", str(log), "--out", str(out2)]) == 0
        for name in ("events.txt", "report.json", "frames.jsonl"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


THRESHOLD_FIELDS = [f for f in THRESHOLDS if f.name in RunConfig.__slots__]


def changed(value: int | float) -> int | float:
    """A valid threshold other than its default: every float range is (0, x], every int one >= 0 or 1."""
    return value / 2 if isinstance(value, float) else value + 1


def echo_with(name: str, value: int | float) -> dict:
    """The report.json config echo of a 640x480 30 fps clip with one threshold changed."""
    echo = {f.name: f.default for f in THRESHOLD_FIELDS}
    return {**echo, name: value, "geometry": {"width": 640, "height": 480, "fps": 30.0}}


class TestThresholdTable:
    """Every threshold reaches the report.json echo from the config file, and from its flag if it has one."""

    def analyze_echo(self, tmp_path, *extra):
        log = tmp_path / "clip.log"
        write_basking_log(log, frames=20)
        out = tmp_path / "out"
        assert main(["analyze", "--log", str(log), "--out", str(out), *extra]) == 0
        return json.loads((out / "report.json").read_text())["config"]

    def test_flags_are_every_threshold_but_cricket_gate(self):
        with_help = [f.name for f in THRESHOLD_FIELDS if f.help is not None]
        assert with_help == ["beta", "theta_max", "gamma", "max_gap", "disappearance_window", "min_episode"]

    @pytest.mark.parametrize("field", THRESHOLD_FIELDS, ids=lambda f: f.name)
    def test_config_value_is_echoed_in_field_order(self, tmp_path, field):
        value = changed(field.default)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{field.name} = {value}\n")
        echo = self.analyze_echo(tmp_path, "--config", str(cfg))
        assert list(echo) == [f.name for f in THRESHOLD_FIELDS] + ["geometry"]
        assert echo == echo_with(field.name, value)
        assert type(echo[field.name]) is type(field.default)

    @pytest.mark.parametrize(
        "field", [f for f in THRESHOLD_FIELDS if f.help is not None], ids=lambda f: f.name
    )
    def test_flag_sets_its_threshold(self, tmp_path, field):
        value = changed(field.default)
        echo = self.analyze_echo(tmp_path, "--" + field.name.replace("_", "-"), str(value))
        assert echo == echo_with(field.name, value)
        assert type(echo[field.name]) is type(field.default)


class TestEvaluateCommand:
    def make_pair(self, tmp_path, perfect=True):
        preds_dir = tmp_path / "preds"
        gts_dir = tmp_path / "gts"
        preds_dir.mkdir()
        gts_dir.mkdir()
        generated = generate(Scenario(kind=BehaviourKind.BASKING, frames=5))
        (preds_dir / "clip.txt").write_text(generated.log_text)
        timeline = parse_detection_log(generated.log_text)
        if perfect:
            (gts_dir / "clip.txt").write_text(write_ground_truth(timeline))
        return preds_dir, gts_dir

    def test_perfect_predictions(self, tmp_path, capsys):
        preds_dir, gts_dir = self.make_pair(tmp_path)
        out = tmp_path / "eval"
        code = main(["evaluate", str(preds_dir), str(gts_dir), "--out", str(out)])
        assert code == 0
        table = capsys.readouterr().out
        assert "1.000" in table
        payload = json.loads((out / "eval_report.json").read_text())
        assert payload["map_50"] == 1.0
        assert payload["map_50_95"] == 1.0
        assert payload["classes"]["BeardedDragon"]["recall"] == 1.0

    @pytest.mark.parametrize(
        "flag, value",
        [("--iou", "nan"), ("--iou", "0"), ("--iou", "5"), ("--iou", "-0.1"),
         ("--conf", "-0.1"), ("--conf", "1.5"), ("--conf", "nan")],
    )
    def test_out_of_range_threshold_exits_1_and_writes_nothing(self, tmp_path, flag, value):
        preds_dir, gts_dir = self.make_pair(tmp_path)
        out = tmp_path / "eval"
        out.mkdir()
        assert main(["evaluate", str(preds_dir), str(gts_dir), "--out", str(out), flag, value]) == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("flag, value", [("--iou", "0.5_0"), ("--conf", "０.２")])
    def test_threshold_flags_take_only_plain_ascii_numbers(self, tmp_path, flag, value):
        preds_dir, gts_dir = self.make_pair(tmp_path)
        out = tmp_path / "eval"
        assert main(["evaluate", str(preds_dir), str(gts_dir), "--out", str(out), flag, value]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--iou", "1.0"), ("--conf", "0")])
    def test_threshold_bounds_accepted(self, tmp_path, flag, value):
        preds_dir, gts_dir = self.make_pair(tmp_path)
        out = tmp_path / "eval"
        assert main(["evaluate", str(preds_dir), str(gts_dir), "--out", str(out), flag, value]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["eval_report.json", "eval_report.txt"]

    def test_bad_threshold_reported_before_inputs_are_read(self, tmp_path, capsys):
        preds_dir, gts_dir = self.make_pair(tmp_path)
        (preds_dir / "clip.txt").write_text("garbage\n")
        out = tmp_path / "eval"
        argv = ["evaluate", str(preds_dir), str(gts_dir), "--out", str(out), "--iou", "nan"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "IoU threshold" in err
        assert "clip.txt" not in err
        assert not out.exists()

    def test_missing_ground_truth_exits_3(self, tmp_path):
        preds_dir, gts_dir = self.make_pair(tmp_path, perfect=False)
        assert main(["evaluate", str(preds_dir), str(gts_dir), "--out", str(tmp_path)]) == 3

    def test_unclaimed_ground_truth_exits_3(self, tmp_path):
        preds_dir, gts_dir = self.make_pair(tmp_path)
        (gts_dir / "stray.txt").write_text("0 0.5 0.5 0.1 0.1\n")
        assert main(["evaluate", str(preds_dir), str(gts_dir), "--out", str(tmp_path)]) == 3

    def test_per_frame_ground_truth_files(self, tmp_path, capsys):
        preds_dir = tmp_path / "preds"
        gts_dir = tmp_path / "gts"
        preds_dir.mkdir()
        gts_dir.mkdir()
        generated = generate(Scenario(kind=BehaviourKind.BASKING, frames=3))
        (preds_dir / "clip.txt").write_text(generated.log_text)
        timeline = parse_detection_log(generated.log_text)
        for frame in range(3):
            rows = []
            for label, columns in timeline.by_class.items():
                for d in records(columns, label):
                    if d.frame == frame:
                        rows.append(f"{int(label)} {d.cx!r} {d.cy!r} {d.w!r} {d.h!r}")
            (gts_dir / f"clip_{frame}.txt").write_text("\n".join(rows) + "\n")
        out = tmp_path / "eval"
        assert main(["evaluate", str(preds_dir), str(gts_dir), "--out", str(out)]) == 0
        payload = json.loads((out / "eval_report.json").read_text())
        assert payload["map_50"] == 1.0

    def test_empty_predictions_dir_is_mismatch(self, tmp_path):
        preds_dir = tmp_path / "preds"
        gts_dir = tmp_path / "gts"
        preds_dir.mkdir()
        gts_dir.mkdir()
        assert main(["evaluate", str(preds_dir), str(gts_dir), "--out", str(tmp_path)]) == 3

    def test_missing_path_exits_2(self, tmp_path):
        assert main(["evaluate", str(tmp_path / "nope"), str(tmp_path), "--out", str(tmp_path)]) == 2

    def test_pred_parse_error_exits_1(self, tmp_path):
        preds_dir, gts_dir = self.make_pair(tmp_path)
        (preds_dir / "clip.txt").write_text("garbage\n")
        assert main(["evaluate", str(preds_dir), str(gts_dir), "--out", str(tmp_path)]) == 1


# Which ground-truth file feeds which prediction stem, and from which frame. Each case:
# prediction stems, ground-truth names, then (image, ground-truth name) per ground-truth
# row in evaluation order, or the exact exit-3 message.
PAIRINGS = [
    pytest.param(
        ["clip"], ["clip.txt", "clip_1.txt", "clip_2.txt"],
        "ground-truth files without predictions: clip_1.txt, clip_2.txt",
        id="stream-and-frame-files-leaves-the-frame-files-unclaimed",
    ),
    pytest.param(
        ["a", "a_1"], ["a_1.txt", "a_2.txt"],
        [("a:2", "a_2.txt"), ("a_1:0", "a_1.txt")],
        id="a_1-is-a_1s-stream-not-frame-1-of-a",
    ),
    pytest.param(
        ["a", "a_1"], ["a.txt", "a_1_2.txt"],
        [("a:0", "a.txt"), ("a_1:2", "a_1_2.txt")],
        id="a_1_2-is-frame-2-of-a_1",
    ),
    pytest.param(
        ["clip"], ["clip_10.txt", "clip_2.txt", "clip_1.txt", "clip_01.txt"],
        [("clip:1", "clip_01.txt"), ("clip:1", "clip_1.txt"), ("clip:2", "clip_2.txt"),
         ("clip:10", "clip_10.txt")],
        id="frame-files-in-frame-order-ties-by-name",
    ),
    pytest.param(
        ["a", "b"], ["a.txt", "c_1.txt", "stray.txt"],
        "predictions without ground truth: b; "
        "ground-truth files without predictions: c_1.txt, stray.txt",
        id="missing-and-unclaimed",
    ),
    pytest.param(
        ["clip"], ["clip_3.txt", "clip_٣.txt"],
        "ground-truth files without predictions: clip_٣.txt",
        id="arabic-indic-digit-is-no-frame-number",
    ),
    pytest.param(
        ["clip"], ["clip_5.txt", "clip_５.txt"],
        "ground-truth files without predictions: clip_５.txt",
        id="fullwidth-digit-is-no-frame-number",
    ),
    pytest.param(
        ["a"], ["a_4.txt", "a_5\n.txt"],
        "ground-truth files without predictions: a_5\n.txt",
        id="digits-then-newline-is-no-frame-number",
    ),
]


class TestGroundTruthPairing:
    @staticmethod
    def write_inputs(preds_dir, gts_dir, stems, gt_names):
        preds_dir.mkdir()
        gts_dir.mkdir(exist_ok=True)
        for stem in stems:
            (preds_dir / f"{stem}.txt").write_text("!geometry 100 100 30.0 20\n")
        # the box of the k-th ground-truth name is centred at x = k px
        for k, name in enumerate(gt_names, start=1):
            (gts_dir / name).write_text(f"0 {k / 100!r} 0.5 0.02 0.02\n")

    @staticmethod
    def sources(gts, gt_names):
        """(image, ground-truth name) per ground-truth row; the name found by its box's centre."""
        return [
            (image, gt_names[round((x0 + x1) / 2) - 1])
            for image, (x0, _, x1, _) in zip(gts.image, gts.corners)
        ]

    @pytest.mark.parametrize("stems, gt_names, expected", PAIRINGS)
    def test_pairing_table(self, tmp_path, capsys, stems, gt_names, expected):
        preds_dir, gts_dir = tmp_path / "preds", tmp_path / "gts"
        self.write_inputs(preds_dir, gts_dir, stems, gt_names)
        if isinstance(expected, str):
            assert main(["evaluate", str(preds_dir), str(gts_dir), "--out", str(tmp_path / "out")]) == 3
            assert capsys.readouterr().err == expected + "\n"
            assert not (tmp_path / "out").exists()
        else:
            _, gts = cli._collect_eval_inputs(preds_dir, gts_dir)
            assert self.sources(gts, gt_names) == expected

    def test_each_ground_truth_name_is_matched_once(self, tmp_path, monkeypatch):
        matched = []
        frame_suffix = cli._frame_suffix

        def counting(name):
            matched.append(name)
            return frame_suffix(name)

        monkeypatch.setattr(cli, "_frame_suffix", counting)
        gt_names = ["a.txt", "a_1_2.txt", "a_1_3.txt", "clip_01.txt", "clip_1.txt", "clip_2.txt"]
        self.write_inputs(tmp_path / "preds", tmp_path / "gts", ["a", "a_1", "clip"], gt_names)
        _, gts = cli._collect_eval_inputs(tmp_path / "preds", tmp_path / "gts")
        assert len(gts) == len(gt_names)
        assert sorted(matched) == [Path(name).stem for name in gt_names]

    @pytest.mark.parametrize("pred_stem, start", [("clip", 5), ("other", 0)])
    def test_file_pair_starts_at_the_frame_of_its_name(self, tmp_path, pred_stem, start):
        """File/file mode: ``<stem>_<n>.txt`` starts at frame ``n`` when ``stem`` is the prediction's."""
        preds_dir, gts_dir = tmp_path / "preds", tmp_path / "gts"
        self.write_inputs(preds_dir, gts_dir, [pred_stem], ["clip_5.txt"])
        _, gts = cli._collect_eval_inputs(preds_dir / f"{pred_stem}.txt", gts_dir / "clip_5.txt")
        assert self.sources(gts, ["clip_5.txt"]) == [(f"{pred_stem}:{start}", "clip_5.txt")]


class TestSimulateCommand:
    def test_writes_log_and_sidecar(self, tmp_path):
        out = tmp_path / "sim"
        code = main(
            ["simulate", "--kind", "basking", "--frames", "50", "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        assert (out / "basking.log").exists()
        sidecar = json.loads((out / "basking.expected.json").read_text())
        assert sidecar["scenario"]["seed"] == 7

    def test_runs_are_identical(self, tmp_path):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        args = ["simulate", "--kind", "basking", "--frames", "200", "--seed", "7"]
        assert main([*args, "--out", str(out1)]) == 0
        assert main([*args, "--out", str(out2)]) == 0
        assert (out1 / "basking.log").read_bytes() == (out2 / "basking.log").read_bytes()
        assert (out1 / "basking.expected.json").read_bytes() == (
            out2 / "basking.expected.json"
        ).read_bytes()

    def test_invalid_dropout_exits_1(self, tmp_path):
        code = main(
            ["simulate", "--kind", "idle", "--dropout", "1.5", "--out", str(tmp_path / "x")]
        )
        assert code == 1

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_exits_1_and_writes_nothing(self, tmp_path, noise):
        out = tmp_path / "sim"
        assert main(["simulate", "--kind", "idle", "--noise", noise, "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value", [("--frames", "2_0"), ("--seed", "７"), ("--dropout", "0.1_0"), ("--noise", "０.01")]
    )
    def test_number_flags_take_only_plain_ascii_numbers(self, tmp_path, flag, value):
        out = tmp_path / "sim"
        assert main(["simulate", "--kind", "idle", flag, value, "--out", str(out)]) == 1
        assert not out.exists()

    def test_unknown_kind_exits_1(self, tmp_path):
        assert main(["simulate", "--kind", "sleeping", "--out", str(tmp_path)]) == 1

    def test_analyze_simulated_hunting_end_to_end(self, tmp_path):
        sim = tmp_path / "sim"
        assert main(["simulate", "--kind", "hunting", "--frames", "200", "--out", str(sim)]) == 0
        out = tmp_path / "out"
        assert main(["analyze", "--log", str(sim / "hunting.log"), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        expected = json.loads((sim / "hunting.expected.json").read_text())
        assert report["hunting_event_frames"] == expected["hunting_event_frames"]


class TestOutputSets:
    """A failed write leaves the previous output set as it was, with no temp file behind."""

    def runs(self, tmp_path, command):
        out = str(tmp_path / "out")
        if command == "analyze":
            log = tmp_path / "clip.log"
            write_basking_log(log)
            first = ["analyze", "--log", str(log), "--out", out]
            return first, [*first, "--beta", "0.1"]
        if command == "evaluate":
            preds_dir, gts_dir = TestEvaluateCommand().make_pair(tmp_path)
            first = ["evaluate", str(preds_dir), str(gts_dir), "--out", out]
            return first, [*first, "--iou", "0.3"]
        first = ["simulate", "--kind", "hunting", "--frames", "60", "--out", out]
        return first, [*first, "--frames", "80"]

    @pytest.mark.parametrize("command, fail_at", [("analyze", 3), ("evaluate", 2), ("simulate", 2)])
    def test_failed_write_keeps_previous_outputs(self, tmp_path, monkeypatch, command, fail_at):
        first, second = self.runs(tmp_path, command)
        out = tmp_path / "out"
        assert main(first) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        writes = []
        path_open = Path.open

        def failing_open(path, mode="r", *args, **kwargs):
            if "w" in mode:
                writes.append(path)
                if len(writes) == fail_at:
                    raise OSError(28, "No space left on device")
            return path_open(path, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "open", failing_open)
        assert main(second) == 2
        monkeypatch.undo()
        assert all(path.parent == out for path in writes)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        # the same run without the fault does replace the set
        assert main(second) == 0
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert after.keys() == before.keys() and after != before

    @pytest.mark.parametrize(
        "command, target",
        [("analyze", "frames.jsonl"), ("evaluate", "eval_report.txt"), ("simulate", "hunting.expected.json")],
    )
    def test_directory_at_a_later_target_keeps_previous_outputs(self, tmp_path, capsys, command, target):
        # the target is renamed after the first one, so a rename-by-rename writer would already have
        # replaced an earlier file when it meets the directory
        first, second = self.runs(tmp_path, command)
        out = tmp_path / "out"
        assert main(first) == 0
        (out / target).unlink()
        (out / target).mkdir()
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        capsys.readouterr()
        assert main(second) == 2
        message = str(IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out / target)))
        assert capsys.readouterr().err == message + "\n"
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before
        assert sorted(p.name for p in out.iterdir()) == sorted([*before, target])  # no temp file left
        assert not any((out / target).iterdir())

    def test_fault_after_part_of_frames_jsonl_is_written(self, tmp_path, monkeypatch):
        log = tmp_path / "clip.log"
        write_basking_log(log, frames=5_000)  # frames.jsonl streams in two chunks
        out = tmp_path / "out"
        argv = ["analyze", "--log", str(log), "--out", str(out)]
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        streamed = []  # (temp path, bytes on disk when the fault struck)
        path_open = Path.open

        class FailsOnSecondChunk:
            def __init__(self, path, fh):
                self.path, self.fh, self.chunks = path, fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def writelines(self, chunks):
                for chunk in chunks:
                    if self.chunks == 1:
                        self.fh.flush()
                        streamed.append((self.path, self.path.stat().st_size))
                        raise OSError(28, "No space left on device")
                    self.fh.write(chunk)
                    self.chunks += 1

        def open_frames_failing(path, mode="r", *args, **kwargs):
            fh = path_open(path, mode, *args, **kwargs)
            if "w" in mode and path.name.startswith(".frames.jsonl."):
                return FailsOnSecondChunk(path, fh)
            return fh

        monkeypatch.setattr(Path, "open", open_frames_failing)
        assert main([*argv, "--beta", "0.1"]) == 2
        monkeypatch.undo()
        [(tmp, size_at_fault)] = streamed
        assert 0 < size_at_fault < len(before["frames.jsonl"])
        assert not tmp.exists()
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestStopSignals:
    """A run stopped by SIGTERM or SIGHUP exits 4 and leaves no temp file; handlers are restored."""

    @pytest.mark.parametrize("signum", cli._STOP_SIGNALS, ids=lambda s: signal.Signals(s).name)
    def test_stopped_analyze_leaves_no_temp_files(self, tmp_path, signum):
        log, out = tmp_path / "clip.log", tmp_path / "out"
        log.write_text("!geometry 640 480 30 100000000\n", encoding="utf-8")  # ~6 GB of frames.jsonl
        src = Path(dragonwatch.__file__).resolve().parent.parent
        proc = subprocess.Popen(
            [sys.executable, "-m", "dragonwatch.cli", "analyze", "--log", str(log), "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 30
            while not list(out.glob(".frames.jsonl.*.tmp")):
                assert proc.poll() is None and time.monotonic() < deadline, "no frames.jsonl temp file"
                time.sleep(0.01)
            proc.send_signal(signum)
            _, stderr = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 4
        assert stderr == f"stopped by {signal.Signals(signum).name}\n"
        assert list(out.iterdir()) == []

    def test_handlers_are_restored(self, tmp_path):
        before = [signal.getsignal(signum) for signum in cli._STOP_SIGNALS]
        log = tmp_path / "clip.log"
        write_basking_log(log, frames=20)
        assert main(["analyze", "--log", str(log), "--out", str(tmp_path / "out")]) == 0
        assert [signal.getsignal(signum) for signum in cli._STOP_SIGNALS] == before

    def test_a_handled_or_ignored_signal_is_left_alone(self):
        signum = cli._STOP_SIGNALS[0]
        previous = signal.signal(signum, signal.SIG_IGN)
        try:
            assert signum not in cli._catch_stop_signals()
            assert signal.getsignal(signum) is signal.SIG_IGN
        finally:
            signal.signal(signum, previous)

    def test_main_runs_off_the_main_thread(self, tmp_path):
        log = tmp_path / "clip.log"
        write_basking_log(log, frames=20)
        codes = []
        argv = ["analyze", "--log", str(log), "--out", str(tmp_path / "out")]
        worker = threading.Thread(target=lambda: codes.append(main(argv)))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert codes == [0]
        assert (tmp_path / "out" / "report.json").is_file()


def test_parser_is_built_once(tmp_path, monkeypatch):
    cli._parser()

    def build_again():
        raise AssertionError("main built the parser again")

    monkeypatch.setattr(cli, "build_parser", build_again)
    assert main(["report", str(tmp_path / "missing.json")]) == 2


def test_command_is_looked_up_when_it_runs(monkeypatch):
    """A wrapper set on ``cli.cmd_<command>`` after the parser is built is the one called."""
    cli._parser()
    calls = []
    monkeypatch.setattr(cli, "cmd_report", lambda args: calls.append(args.report) or 0)
    assert main(["report", "report.json"]) == 0
    assert calls == ["report.json"]


# Runs the command given in argv in a child process and prints the child's peak RSS (KiB).
PEAK_RSS_OF_CHILD = """
import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def analyze_peak_rss_kib(log: Path, out: Path) -> int:
    """Peak RSS of one ``dragonwatch analyze`` run in a fresh interpreter."""
    src = Path(dragonwatch.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    analyze = [sys.executable, "-m", "dragonwatch.cli", "analyze", "--log", str(log), "--out", str(out)]
    done = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_OF_CHILD, *analyze],
        env=env, capture_output=True, text=True, check=True,
    )
    return int(done.stdout)


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


class TestFiniteOutputs:
    @given(
        fps=st.floats(min_value=5e-324, max_value=1e308),
        frame_count=st.integers(1, 30),
        boxed=st.integers(0, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_frame_rate_writes_finite_numbers_or_exits_1(self, fps, frame_count, boxed):
        rows = "".join(
            f"{t} 0 0.55 {0.4 + t / 100} 0.18 0.12 0.9\n{t} 1 0.5 0.2 0.1 0.08 0.85\n"
            for t in range(min(boxed, frame_count))
        )
        with tempfile.TemporaryDirectory() as scratch:
            log, out = Path(scratch) / "clip.log", Path(scratch) / "out"
            log.write_text(f"!geometry 640 480 {fps!r} {frame_count}\n{rows}", encoding="utf-8")
            code = main(["analyze", "--log", str(log), "--out", str(out)])
            if code == 1:
                assert not out.exists()
                return
            assert code == 0
            json.loads((out / "report.json").read_text(), parse_constant=_refuse_constant)
            for line in (out / "frames.jsonl").read_text().splitlines():
                json.loads(line, parse_constant=_refuse_constant)
            events = (out / "events.txt").read_text()
            assert "inf" not in events and "nan" not in events


class TestLongClips:
    def test_empty_log_memory_does_not_grow_with_frame_count(self, tmp_path):
        frame_count = 500_000
        peaks = {}
        for n in (100, frame_count):
            log = tmp_path / f"empty_{n}.log"
            log.write_text(f"!geometry 640 480 1 {n}\n", encoding="utf-8")
            peaks[n] = analyze_peak_rss_kib(log, tmp_path / f"out_{n}")
        assert peaks[frame_count] - peaks[100] <= 10 * 1024, peaks
        empty = {"frame": -1, "state": "idle", "delta_y": None, "theta": None,
                 "dragon_provenance": None, "lamp_provenance": None}
        head, tail = json.dumps(empty, separators=(",", ":")).split("-1")
        lines = 0
        with (tmp_path / f"out_{frame_count}" / "frames.jsonl").open(encoding="utf-8") as fh:
            for t, line in enumerate(fh):
                if line != f"{head}{t}{tail}\n":
                    pytest.fail(f"frames.jsonl line {t + 1} is {line!r}")
                lines += 1
        assert lines == frame_count


class TestReportCommand:
    def test_renders_dash_for_absent_metrics(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        main(["simulate", "--kind", "hunting", "--frames", "200", "--out", str(sim)])
        out = tmp_path / "out"
        main(["analyze", "--log", str(sim / "hunting.log"), "--out", str(out)])
        assert main(["report", str(out / "report.json")]) == 0
        text = capsys.readouterr().out
        hunting_row = next(line for line in text.splitlines() if line.startswith("hunting "))
        assert "–" in hunting_row
        assert "hunting events: 1" in text

    def test_round_trips_activity_values(self, tmp_path, capsys):
        log = tmp_path / "clip.log"
        write_basking_log(log)
        out = tmp_path / "out"
        main(["analyze", "--log", str(log), "--out", str(out)])
        main(["report", str(out / "report.json")])
        text = capsys.readouterr().out
        basking_row = next(line for line in text.splitlines() if line.startswith("basking"))
        assert "100.00" in basking_row
        assert "96.00" in basking_row

    def test_bad_json_exits_1(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("{not json")
        assert main(["report", str(path)]) == 1

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["report", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize(
        "payload, error",
        [
            ("[]", "AttributeError(\"'list' object has no attribute 'get'\")"),
            ('{"activity": {"idle": {}}}', "KeyError('coverage')"),
            ('{"episodes": [{"behaviour": "idle"}]}', "KeyError('start_frame')"),
        ],
        ids=["list", "activity-entry-empty", "episode-without-frames"],
    )
    def test_json_that_is_not_a_report_exits_1(self, tmp_path, capsys, payload, error):
        path = tmp_path / "report.json"
        path.write_text(payload)
        assert main(["report", str(path)]) == 1
        assert capsys.readouterr() == ("", f"{path}: not a report.json: {error}\n")

    def test_json_nested_too_deep_exits_1(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text("[" * 100_000)
        assert main(["report", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"{path}: maximum recursion depth exceeded")

    @given(payload=st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
            st.sampled_from(["activity", "idle", "basking", "hunting", "coverage", "frames_used",
                             "episodes", "behaviour", "duration_s", "hunting_event_frames"]),
            inner, max_size=4,
        ),
        max_leaves=12,
    ))
    @settings(max_examples=200, deadline=None)
    def test_any_json_renders_or_exits_1(self, tmp_path_factory, payload):
        path = tmp_path_factory.mktemp("report") / "report.json"
        path.write_text(json.dumps(payload))
        assert main(["report", str(path)]) in (0, 1)


# a frame width no float holds: scaled by it, a pixel formula overflows
HUGE = "1" + "0" * 400
HUGE_LOG = f"!geometry {HUGE} 480 30 10\n0 0 0.5 0.5 0.1 0.1 0.9\n0 1 0.5 0.3 0.1 0.1 0.9\n"
HUGE_WIDTH = f"line 1: width must be <= 2**53, got {HUGE}"
# frame rates so low that the clip's durations overflow a float, or the drift slope's squares do
TINY_FPS_LOG = "!geometry 640 480 5e-324 10\n0 0 0.5 0.5 0.1 0.1 0.9\n0 1 0.5 0.3 0.1 0.1 0.9\n"
# frame counts over the cap, though inside the clip-length rule: 10**400 frames at fps
# 1e300 (2**53 * 1e300 overflows to inf) and 10**17 frames at fps 1e12 (10**5 s)
HUGE_COUNT_LOG = f"!geometry 640 480 1e300 {10**400}\n"
LONG_COUNT_LOG = f"!geometry 640 480 1e12 {10**17}\n"
SLOW_FPS_LOG = "!geometry 640 480 1e-306 6\n" + "".join(
    f"{t} 0 0.55 0.4 0.18 0.12 0.9\n{t} 1 0.5 0.2 0.1 0.08 0.85\n" for t in range(6)
)
# Inputs of the error-path table; "<tmp>" in an argv or a message is the test's tmp_path.
ERROR_PATH_FILES = {
    "range.cfg": "beta = 1.5\n",
    "key.cfg": "zeta = 1\n",
    "bad.log": "!geometry 640 480 30 100\n0 9 0.5 0.5 0.1 0.1 0.9\n",
    "file": "not a directory\n",
    "gts/clip.txt": "0 0.5 0.5 0.1 0.1\n",
    "bad_preds/clip.txt": "garbage\n",
    "bad_gts/clip.txt": "0 0.5 0.5 0.1\n",
    # a_1.txt is the combined ground truth of a_1, not frame 1 of a
    "stem_preds/a.txt": "!geometry 640 480 30 5\n1 0 0.5 0.5 0.1 0.1 0.9\n",
    "stem_preds/a_1.txt": "!geometry 640 480 30 5\n0 0 0.5 0.5 0.1 0.1 0.9\n",
    "stem_gts/a_1.txt": "0 0.5 0.5 0.1 0.1\n",
    "report.json": "{not json",
    "huge.log": HUGE_LOG,
    "huge_preds/clip.txt": HUGE_LOG,
    "huge.cfg": f"width = {HUGE}\nheight = 480\nfps = 30\n",
    "tiny_fps.log": TINY_FPS_LOG,
    "slow_fps.log": SLOW_FPS_LOG,
    "tiny_fps.cfg": "width = 640\nheight = 480\nfps = 5e-324\n",
    "huge_count.log": HUGE_COUNT_LOG,
    "long_count.log": LONG_COUNT_LOG,
}
ANALYZE = ["analyze", "--log", "<tmp>/clip.log"]
EVALUATE = ["evaluate", "<tmp>/preds", "<tmp>/gts"]
SIMULATE = ["simulate", "--kind", "idle"]
NO_FILE = "[Errno 2] No such file or directory: '<tmp>/{}'"
OUT_IS_FILE = ("<tmp>/file", 2, "[Errno 17] File exists: '<tmp>/file'")
OUT_UNDER_FILE = ("<tmp>/file/out", 2, "[Errno 20] Not a directory: '<tmp>/file/out'")
# (argv, exit code, the whole of stderr without its newline), as the CLI wrote them before
# its error handling was gathered into main
ERROR_PATHS = [
    pytest.param(
        [*ANALYZE, "--config", "<tmp>/range.cfg", "--out", "<tmp>/out"], 1,
        "<tmp>/range.cfg: line 1: beta must be in (0, 1], got 1.5", id="analyze-config-out-of-range",
    ),
    pytest.param(
        [*ANALYZE, "--config", "<tmp>/key.cfg", "--out", "<tmp>/out"], 1,
        "<tmp>/key.cfg: line 1: unknown config key 'zeta'", id="analyze-config-unknown-key",
    ),
    pytest.param(
        [*ANALYZE, "--config", "<tmp>/nope.cfg", "--out", "<tmp>/out"], 2,
        NO_FILE.format("nope.cfg"), id="analyze-config-missing",
    ),
    pytest.param(
        ["analyze", "--log", "<tmp>/nope.log", "--out", "<tmp>/out"], 2,
        NO_FILE.format("nope.log"), id="analyze-log-missing",
    ),
    pytest.param(
        ["analyze", "--log", "<tmp>/bad.log", "--out", "<tmp>/out"], 1,
        "<tmp>/bad.log: line 2: unknown class id 9", id="analyze-log-bad-class",
    ),
    pytest.param(
        ["analyze", "--log", "<tmp>/huge.log", "--out", "<tmp>/out"], 1,
        f"<tmp>/huge.log: {HUGE_WIDTH}", id="analyze-log-huge-width",
    ),
    pytest.param(
        [*ANALYZE, "--config", "<tmp>/huge.cfg", "--out", "<tmp>/out"], 1,
        f"<tmp>/huge.cfg: {HUGE_WIDTH}", id="analyze-config-huge-width",
    ),
    pytest.param(
        ["analyze", "--log", "<tmp>/tiny_fps.log", "--out", "<tmp>/out"], 1,
        "10 frames at 5e-324 fps last over 2**53 seconds", id="analyze-log-duration-overflows",
    ),
    pytest.param(
        ["analyze", "--log", "<tmp>/slow_fps.log", "--out", "<tmp>/out"], 1,
        "6 frames at 1e-306 fps last over 2**53 seconds", id="analyze-log-drift-overflows",
    ),
    pytest.param(
        ["analyze", "--log", "<tmp>/huge_count.log", "--out", "<tmp>/out"], 1,
        f"<tmp>/huge_count.log: line 1: frame count must be <= 100000000, got {10**400}",
        id="analyze-log-frame-count-overflows",
    ),
    pytest.param(
        ["analyze", "--log", "<tmp>/long_count.log", "--out", "<tmp>/out"], 1,
        f"<tmp>/long_count.log: line 1: frame count must be <= 100000000, got {10**17}",
        id="analyze-log-frame-count-over-cap",
    ),
    pytest.param(
        [*ANALYZE, "--config", "<tmp>/tiny_fps.cfg", "--out", "<tmp>/out"], 1,
        "5 frames at 5e-324 fps last over 2**53 seconds", id="analyze-config-duration-overflows",
    ),
    pytest.param(
        [*ANALYZE, "--out", "<tmp>/out", "--beta", "2"], 1,
        "beta must be in (0, 1], got 2.0", id="analyze-beta-out-of-range",
    ),
    pytest.param([*ANALYZE, "--out", OUT_IS_FILE[0]], *OUT_IS_FILE[1:], id="analyze-out-is-file"),
    pytest.param([*ANALYZE, "--out", OUT_UNDER_FILE[0]], *OUT_UNDER_FILE[1:], id="analyze-out-under-file"),
    pytest.param([*EVALUATE, "--out", OUT_IS_FILE[0]], *OUT_IS_FILE[1:], id="evaluate-out-is-file"),
    pytest.param([*EVALUATE, "--out", OUT_UNDER_FILE[0]], *OUT_UNDER_FILE[1:], id="evaluate-out-under-file"),
    pytest.param(
        [*EVALUATE, "--out", "<tmp>/out", "--iou", "2"], 1,
        "IoU threshold must be in (0, 1], got 2.0", id="evaluate-iou-out-of-range",
    ),
    pytest.param(
        ["evaluate", "<tmp>/bad_preds", "<tmp>/gts", "--out", "<tmp>/out"], 1,
        "<tmp>/bad_preds/clip.txt: line 1: data line before !geometry header",
        id="evaluate-bad-predictions",
    ),
    pytest.param(
        ["evaluate", "<tmp>/huge_preds", "<tmp>/gts", "--out", "<tmp>/out"], 1,
        f"<tmp>/huge_preds/clip.txt: {HUGE_WIDTH}", id="evaluate-predictions-huge-width",
    ),
    pytest.param(
        ["evaluate", "<tmp>/preds", "<tmp>/bad_gts", "--out", "<tmp>/out"], 1,
        "<tmp>/bad_gts/clip.txt: line 1: expected 5 fields, got 4", id="evaluate-bad-ground-truth",
    ),
    pytest.param(
        ["evaluate", "<tmp>/stem_preds", "<tmp>/stem_gts", "--out", "<tmp>/out"], 3,
        "predictions without ground truth: a", id="evaluate-stem-file-is-not-a-frame-file",
    ),
    pytest.param(
        ["evaluate", "<tmp>/empty", "<tmp>/gts", "--out", "<tmp>/out"], 3,
        "no prediction logs (*.txt) in <tmp>/empty", id="evaluate-empty-prediction-dir",
    ),
    pytest.param(
        ["evaluate", "<tmp>/clip.log", "<tmp>/gts", "--out", "<tmp>/out"], 3,
        "predictions and ground truth must both be files or both be directories",
        id="evaluate-file-and-dir",
    ),
    pytest.param(
        ["evaluate", "<tmp>/nope", "<tmp>/gts", "--out", "<tmp>/out"], 2,
        "<tmp>/nope: no such file or directory", id="evaluate-missing-path",
    ),
    pytest.param(
        [*SIMULATE, "--frames", "0", "--out", "<tmp>/out"], 1,
        "frames must be >= 1, got 0", id="simulate-frames-0",
    ),
    pytest.param([*SIMULATE, "--out", OUT_IS_FILE[0]], *OUT_IS_FILE[1:], id="simulate-out-is-file"),
    pytest.param([*SIMULATE, "--out", OUT_UNDER_FILE[0]], *OUT_UNDER_FILE[1:], id="simulate-out-under-file"),
    pytest.param(
        [*SIMULATE, "--config", "<tmp>/range.cfg", "--out", "<tmp>/out"], 1,
        "<tmp>/range.cfg: line 1: beta must be in (0, 1], got 1.5", id="simulate-config-out-of-range",
    ),
    pytest.param(
        [*SIMULATE, "--config", "<tmp>/tiny_fps.cfg", "--out", "<tmp>/out"], 1,
        "200 frames at 5e-324 fps last over 2**53 seconds", id="simulate-config-duration-overflows",
    ),
    pytest.param(
        [*SIMULATE, "--config", "<tmp>/nope.cfg", "--out", "<tmp>/out"], 2,
        NO_FILE.format("nope.cfg"), id="simulate-config-missing",
    ),
    pytest.param(["report", "<tmp>/nope.json"], 2, NO_FILE.format("nope.json"), id="report-missing"),
    pytest.param(
        ["report", "<tmp>/report.json"], 1,
        "<tmp>/report.json: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
        id="report-not-json",
    ),
]


def tree(root: Path) -> dict[str, bytes | None]:
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.mark.parametrize("argv, code, stderr", ERROR_PATHS)
def test_error_path_exit_code_and_message(tmp_path, capsys, argv, code, stderr):
    """Every failing input ends in its exit code and one stderr line, with nothing written."""
    for name, text in ERROR_PATH_FILES.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    (tmp_path / "empty").mkdir()
    write_basking_log(tmp_path / "clip.log", frames=5)
    (tmp_path / "preds").mkdir()
    write_basking_log(tmp_path / "preds" / "clip.txt", frames=5)
    before = tree(tmp_path)
    tmp = str(tmp_path)
    assert main([arg.replace("<tmp>", tmp) for arg in argv]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", stderr.replace("<tmp>", tmp) + "\n")
    assert tree(tmp_path) == before


class TestFlagErrors:
    def test_unknown_subcommand_exits_1(self):
        assert main(["transcode"]) == 1

    def test_missing_required_flag_exits_1(self):
        assert main(["analyze", "--out", "somewhere"]) == 1

    def test_non_numeric_flag_exits_1(self, tmp_path):
        assert main(["simulate", "--kind", "idle", "--frames", "ten", "--out", str(tmp_path)]) == 1
