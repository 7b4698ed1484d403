import json
from pathlib import Path

import pytest

from dragonwatch.cli import main
from dragonwatch.ingest import parse_detection_log, write_ground_truth
from dragonwatch.synth import Scenario, generate
from dragonwatch.behaviour import BehaviourKind


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

    def test_deterministic_outputs(self, tmp_path):
        log = tmp_path / "clip.log"
        write_basking_log(log)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["analyze", "--log", str(log), "--out", str(out1)]) == 0
        assert main(["analyze", "--log", str(log), "--out", str(out2)]) == 0
        for name in ("events.txt", "report.json", "frames.jsonl"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


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
            for label, dets in timeline.by_class.items():
                for d in dets:
                    if d.frame == frame:
                        b = d.box
                        rows.append(f"{int(label)} {b.cx!r} {b.cy!r} {b.w!r} {b.h!r}")
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
        write_text = Path.write_text

        def failing_write(path, *args, **kwargs):
            writes.append(path)
            if len(writes) == fail_at:
                raise OSError(28, "No space left on device")
            return write_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", failing_write)
        assert main(second) == 2
        monkeypatch.undo()
        assert all(path.parent == out for path in writes)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        # the same run without the fault does replace the set
        assert main(second) == 0
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert after.keys() == before.keys() and after != before


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


class TestFlagErrors:
    def test_unknown_subcommand_exits_1(self):
        assert main(["transcode"]) == 1

    def test_missing_required_flag_exits_1(self):
        assert main(["analyze", "--out", "somewhere"]) == 1

    def test_non_numeric_flag_exits_1(self, tmp_path):
        assert main(["simulate", "--kind", "idle", "--frames", "ten", "--out", str(tmp_path)]) == 1
