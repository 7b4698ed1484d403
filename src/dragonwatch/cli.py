"""Command-line interface.

Subcommands:
    analyze    detection log -> events.txt, report.json, frames.jsonl
    evaluate   predictions vs ground truth -> eval_report.json / .txt
    simulate   write a synthetic scenario log plus its .expected.json sidecar
    report     render a report.json as a plain-text activity table

Exit codes: 0 success, 1 parse or flag error, 2 I/O error, 3 prediction /
ground-truth file mismatch. Data files never contain wall-clock values;
run metadata goes to a separate run_meta.json so repeated runs stay
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from .behaviour import BehaviourKind
from .evaluation import BoxRecord, check_thresholds, evaluate, records_from_timeline
from .ingest import (
    ParseError,
    RunConfig,
    parse_config,
    parse_detection_log,
    parse_ground_truth,
)
from .model import FrameGeometry
from .pipeline import AnalysisResult, analyze_timeline
from .synth import InvalidScenario, Scenario, generate

_EXIT_OK = 0
_EXIT_PARSE = 1
_EXIT_IO = 2
_EXIT_MISMATCH = 3


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad flags; this tool reserves 2 for I/O."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(_EXIT_PARSE)


def _fail(message: str, code: int) -> int:
    sys.stderr.write(message.rstrip() + "\n")
    return code


def _write_outputs(out_dir: Path, files: dict[str, str]) -> None:
    """Write a set of output files: all of them, or none on a write failure.

    Each file goes to a uniquely named temp file in ``out_dir``; the renames
    start only after every write has succeeded. On failure the temp files
    are removed and the previous outputs stay as they were.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    staged: list[tuple[Path, Path]] = []
    try:
        for name, text in files.items():
            tmp = out_dir / f".{name}.{os.urandom(8).hex()}.tmp"
            staged.append((tmp, out_dir / name))
            tmp.write_text(text, encoding="utf-8")
        for tmp, path in staged:
            tmp.replace(path)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise


def _read_text(path: Path) -> str:
    # arbitrary bytes must surface as parse errors, not decode crashes
    return path.read_text(encoding="utf-8", errors="replace")


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg = parse_config(_read_text(Path(args.config)))
    overrides = {
        name: getattr(args, name)
        for name in (
            "beta",
            "theta_max",
            "gamma",
            "max_gap",
            "disappearance_window",
            "min_episode",
        )
        if getattr(args, name, None) is not None
    }
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


def _events_text(result: AnalysisResult) -> str:
    rows = [
        f"{ep.kind.value} {ep.start_frame} {ep.end_frame} {ep.duration_s:.3f}"
        for ep in result.episodes
    ]
    return "\n".join(rows) + ("\n" if rows else "")


def _frames_jsonl(result: AnalysisResult) -> str:
    rows = []
    for state in result.frames:
        sep = state.separation
        rows.append(
            json.dumps(
                {
                    "frame": state.frame,
                    "state": state.kind.value,
                    "delta_y": None if sep is None else sep.delta_y,
                    "theta": None if sep is None else sep.theta,
                    "dragon_provenance": state.dragon_provenance.value
                    if state.dragon_provenance
                    else None,
                    "lamp_provenance": state.lamp_provenance.value
                    if state.lamp_provenance
                    else None,
                },
                separators=(",", ":"),
            )
        )
    return "\n".join(rows) + ("\n" if rows else "")


def _run_meta(argv_echo: dict) -> str:
    return json.dumps({"run_time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), **argv_echo}, indent=2) + "\n"


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        cfg = _load_config(args)
    except ParseError as exc:
        return _fail(f"{args.config}: {exc}", _EXIT_PARSE)
    except ValueError as exc:
        return _fail(str(exc), _EXIT_PARSE)
    except OSError as exc:
        return _fail(str(exc), _EXIT_IO)
    log_path = Path(args.log)
    try:
        text = _read_text(log_path)
    except OSError as exc:
        return _fail(str(exc), _EXIT_IO)
    try:
        timeline = parse_detection_log(text)
    except ParseError as exc:
        return _fail(f"{log_path}: {exc}", _EXIT_PARSE)
    result = analyze_timeline(timeline, cfg)
    outputs = {
        "events.txt": _events_text(result),
        "report.json": json.dumps(result.to_json_dict(), indent=2) + "\n",
        "frames.jsonl": _frames_jsonl(result),
        "run_meta.json": _run_meta({"log": str(log_path)}),
    }
    try:
        _write_outputs(Path(args.out), outputs)
    except OSError as exc:
        return _fail(str(exc), _EXIT_IO)
    return _EXIT_OK


_FRAME_SUFFIX = re.compile(r"^(?P<stem>.+)_(?P<frame>\d+)$")


def _ground_truth_sources(gts_path: Path, stems: list[str]) -> tuple[dict[str, list[Path]], set[Path]]:
    """Map each prediction stem to its ground-truth file(s) inside a directory."""
    available = sorted(p for p in gts_path.iterdir() if p.suffix == ".txt")
    by_stem: dict[str, list[Path]] = {}
    claimed: set[Path] = set()
    for stem in stems:
        combined = gts_path / f"{stem}.txt"
        if combined in available:
            by_stem[stem] = [combined]
            claimed.add(combined)
            continue
        members = []
        for path in available:
            m = _FRAME_SUFFIX.match(path.stem)
            if m and m.group("stem") == stem:
                members.append(path)
        if members:
            members.sort(key=lambda p: int(_FRAME_SUFFIX.match(p.stem).group("frame")))  # type: ignore[union-attr]
            by_stem[stem] = members
            claimed.update(members)
    return by_stem, set(available) - claimed


def _collect_eval_inputs(
    preds_path: Path, gts_path: Path
) -> tuple[list[BoxRecord], list[BoxRecord]] | int:
    """Build flat prediction / ground-truth records, or an exit code on error."""
    preds: list[BoxRecord] = []
    gts: list[BoxRecord] = []
    if preds_path.is_file() and gts_path.is_file():
        pairs = {preds_path.stem: (preds_path, [gts_path])}
    elif preds_path.is_dir() and gts_path.is_dir():
        pred_files = sorted(p for p in preds_path.iterdir() if p.suffix == ".txt")
        if not pred_files:
            return _fail(f"no prediction logs (*.txt) in {preds_path}", _EXIT_MISMATCH)
        stems = [p.stem for p in pred_files]
        by_stem, unclaimed = _ground_truth_sources(gts_path, stems)
        missing = [s for s in stems if s not in by_stem]
        if missing or unclaimed:
            parts = []
            if missing:
                parts.append(f"predictions without ground truth: {', '.join(missing)}")
            if unclaimed:
                parts.append(
                    "ground-truth files without predictions: "
                    + ", ".join(sorted(p.name for p in unclaimed))
                )
            return _fail("; ".join(parts), _EXIT_MISMATCH)
        pairs = {stem: (preds_path / f"{stem}.txt", by_stem[stem]) for stem in stems}
    else:
        return _fail(
            "predictions and ground truth must both be files or both be directories",
            _EXIT_MISMATCH,
        )

    for stem, (pred_file, gt_files) in sorted(pairs.items()):
        try:
            timeline = parse_detection_log(_read_text(pred_file))
        except ParseError as exc:
            return _fail(f"{pred_file}: {exc}", _EXIT_PARSE)
        except OSError as exc:
            return _fail(str(exc), _EXIT_IO)
        preds.extend(records_from_timeline(timeline, prefix=stem))
        geom = timeline.geometry
        for gt_file in gt_files:
            m = _FRAME_SUFFIX.match(gt_file.stem)
            start = int(m.group("frame")) if m and m.group("stem") == stem else 0
            try:
                gt_timeline = parse_ground_truth(_read_text(gt_file), geometry=geom, start_frame=start)
            except ParseError as exc:
                return _fail(f"{gt_file}: {exc}", _EXIT_PARSE)
            except OSError as exc:
                return _fail(str(exc), _EXIT_IO)
            gts.extend(records_from_timeline(gt_timeline, prefix=stem))
    return preds, gts


def cmd_evaluate(args: argparse.Namespace) -> int:
    try:
        check_thresholds(args.iou, args.conf)
    except ValueError as exc:
        return _fail(str(exc), _EXIT_PARSE)
    preds_path = Path(args.predictions)
    gts_path = Path(args.ground_truth)
    for path in (preds_path, gts_path):
        if not path.exists():
            return _fail(f"{path}: no such file or directory", _EXIT_IO)
    collected = _collect_eval_inputs(preds_path, gts_path)
    if isinstance(collected, int):
        return collected
    preds, gts = collected
    report = evaluate(preds, gts, iou_threshold=args.iou, confusion_confidence=args.conf)
    table = report.to_table()
    outputs = {
        "eval_report.json": json.dumps(report.to_json_dict(), indent=2) + "\n",
        "eval_report.txt": table,
    }
    try:
        _write_outputs(Path(args.out), outputs)
    except OSError as exc:
        return _fail(str(exc), _EXIT_IO)
    sys.stdout.write(table)
    return _EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        cfg = _load_config(args)
    except ParseError as exc:
        return _fail(f"{args.config}: {exc}", _EXIT_PARSE)
    except OSError as exc:
        return _fail(str(exc), _EXIT_IO)
    geometry = cfg.geometry if cfg.geometry is not None else FrameGeometry(640, 480, 30.0)
    try:
        scenario = Scenario(
            kind=BehaviourKind(args.kind),
            frames=args.frames,
            geometry=geometry,
            dropout_rate=args.dropout,
            position_noise=args.noise,
            seed=args.seed,
        )
    except InvalidScenario as exc:
        return _fail(str(exc), _EXIT_PARSE)
    generated = generate(scenario, replace(cfg, geometry=geometry))
    outputs = {
        f"{args.kind}.log": generated.log_text,
        f"{args.kind}.expected.json": generated.expected_json(),
    }
    try:
        _write_outputs(Path(args.out), outputs)
    except OSError as exc:
        return _fail(str(exc), _EXIT_IO)
    return _EXIT_OK


def render_activity_table(report: dict) -> str:
    """Render report.json activity rows; absent metrics print as an en dash."""

    def fmt(value: float | None, digits: int = 2) -> str:
        return "–" if value is None else f"{value:.{digits}f}"

    rows = [
        f"{'Behaviour':<10} {'Coverage (%)':>13} {'Mean Diff (px)':>15} "
        f"{'Jitter (px)':>12} {'Drift (px/s)':>13} {'Frames':>7}"
    ]
    activity = report.get("activity", {})
    for kind in BehaviourKind:
        entry = activity.get(kind.value)
        if entry is None:
            continue
        rows.append(
            f"{kind.value:<10} {fmt(entry['coverage']):>13} {fmt(entry['mean_vertical_diff']):>15} "
            f"{fmt(entry['jitter']):>12} {fmt(entry['drift_slope']):>13} {entry['frames_used']:>7}"
        )
    events = report.get("hunting_event_frames", [])
    rows.append("")
    rows.append(f"hunting events: {len(events)}" + (f" at frames {events}" if events else ""))
    episodes = report.get("episodes", [])
    rows.append(f"episodes: {len(episodes)}")
    for ep in episodes:
        rows.append(
            f"  {ep['behaviour']:<8} frames {ep['start_frame']}..{ep['end_frame']}"
            f" ({ep['duration_s']:.3f} s)"
        )
    return "\n".join(rows) + "\n"


def cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.report)
    try:
        payload = json.loads(_read_text(path))
    except OSError as exc:
        return _fail(str(exc), _EXIT_IO)
    except json.JSONDecodeError as exc:
        return _fail(f"{path}: {exc}", _EXIT_PARSE)
    sys.stdout.write(render_activity_table(payload))
    return _EXIT_OK


def _add_threshold_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--beta", type=float, help="basking vertical threshold fraction")
    parser.add_argument("--theta-max", dest="theta_max", type=float, help="basking angle limit, degrees")
    parser.add_argument("--gamma", type=float, help="hunting distance fraction of frame width")
    parser.add_argument("--max-gap", dest="max_gap", type=int, help="largest interpolatable gap, frames")
    parser.add_argument(
        "--disappearance-window",
        dest="disappearance_window",
        type=int,
        help="frames a cricket must stay gone to confirm a hunt",
    )
    parser.add_argument(
        "--min-episode", dest="min_episode", type=int, help="shortest basking episode kept, frames"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dragonwatch", description="Enclosure behaviour analytics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="classify behaviours in a detection log")
    p_analyze.add_argument("--log", required=True, help="detection log path")
    p_analyze.add_argument("--config", help="key = value config file")
    p_analyze.add_argument("--out", required=True, help="output directory")
    _add_threshold_flags(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_eval = sub.add_parser("evaluate", help="score predictions against ground truth")
    p_eval.add_argument("predictions", help="detection log file or directory of logs")
    p_eval.add_argument("ground_truth", help="ground-truth file or directory")
    p_eval.add_argument("--out", default=".", help="output directory (default: .)")
    p_eval.add_argument("--iou", type=float, default=0.5, help="IoU threshold (default 0.5)")
    p_eval.add_argument(
        "--conf", type=float, default=0.25, help="confusion-matrix confidence cut (default 0.25)"
    )
    p_eval.set_defaults(func=cmd_evaluate)

    p_sim = sub.add_parser("simulate", help="generate a synthetic scenario log")
    p_sim.add_argument(
        "--kind", required=True, choices=[k.value for k in BehaviourKind], help="scenario kind"
    )
    p_sim.add_argument("--frames", type=int, default=200, help="clip length in frames")
    p_sim.add_argument("--seed", type=int, default=0, help="generator seed")
    p_sim.add_argument("--dropout", type=float, default=0.0, help="detection dropout rate [0,1)")
    p_sim.add_argument("--noise", type=float, default=0.0, help="centre noise stddev, normalised")
    p_sim.add_argument("--config", help="config file supplying thresholds and geometry")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_report = sub.add_parser("report", help="summarise a report.json")
    p_report.add_argument("report", help="path to report.json")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
