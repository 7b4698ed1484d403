"""Command-line interface.

Subcommands:
    analyze    detection log -> events.txt, report.json, frames.jsonl
    evaluate   predictions vs ground truth -> eval_report.json / .txt
    simulate   write a synthetic scenario log plus its .expected.json sidecar
    report     render a report.json as a plain-text activity table

Exit codes: 0 success, 1 parse or flag error, 2 I/O error, 3 prediction /
ground-truth file mismatch, 4 stopped by SIGTERM or SIGHUP. Data files never
contain wall-clock values; run metadata goes to a separate run_meta.json so
repeated runs stay byte-identical.

A command writes its output set through temp files in the output directory,
renamed into place once all are written. A run stopped by SIGTERM or SIGHUP
while writing removes them and keeps the previous outputs. One stopped while
renaming stops after the last rename, where ``pthread_sigmask`` can hold the
signal: it exits 4 with the set wholly new. SIGKILL cannot be caught: a
killed run leaves its ``.<name>.<hex>.tmp`` files beside the previous
outputs, for the user to delete.

Only the modules a subcommand runs are imported for it: ``synth`` is loaded
by ``simulate`` alone.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import signal
import sys
import time
from functools import cache
from itertools import chain, islice
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from .behaviour import BehaviourKind
from .evaluation import Boxes, check_thresholds, evaluate, records_from_timeline
from .ingest import (
    THRESHOLDS,
    ParseError,
    RunConfig,
    _number,
    parse_config,
    parse_detection_log,
    parse_ground_truth,
)
from .model import Timeline
from .pipeline import AnalysisResult, analyze_timeline

_EXIT_OK = 0
_EXIT_PARSE = 1
_EXIT_IO = 2
_EXIT_MISMATCH = 3
_EXIT_STOPPED = 4
# the signals whose default action ends the process before any ``finally`` can run
_STOP_SIGNALS = tuple(getattr(signal, name) for name in ("SIGTERM", "SIGHUP") if hasattr(signal, name))


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad flags; this tool reserves 2 for I/O."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(_EXIT_PARSE)


class _Exit(Exception):
    """An input failure: :func:`main` writes the message to stderr and returns the code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _checked(build: Callable[..., Any], *args: Any, **kw: Any) -> Any:
    """``build(*args, **kw)``; the ValueError of a value out of range exits 1."""
    try:
        return build(*args, **kw)
    except ValueError as exc:
        raise _Exit(_EXIT_PARSE, str(exc)) from None


def _load(name: str | Path, parse: Callable[..., Any], **kw: Any) -> Any:
    """``parse`` the text of file ``name``: exit 2 if it cannot be read, 1 if it does not parse."""
    try:
        # arbitrary bytes must surface as parse errors, not decode crashes
        text = Path(name).read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        raise _Exit(_EXIT_IO, str(exc)) from None
    try:
        return parse(text, **kw)
    except (ParseError, json.JSONDecodeError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise _Exit(_EXIT_PARSE, f"{name}: {exc}") from None


def _write_outputs(out_dir: Path, files: dict[str, str | Iterable[str]]) -> None:
    """Write a set of output files: all of them, or none on a failure, which exits 2.

    A file's content is a string or an iterable of string chunks, streamed
    in order. Each file goes to a uniquely named temp file in ``out_dir``;
    the renames start only after every write has succeeded and no target
    is a directory. On failure the temp files are removed and the previous
    outputs stay as they were.
    """
    staged: list[tuple[Path, Path]] = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            tmp = out_dir / f".{name}.{os.urandom(8).hex()}.tmp"
            staged.append((tmp, out_dir / name))
            with tmp.open("w", encoding="utf-8") as fh:
                fh.writelines((content,) if isinstance(content, str) else content)
        for _, path in staged:  # a rename onto a directory would fail after the ones before it
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        mask = getattr(signal, "pthread_sigmask", None)  # absent on Windows
        held = mask and mask(signal.SIG_BLOCK, _STOP_SIGNALS)  # a stop now fires after the renames
        try:
            for tmp, path in staged:
                tmp.replace(path)
        finally:
            if mask:
                mask(signal.SIG_SETMASK, held)
    except OSError as exc:
        raise _Exit(_EXIT_IO, str(exc)) from None
    finally:
        for tmp, _ in staged:  # none is left once the renames have run
            tmp.unlink(missing_ok=True)


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = _load(args.config, parse_config) if args.config else RunConfig()
    flags = vars(args)
    overrides = {t.name: flags[t.name] for t in THRESHOLDS if flags.get(t.name) is not None}
    return _checked(cfg._replace, **overrides) if overrides else cfg


def _events_text(result: AnalysisResult) -> str:
    rows = [
        f"{ep.kind.value} {ep.start_frame} {ep.end_frame} {ep.duration_s:.3f}"
        for ep in result.episodes
    ]
    return "\n".join(rows) + ("\n" if rows else "")


# One frames.jsonl record, byte for byte as json.dumps(..., separators=(",", ":"))
# writes it: a finite float's repr is what json.dumps prints for it.
_FRAME = (
    '{"frame":%s,"state":"%s","delta_y":%s,"theta":%s,'
    '"dragon_provenance":%s,"lamp_provenance":%s}\n'
)
# the record of a frame with no state: idle, nothing measured, no box
_EMPTY_FRAME = _FRAME % ("%d", "idle", "null", "null", "null", "null")
# a box's interpolated flag as its provenance; None: no box
_JSON_PROVENANCE = {None: "null", False: '"observed"', True: '"interpolated"'}
_CHUNK_LINES = 4096


def _frame_lines(result: AnalysisResult) -> Iterator[Iterable[str]]:
    """Every frame's record in frame order: idle gaps alternating with runs of consecutive states."""
    states = result.states
    frame = states.frame
    rows = map(
        _FRAME.__mod__,
        zip(
            frame,
            map(attrgetter("_value_"), states.kind),  # BehaviourKind.value, without the property call
            ["null" if v is None else repr(v) for v in states.delta_y],
            ["null" if v is None else repr(v) for v in states.theta],
            map(_JSON_PROVENANCE.__getitem__, states.dragon),
            map(_JSON_PROVENANCE.__getitem__, states.lamp),
        ),
    )
    # the states that follow a gap in the frames
    starts = [i for i in range(1, len(frame)) if frame[i] != frame[i - 1] + 1]
    after = 0  # the first frame not yet written
    for start, stop in zip([0, *starts], [*starts, len(frame)] if frame else []):
        yield map(_EMPTY_FRAME.__mod__, range(after, frame[start]))
        yield islice(rows, stop - start)
        after = frame[stop - 1] + 1
    yield map(_EMPTY_FRAME.__mod__, range(after, result.frame_count))


def _frames_jsonl(result: AnalysisResult) -> Iterator[str]:
    """frames.jsonl as chunks of up to ``_CHUNK_LINES`` records, one record per frame."""
    lines = chain.from_iterable(_frame_lines(result))
    return iter(lambda: "".join(islice(lines, _CHUNK_LINES)), "")


def _run_meta(argv_echo: dict) -> str:
    return json.dumps({"run_time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), **argv_echo}, indent=2, allow_nan=False) + "\n"


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    log_path = Path(args.log)
    result = _checked(analyze_timeline, _load(log_path, parse_detection_log), cfg)
    outputs = {
        "events.txt": _events_text(result),
        "report.json": json.dumps(result.to_json_dict(), indent=2, allow_nan=False) + "\n",
        "frames.jsonl": _frames_jsonl(result),
        "run_meta.json": _run_meta({"log": str(log_path)}),
    }
    _write_outputs(Path(args.out), outputs)
    return _EXIT_OK


def _frame_suffix(name: str) -> tuple[str, int] | None:
    """``(stem, n)`` of a name ``<stem>_<n>``, ``n`` in ASCII digits; None for any other name."""
    stem, _, frame = name.rpartition("_")
    return (stem, int(frame)) if stem and frame.isascii() and frame.isdigit() else None


def _ground_truth_sources(
    gts_path: Path, stems: list[str]
) -> tuple[dict[str, list[tuple[int, Path]]], list[str]]:
    """Each prediction stem's ground-truth files with their first frames, and the unclaimed names.

    One pass over the sorted names, one match each. ``<stem>.txt`` is that
    stem's stream, from frame 0, and never a frame file of another stem;
    else the stem's files ``<stem>_<n>.txt`` start at ``n``, in frame order.
    A stem with a stream leaves its frame files unclaimed.
    """
    named = set(stems)
    sources: dict[str, list[tuple[int, Path]]] = {}
    frames: dict[str, list[tuple[int, Path]]] = {}
    unclaimed: list[str] = []
    txt_files = [p for p in gts_path.iterdir() if p.suffix == ".txt"]
    for path in sorted(txt_files, key=attrgetter("name")):  # the paths' order, compared faster
        suffix = _frame_suffix(path.stem)
        if path.stem in named:
            sources[path.stem] = [(0, path)]
        elif suffix and suffix[0] in named:
            frames.setdefault(suffix[0], []).append((suffix[1], path))
        else:
            unclaimed.append(path.name)
    for stem, members in frames.items():
        if stem in sources:
            unclaimed += (path.name for _, path in members)
        else:
            sources[stem] = sorted(members, key=itemgetter(0))  # stable: name order on a tie
    return sources, sorted(unclaimed)


def _collect_eval_inputs(preds_path: Path, gts_path: Path) -> tuple[Boxes, Boxes]:
    """Build the prediction and ground-truth boxes; inputs that do not pair up exit 3."""
    if preds_path.is_file() and gts_path.is_file():
        suffix = _frame_suffix(gts_path.stem)
        start = suffix[1] if suffix and suffix[0] == preds_path.stem else 0
        pairs = {preds_path.stem: (preds_path, [(start, gts_path)])}
    elif preds_path.is_dir() and gts_path.is_dir():
        pred_files = sorted(p for p in preds_path.iterdir() if p.suffix == ".txt")
        if not pred_files:
            raise _Exit(_EXIT_MISMATCH, f"no prediction logs (*.txt) in {preds_path}")
        stems = [p.stem for p in pred_files]
        by_stem, unclaimed = _ground_truth_sources(gts_path, stems)
        missing = [s for s in stems if s not in by_stem]
        if missing or unclaimed:
            parts = []
            if missing:
                parts.append(f"predictions without ground truth: {', '.join(missing)}")
            if unclaimed:
                parts.append(f"ground-truth files without predictions: {', '.join(unclaimed)}")
            raise _Exit(_EXIT_MISMATCH, "; ".join(parts))
        pairs = {stem: (preds_path / f"{stem}.txt", by_stem[stem]) for stem in stems}
    else:
        raise _Exit(
            _EXIT_MISMATCH, "predictions and ground truth must both be files or both be directories"
        )

    preds: list[tuple[str, Timeline]] = []
    gts: list[tuple[str, Timeline]] = []
    for stem, (pred_file, gt_files) in sorted(pairs.items()):
        timeline = _load(pred_file, parse_detection_log)
        preds.append((stem, timeline))
        geom = timeline.geometry
        for start, gt_file in gt_files:
            gts.append((stem, _load(gt_file, parse_ground_truth, geometry=geom, start_frame=start)))
    return records_from_timeline(preds), records_from_timeline(gts)


def cmd_evaluate(args: argparse.Namespace) -> int:
    _checked(check_thresholds, args.iou, args.conf)
    preds_path = Path(args.predictions)
    gts_path = Path(args.ground_truth)
    for path in (preds_path, gts_path):
        if not path.exists():
            raise _Exit(_EXIT_IO, f"{path}: no such file or directory")
    preds, gts = _collect_eval_inputs(preds_path, gts_path)
    report = evaluate(preds, gts, iou_threshold=args.iou, confusion_confidence=args.conf)
    table = report.to_table()
    outputs = {
        "eval_report.json": json.dumps(report.to_json_dict(), indent=2, allow_nan=False) + "\n",
        "eval_report.txt": table,
    }
    _write_outputs(Path(args.out), outputs)
    sys.stdout.write(table)
    return _EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    from .synth import _DEFAULT_GEOMETRY, Scenario, generate

    cfg = _load_config(args)
    geometry = cfg.geometry if cfg.geometry is not None else _DEFAULT_GEOMETRY
    scenario = _checked(
        Scenario,
        kind=BehaviourKind(args.kind),
        frames=args.frames,
        geometry=geometry,
        dropout_rate=args.dropout,
        position_noise=args.noise,
        seed=args.seed,
    )
    generated = generate(scenario, cfg._replace(geometry=geometry))
    outputs = {
        f"{args.kind}.log": generated.log_text,
        f"{args.kind}.expected.json": generated.expected_json(),
    }
    _write_outputs(Path(args.out), outputs)
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
    payload = _load(path, json.loads)
    try:
        table = render_activity_table(payload)
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        raise _Exit(_EXIT_PARSE, f"{path}: not a report.json: {exc!r}") from None
    sys.stdout.write(table)
    return _EXIT_OK


def _number_flag(cast: type) -> Callable[[str], int | float]:
    """An argparse type that reads numbers as the file parsers do: ASCII, no ``_``."""

    def parse(token: str) -> int | float:
        return _number(cast, token)

    parse.__name__ = cast.__name__  # argparse names the type in its error message
    return parse


def _add_threshold_flags(parser: argparse.ArgumentParser) -> None:
    for t in THRESHOLDS:
        if t.help is not None:
            flag = "--" + t.name.replace("_", "-")
            parser.add_argument(flag, dest=t.name, type=_number_flag(type(t.default)), help=t.help)


def build_parser() -> argparse.ArgumentParser:
    real, integer = _number_flag(float), _number_flag(int)
    parser = _Parser(prog="dragonwatch", description="Enclosure behaviour analytics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="classify behaviours in a detection log")
    p_analyze.add_argument("--log", required=True, help="detection log path")
    p_analyze.add_argument("--config", help="key = value config file")
    p_analyze.add_argument("--out", required=True, help="output directory")
    _add_threshold_flags(p_analyze)

    p_eval = sub.add_parser("evaluate", help="score predictions against ground truth")
    p_eval.add_argument("predictions", help="detection log file or directory of logs")
    p_eval.add_argument("ground_truth", help="ground-truth file or directory")
    p_eval.add_argument("--out", default=".", help="output directory (default: .)")
    p_eval.add_argument("--iou", type=real, default=0.5, help="IoU threshold (default 0.5)")
    p_eval.add_argument(
        "--conf", type=real, default=0.25, help="confusion-matrix confidence cut (default 0.25)"
    )

    p_sim = sub.add_parser("simulate", help="generate a synthetic scenario log")
    p_sim.add_argument(
        "--kind", required=True, choices=[k.value for k in BehaviourKind], help="scenario kind"
    )
    p_sim.add_argument("--frames", type=integer, default=200, help="clip length in frames")
    p_sim.add_argument("--seed", type=integer, default=0, help="generator seed")
    p_sim.add_argument("--dropout", type=real, default=0.0, help="detection dropout rate [0,1)")
    p_sim.add_argument("--noise", type=real, default=0.0, help="centre noise stddev, normalised")
    p_sim.add_argument("--config", help="config file supplying thresholds and geometry")
    p_sim.add_argument("--out", required=True, help="output directory")

    p_report = sub.add_parser("report", help="summarise a report.json")
    p_report.add_argument("report", help="path to report.json")
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every :func:`main` call, built by the first: a build takes far longer than a parse."""
    return build_parser()


def _stop(signum: int, frame: object) -> None:
    raise _Exit(_EXIT_STOPPED, f"stopped by {signal.Signals(signum).name}")


def _catch_stop_signals() -> dict[int, Any]:
    """Make each stop signal at its default action raise an exit in the running command.

    Returns the handlers replaced, by signal. Leaves alone a signal the
    process handles or ignores (``nohup`` ignores SIGHUP), and every signal
    off the main thread, where Python cannot set a handler.
    """
    replaced = {}
    for signum in _STOP_SIGNALS:
        if signal.getsignal(signum) is signal.SIG_DFL:
            try:
                replaced[signum] = signal.signal(signum, _stop)
            except ValueError:  # not the main thread
                break
    return replaced


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand; the only place an input failure or a stop signal becomes an exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # --help, or a flag error _Parser.error has reported
        return int(exc.code or 0)
    replaced = _catch_stop_signals()
    try:
        # the module's cmd_<command> at call time: the parser, built once, holds no function
        return globals()[f"cmd_{args.command}"](args)
    except _Exit as exc:
        sys.stderr.write(str(exc).rstrip() + "\n")
        return exc.code
    finally:
        for signum, handler in replaced.items():
            signal.signal(signum, handler)


if __name__ == "__main__":
    sys.exit(main())
