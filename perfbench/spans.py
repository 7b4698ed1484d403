"""Traced runs measured from outside the program.

Wraps dragonwatch's public functions at the sites they are imported into,
records one span per call (name, start, end, parent) in memory, and counts
work from the arguments and results. A layer's self time is its span's
duration minus the time covered by its child spans.

Functions a later version of dragonwatch no longer has are reported as
absent instead of failing the run. ``installed`` always puts the original
functions back.
"""

from __future__ import annotations

import importlib
import json
import statistics
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator


def _text_lines(text) -> int:
    if not isinstance(text, str):
        return 0
    return text.count("\n") + (1 if text and not text.endswith("\n") else 0)


def _count_parse(counts, args, result) -> None:
    counts["ingest.lines_in"] += _text_lines(args[0])
    counts["ingest.detections_out"] += result.detection_count


def _count_parse_gt(counts, args, result) -> None:
    counts["ingest.lines_in"] += _text_lines(args[0])
    counts["ingest.detections_out"] += len(result)


def _count_reduce(counts, args, result) -> None:
    timeline = args[0]
    counts["tracks.duplicates_collapsed"] += sum(
        len(timeline.detections_for(track.label)) - len(track) for track in result
    )


def _count_associate(counts, args, result) -> None:
    counts["tracks.cricket_tracks_out"] += len(result)


def _count_fill(counts, args, result) -> None:
    counts["tracks.frames_interpolated"] += len(result) - len(args[0])


def _count_hunting(counts, args, result) -> None:
    counts["behaviour.hunting_events"] += len(result)
    counts["behaviour.hunting_tracks"] += len(args[0])


def _count_resolve(counts, args, result) -> None:
    counts["behaviour.frames_resolved"] += len(result)


def _count_evaluate(counts, args, result) -> None:
    counts["evaluation.predictions"] += len(args[0])


# (layer, module, attribute, counter). Layer None on ``main`` means
# "cli.<subcommand>", so argument parsing is charged to the command it runs.
TARGETS: tuple[tuple[str | None, str, str, Callable | None], ...] = (
    (None, "dragonwatch.cli", "main", None),
    ("cli.analyze", "dragonwatch.cli", "cmd_analyze", None),
    ("cli.evaluate", "dragonwatch.cli", "cmd_evaluate", None),
    ("ingest.parse_detection_log", "dragonwatch.cli", "parse_detection_log", _count_parse),
    ("ingest.parse_ground_truth_lines", "dragonwatch.cli", "parse_ground_truth_lines", _count_parse_gt),
    ("evaluation.records_from_timeline", "dragonwatch.cli", "records_from_timeline", None),
    ("evaluation.evaluate", "dragonwatch.cli", "evaluate", _count_evaluate),
    ("pipeline.analyze_timeline", "dragonwatch.cli", "analyze_timeline", None),
    ("tracks.reduce_per_frame", "dragonwatch.pipeline", "reduce_per_frame", _count_reduce),
    ("tracks.associate_crickets", "dragonwatch.pipeline", "associate_crickets", _count_associate),
    ("tracks.fill_gaps", "dragonwatch.pipeline", "fill_gaps", _count_fill),
    ("behaviour.detect_hunting", "dragonwatch.pipeline", "detect_hunting", _count_hunting),
    ("behaviour.resolve_frame_states", "dragonwatch.pipeline", "resolve_frame_states", _count_resolve),
    ("behaviour.episodes", "dragonwatch.pipeline", "demote_short_basking", None),
    ("behaviour.episodes", "dragonwatch.pipeline", "run_length_episodes", None),
    ("activity.activity_reports", "dragonwatch.pipeline", "activity_reports", None),
    ("evaluation.average_precision", "dragonwatch.evaluation", "average_precision", None),
    ("evaluation.map_range", "dragonwatch.evaluation", "map_range", None),
    ("evaluation.f1_sweep", "dragonwatch.evaluation", "f1_sweep", None),
    ("evaluation.confusion_matrix", "dragonwatch.evaluation", "confusion_matrix", None),
    ("model.Timeline.build", "dragonwatch.model", "Timeline.build", None),
)
# Called ~25 times per prediction: counted only, since a span each would
# multiply the cost of evaluation.
COUNTED = (("evaluation.iou_calls", "dragonwatch.evaluation", "iou"),)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS if layer))


class Tracer:
    """Spans and counts of traced operations, kept in memory until written."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.ops: list[dict] = []  # per operation: self time per layer plus counts
        self.absent: set[str] = set()
        self.count_errors: set[str] = set()
        self._stack: list[list] = []  # [span index, child time]
        self._self: dict[str, float] = {}
        self._counts: Counter[str] = Counter()

    def begin_op(self) -> None:
        self._self = dict.fromkeys(LAYERS, 0.0)
        self._counts = Counter()

    def end_op(self, counts: dict[str, int] | None = None) -> None:
        """Close the operation; ``counts`` adds ones measured outside the program."""
        self._counts.update(counts or {})
        self.ops.append({"self_s": self._self, "counts": self._counts})

    def wrap(self, layer: str | None, fn: Callable, count: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            name = layer if layer else f"cli.{args[0][0] if args and args[0] else 'main'}"
            index = len(spans)
            spans.append(None)  # type: ignore[arg-type]
            parent = stack[-1][0] if stack else None
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self._self[name] = self._self.get(name, 0.0) + duration - frame[1]
                self._counts[f"{name}.calls"] += 1
                spans[index] = (len(self.ops), name, start, end, parent)
            if count is not None:
                try:
                    count(self._counts, args, result)
                except Exception:  # a changed signature loses the count, not the run
                    self.count_errors.add(name)
            return result

        return traced

    def wrap_counted(self, key: str, fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            self._counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def metrics(self, traced_times: list[float], untraced_times: list[float]) -> dict[str, float]:
        """Per-layer metrics: medians over the traced operations."""

        def med(values) -> float:
            return float(statistics.median(values)) if values else 0.0

        def count(key: str) -> list[int]:
            return [op["counts"].get(key, 0) for op in self.ops]

        out = {f"{layer}.self_s": med([op["self_s"].get(layer, 0.0) for op in self.ops]) for layer in LAYERS}
        for key in (
            "ingest.lines_in",
            "ingest.detections_out",
            "tracks.cricket_tracks_out",
            "tracks.duplicates_collapsed",
            "tracks.frames_interpolated",
            "behaviour.frames_resolved",
            "evaluation.iou_calls",
            "evaluation.average_precision.calls",
            "cli.bytes_written",
        ):
            out[key] = med(count(key))

        def ratio(num: str, den: str) -> float:
            # 0/0 (no cricket tracks, no predictions) is reported as 0
            return med([n / d if d else 0.0 for n, d in zip(count(num), count(den))])

        out["behaviour.hunting_events_per_track"] = ratio("behaviour.hunting_events", "behaviour.hunting_tracks")
        out["evaluation.iou_calls_per_pred"] = ratio("evaluation.iou_calls", "evaluation.predictions")
        out["trace.overhead_ratio"] = med(traced_times) / med(untraced_times) - 1 if untraced_times else 0.0
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for op, name, start, end, parent in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "start": start, "end": end, "parent": parent}) + "\n")


def _resolve(module: str, attr: str):
    """(owner, leaf name, raw attribute) or None when the target is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
    return None if raw is None else (owner, leaf, raw)


@contextmanager
def installed(tracer: Tracer, targets=TARGETS, counted=COUNTED) -> Iterator[Tracer]:
    """Wrap every target for the duration of the block, then restore the originals."""
    jobs = [(module, attr, lambda fn, layer=layer, count=count: tracer.wrap(layer, fn, count))
            for layer, module, attr, count in targets]
    jobs += [(module, attr, lambda fn, key=key: tracer.wrap_counted(key, fn))
             for key, module, attr in counted]
    patched = []
    try:
        for module, attr, make in jobs:
            found = _resolve(module, attr)
            if found is None:
                tracer.absent.add(f"{module}.{attr}")
                continue
            owner, leaf, raw = found
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, leaf, type(raw)(make(raw.__func__)))
            else:
                setattr(owner, leaf, make(raw))
            patched.append((owner, leaf, raw))
        yield tracer
    finally:
        for owner, leaf, raw in reversed(patched):
            setattr(owner, leaf, raw)
