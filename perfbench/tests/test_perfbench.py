"""Tests of the benchmark itself: inputs, output checks and tracing.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import dragonwatch.cli
import dragonwatch.model
import gen
import spans
from checks import Checker, digests, structure
from run import cli_main, run_ops, tail

# small enough to keep each test well under a second per operation
SMALL = {"clip-day": 1400, "clip-swarm": 60, "clip-night": 2000, "eval-batch": 30}


def _inputs(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "clips.json"
    }


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    gen.generate(workload, 7, tmp_path / "a", frames=SMALL[workload])
    gen.generate(workload, 7, tmp_path / "b", frames=SMALL[workload])
    gen.generate(workload, 8, tmp_path / "c", frames=SMALL[workload])
    a, b, c = (_inputs(tmp_path / name) for name in "abc")
    assert a and a == b
    assert a.keys() == c.keys() and a != c


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_outputs_pass_structural_checks(tmp_path, workload):
    for clip in gen.generate(workload, 3, tmp_path, frames=SMALL[workload]):
        assert dragonwatch.cli.main(clip["argv"]) == 0
        assert structure(clip) is None


def test_unreported_scripted_eat_fails_structural_check(tmp_path):
    clip = gen.generate("clip-swarm", 3, tmp_path, clips=1, frames=SMALL["clip-swarm"])[0]
    assert dragonwatch.cli.main(clip["argv"]) == 0
    assert clip["eaten_frames"] and structure(clip) is None
    missed = dict(clip, eaten_frames=sorted(clip["eaten_frames"] + [clip["frame_count"] - 1]))
    assert "hunting events" in structure(missed)


def _flip_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("fault", ["flipped byte", "nothing written"])
@pytest.mark.parametrize("pinned", [True, False])
def test_bad_outputs_count_as_failed_operations(tmp_path, pinned, fault):
    clips = gen.generate("clip-day", 5, tmp_path, frames=SMALL["clip-day"])
    reference = None
    if pinned:
        reference = []
        for clip in clips:
            dragonwatch.cli.main(clip["argv"])
            reference.append(digests(clip))
    calls = []

    def faulty_main(argv):
        calls.append(argv)
        if len(calls) <= len(clips):  # the warm-up pass stays clean
            return dragonwatch.cli.main(argv)
        if fault == "nothing written":  # claims success, leaves no outputs
            return 0
        rc = dragonwatch.cli.main(argv)
        _flip_byte(Path(argv[argv.index("--out") + 1]) / "frames.jsonl")
        return rc

    loop = run_ops(faulty_main, clips, Checker(clips, reference), seconds=0.0, trace=False)
    ok = [op["ok"] for op in loop["ops"]]
    assert ok[: len(clips)] == [True] * len(clips)
    assert len(ok) > len(clips) and not any(ok[len(clips):])
    assert all("frames.jsonl" in f or "digest" in f for f in loop["failures"])


def test_traced_loop_roots_each_operation_at_wrapped_main(tmp_path):
    clips = gen.generate("clip-day", 4, tmp_path, clips=1, frames=SMALL["clip-day"])
    loop = run_ops(cli_main, clips, Checker(clips), seconds=0.0, trace=True)
    assert all(op["ok"] for op in loop["ops"])
    tracer = loop["tracer"]
    roots = [i for i, span in enumerate(tracer.spans) if span[4] is None]
    assert len(roots) == len(tracer.ops) == sum(op["traced"] for op in loop["ops"]) > 0
    for root in roots:
        # main's span is named after its subcommand and has cmd_analyze's span below it
        assert tracer.spans[root][1] == "cli.analyze"
        assert "cli.analyze" in {span[1] for span in tracer.spans if span[4] == root}


def test_pinned_digests_match_default_seed_clip_count():
    pinned = json.loads((Path(gen.__file__).parent / "digests.json").read_text(encoding="utf-8"))
    assert set(pinned["workloads"]) == set(gen.WORKLOADS)
    assert all(len(sets) == gen.CLIPS_PER_RUN for sets in pinned["workloads"].values())


def _originals():
    found = {}
    for _, module, attr, *_ in spans.TARGETS + spans.COUNTED:
        owner, leaf, raw = spans._resolve(module, attr)
        found[(module, attr)] = (owner, leaf, raw)
    return found


@pytest.mark.parametrize("workload", ["clip-swarm", "eval-batch"])
def test_traced_run_matches_untraced_and_unwraps(tmp_path, workload):
    clip = gen.generate(workload, 2, tmp_path, clips=1, frames=SMALL[workload])[0]
    assert dragonwatch.cli.main(clip["argv"]) == 0
    untraced = digests(clip)
    before = _originals()

    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert dragonwatch.model.Timeline.build is not before[("dragonwatch.model", "Timeline.build")][2]
        tracer.begin_op()
        assert dragonwatch.cli.main(clip["argv"]) == 0
        tracer.end_op()
    assert digests(clip) == untraced
    for (owner, leaf, raw) in before.values():
        current = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        assert current is raw
    assert not tracer.absent and not tracer.count_errors

    # self times add up to the root span, the whole operation
    root = [s for s in tracer.spans if s[4] is None]
    assert len(root) == 1
    total = sum(tracer.ops[0]["self_s"].values())
    assert total == pytest.approx(root[0][3] - root[0][2], rel=1e-9)
    metrics = tracer.metrics([1.0], [1.0])
    if workload == "eval-batch":
        assert metrics["evaluation.iou_calls"] > 0
        assert metrics["evaluation.average_precision.calls"] > 0
    else:
        assert metrics["tracks.cricket_tracks_out"] == 30


def test_missing_wrap_target_is_reported_absent(tmp_path):
    clip = gen.generate("clip-night", 1, tmp_path, clips=1, frames=SMALL["clip-night"])[0]
    gone = (
        ("gone.layer", "dragonwatch.cli", "no_such_function", None),
        ("gone.module", "dragonwatch.no_such_module", "f", None),
    )
    tracer = spans.Tracer()
    with spans.installed(tracer, targets=spans.TARGETS + gone):
        tracer.begin_op()
        assert dragonwatch.cli.main(clip["argv"]) == 0
        tracer.end_op()
    assert tracer.absent == {"dragonwatch.cli.no_such_function", "dragonwatch.no_such_module.f"}
    assert not hasattr(dragonwatch.cli, "no_such_function")


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail([float(x) for x in range(1, 101)]) == (90.0, 90.0)
    assert tail([float(x) for x in range(40, 0, -1)]) == (30.0, 75.0)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
