"""dragonwatch benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload clip-day --seed 0 --seconds 25 --trace 0

Run from anywhere inside a checkout; the program under test is the
checkout's own ``src/dragonwatch``. Each run is a fresh interpreter, so peak
memory belongs to its workload alone. The run

1. generates the workload's inputs from ``--seed`` (not timed),
2. with ``--trace 0``, times fresh interpreters importing ``dragonwatch.cli``
   (``setup_s``), each paired with a bare interpreter, half of the pairs
   before the operation loop and half after it,
3. imports dragonwatch and runs the operation loop for ``--seconds``
   seconds, checking every operation's outputs and timing a fixed
   calibration loop between operations, to scale their times to the
   reference host's speed,
4. prints an ``info`` line with sample counts, raw wall-time figures,
   versions and calibration times, then the result as the last line of
   standard output.

The loop is closed, with one client: each operation is one in-process
``dragonwatch.cli.main`` call on the next clip, run after the previous one
finished and was checked. The first pass over the clips warms up and is
checked but not timed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones, from a run in which every second pass over the clips is
traced; the other passes give the untraced times the overhead is measured
against. Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import gen
from checks import Checker
from spans import Tracer, installed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = HERE / "digests.json"
SETUP_RUNS = 8  # timed pairs of interpreters before the operation loop, and again after it
# Start-up of a bare ``python3 -c pass`` on the 2-vCPU Xeon VM baseline.json
# was measured on: setup_s is the import's time in units of the bare
# interpreter's, measured alongside it, times this constant.
REFERENCE_BARE_S = 0.055
# The fixed pure-Python loop's time on that VM (``calibrate``). The loop runs
# before every operation and after the last, and the operation times the
# metrics are made of are wall times scaled by this over the mean of the
# loop's times on either side of the operation.
REFERENCE_CALIBRATION_S = 0.0053
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples beyond it
MIN_TIMED_OPS = 4


def setup_env() -> dict[str, str]:
    """The environment of the timed imports: the checkout's sources, one BLAS thread.

    numpy starts a BLAS thread pool on import, one thread per CPU, whose
    start-up time follows how busy the host's other CPUs are rather than the
    program; with one thread the import time is the program's own.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _time_interpreter(env: dict[str, str], code: str) -> float:
    """Wall time of a fresh interpreter running ``code``."""
    cmd = [sys.executable, "-c", code]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
    # a blocking wait: Popen.wait(timeout) polls every 50 ms, which would
    # round the measured time up to the next poll
    guard = threading.Timer(60, proc.kill)
    guard.start()
    try:
        rc = proc.wait()
    finally:
        guard.cancel()
    elapsed = time.perf_counter() - start
    if rc != 0:
        raise subprocess.CalledProcessError(rc, cmd)
    return elapsed


def measure_setup(env: dict[str, str], warm: bool) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing dragonwatch.cli, and of bare ones.

    Each import directly follows a bare interpreter, whose start-up the
    program cannot change, so the pair's ratio is the import's cost at the
    host speed of that moment. ``warm`` adds a first, untimed import that
    compiles the bytecode cache.
    """
    if warm:
        _time_interpreter(env, "import dragonwatch.cli")
    imports, bare = [], []
    for _ in range(SETUP_RUNS):
        bare.append(_time_interpreter(env, "pass"))
        imports.append(_time_interpreter(env, "import dragonwatch.cli"))
    return imports, bare


def calibrate() -> float:
    """Time of a fixed pure-Python loop: the host's speed at this moment."""
    start = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def host_scaled(op: dict) -> float:
    """An operation's wall time at the reference host's speed."""
    return op["seconds"] * REFERENCE_CALIBRATION_S / op["calibration_s"]


def cli_main(argv: list[str]) -> int:
    """``dragonwatch.cli.main``, looked up on every call, so a traced run calls its wrapper."""
    return sys.modules["dragonwatch.cli"].main(argv)


def run_ops(main, clips: list[dict], checker: Checker, seconds: float, trace: bool) -> dict:
    """The operation loop. Returns per-operation records, failure details and the tracer."""
    ops = []
    speeds = []  # calibration times, one before each operation and one after the last
    failures: list[str] = []
    tracer = Tracer()
    deadline = None
    i = 0
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        while True:
            warm = i < len(clips)
            if not warm and deadline is None:
                deadline = time.perf_counter() + seconds
            timed = i - len(clips)
            if deadline is not None and time.perf_counter() >= deadline and timed >= MIN_TIMED_OPS:
                break
            index = i % len(clips)
            # whole passes over the clips alternate, so traced and untraced
            # operations see the same mix of clips
            traced = trace and not warm and (i // len(clips)) % 2 == 0
            out = Path(clips[index]["out"])
            # the previous run's outputs go, so only this operation's are checked
            shutil.rmtree(out, ignore_errors=True)
            gc.collect()
            speeds.append(calibrate())
            rc = None
            with contextlib.ExitStack() as stack:
                if traced:
                    stack.enter_context(installed(tracer))
                    tracer.begin_op()
                start = time.perf_counter()
                try:
                    rc = main(clips[index]["argv"])
                except Exception:
                    failures.append(traceback.format_exc())
                elapsed = time.perf_counter() - start
                if traced:
                    written = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
                    tracer.end_op({"cli.bytes_written": written})
            problem = None if rc == 0 else f"{clips[index]['name']}: exit code {rc}"
            if problem is None:
                problem = checker.check(index)
            if problem is not None:
                failures.append(problem)
            ops.append({"clip": index, "seconds": elapsed, "warm": warm, "traced": traced,
                        "ok": problem is None})
            i += 1
    speeds.append(calibrate())
    for op, before, after in zip(ops, speeds, speeds[1:]):
        op["calibration_s"] = (before + after) / 2
    return {"ops": ops, "failures": failures, "tracer": tracer}


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "dragonwatch" / "cli.py").is_file():
        sys.stderr.write(f"no dragonwatch sources under {src}; run from a full checkout\n")
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pinned_all = json.loads(PINNED.read_text(encoding="utf-8")) if PINNED.is_file() else {}
    pinned = pinned_all["workloads"][args.workload] if pinned_all.get("seed") == args.seed else None
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        clips = gen.generate(args.workload, args.seed, work)
        # set-up is sampled on both sides of the operation loop, so that it
        # sees the host's speed over the run as the operations do
        env = setup_env()
        setup, bare = measure_setup(env, warm=True) if not args.trace else ([], [])

        sys.path.insert(0, str(src))
        import dragonwatch.cli
        import numpy

        if not Path(dragonwatch.cli.__file__).resolve().is_relative_to(src):
            sys.stderr.write(f"dragonwatch imported from {dragonwatch.cli.__file__}, not {src}\n")
            return 2
        checker = Checker(clips, pinned)
        loop = run_ops(cli_main, clips, checker, args.seconds, bool(args.trace))
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not args.trace:
            after = measure_setup(env, warm=False)
            setup += after[0]
            bare += after[1]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = loop["ops"]
    for problem in loop["failures"][:5]:
        sys.stderr.write(problem.rstrip() + "\n")
    timed = [op for op in ops if not op["warm"] and not op["traced"]]
    times = [host_scaled(op) for op in timed]
    wall = [op["seconds"] for op in timed]
    lines = sum(clips[op["clip"]]["lines"] for op in timed)
    attempted = len(ops)
    failed = sum(1 for op in ops if not op["ok"])
    tail_value, tail_pct = tail(times)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "check": "pinned digests" if pinned is not None else "structural, then repeat digests",
        "ops_attempted": attempted,
        "ops_failed": failed,
        "ops_failed_ratio": failed / attempted,
        "timed_samples": len(times),
        "op_tail_percentile": round(tail_pct, 2),
        # not gated: runs that mix the host's two speed levels in different
        # shares move the median of even the host-scaled times by more than
        # the tail and the throughput
        "op_p50_s": statistics.median(times),
        "op_tail_wall_s": tail(wall)[0],
        "op_p50_wall_s": statistics.median(wall),
        "lines_per_wall_s": lines / sum(wall),
        "setup_samples": len(setup),
        "setup_wall_s": statistics.median(setup) if setup else None,
        "bare_interpreter_s": statistics.median(bare) if bare else None,
        "calibration_s": statistics.quantiles([op["calibration_s"] for op in ops], n=4),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }
    if args.trace:
        tracer = loop["tracer"]
        traced = [op for op in ops if op["traced"]]
        values = tracer.metrics([host_scaled(op) for op in traced], times)
        info.update(
            traced_samples=len(traced),
            traced_op_p50_wall_s=statistics.median(op["seconds"] for op in traced),
            self_time_sum_s=statistics.median(sum(op["self_s"].values()) for op in tracer.ops),
            absent=sorted(tracer.absent),
            count_errors=sorted(tracer.count_errors),
        )
        tracer.write(ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        values = {
            "op_tail_s": tail_value,
            "lines_per_s": lines / sum(times),
            "peak_rss_mib": peak_rss_mib,
            # the host's speed swings move both interpreters of a pair alike
            # and cancel in their ratio; the raw import time is setup_wall_s
            "setup_s": statistics.median(i / b for i, b in zip(setup, bare)) * REFERENCE_BARE_S,
        }
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        sys.stderr.write(f"no measurement for {', '.join(missing)}\n")
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print("info " + json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
