"""Pin the output digests that runs with the default seed are checked against.

    python3 perfbench/pin.py

Generates every workload's inputs for seed 0, runs each clip once through
the checkout's dragonwatch, requires the structural checks to pass and
writes the SHA-256 digests of the outputs to perfbench/digests.json. Re-pin
only when a change to dragonwatch alters its outputs on purpose.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

import gen
from checks import digests, structure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 0


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from dragonwatch.cli import main as cli_main

    work = ROOT / ".perfbench_work" / f"pin-{os.getpid()}"
    pinned = {}
    try:
        for workload in gen.WORKLOADS:
            sets = []
            for clip in gen.generate(workload, SEED, work / workload):
                with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
                    rc = cli_main(clip["argv"])
                problem = f"exit code {rc}" if rc else structure(clip)
                if problem is not None:
                    sys.stderr.write(f"{workload} {clip['name']}: {problem}\n")
                    return 1
                sets.append(digests(clip))
            pinned[workload] = sets
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = HERE / "digests.json"
    out.write_text(json.dumps({"seed": SEED, "workloads": pinned}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
