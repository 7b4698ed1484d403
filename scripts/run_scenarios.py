#!/usr/bin/env python3
"""Simulate the three scenario kinds, analyze each, and print their activity tables.

Each scenario is written to <out>/<kind>/ by ``dragonwatch simulate``, then
analyzed there by ``dragonwatch analyze`` and summarised by ``dragonwatch
report``, so the artifacts can be inspected or re-rendered with the CLI:

    python scripts/run_scenarios.py --out scenario_runs --noise 0.004 --dropout 0.1

Values are passed to the CLI as given; it validates them. The exit code is
the first non-zero CLI exit code, or 0.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dragonwatch.behaviour import BehaviourKind
from dragonwatch.cli import main as dragonwatch


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="scenario_runs", help="output directory")
    parser.add_argument("--frames", default="600")
    parser.add_argument("--seed", default="7")
    parser.add_argument("--noise", default="0.0", help="centre noise stddev")
    parser.add_argument("--dropout", default="0.0", help="detection dropout rate")
    args = parser.parse_args(argv)

    for kind in (k.value for k in BehaviourKind):
        out_dir = Path(args.out) / kind
        print(f"== {kind} ==")
        steps = [
            ["simulate", "--kind", kind, "--frames", args.frames, "--seed", args.seed,
             "--noise", args.noise, "--dropout", args.dropout, "--out", str(out_dir)],
            ["analyze", "--log", str(out_dir / f"{kind}.log"), "--out", str(out_dir)],
            ["report", str(out_dir / "report.json")],
        ]
        for step in steps:
            code = dragonwatch(step)
            if code:
                return code
        print()
    print(f"artifacts written under {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
