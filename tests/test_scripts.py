"""Smoke tests for the scripts under scripts/, run as scripts."""

import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_scenarios.py"
GOLDENS = SCRIPT.parent / "run_goldens.py"
ANALYZE_OUTPUTS = ("events.txt", "report.json", "frames.jsonl", "run_meta.json")


def test_run_scenarios_writes_every_output(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--out", str(tmp_path), "--frames", "60"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    assert exit_info.value.code == 0
    for kind in ("idle", "basking", "hunting"):
        written = {p.name for p in (tmp_path / kind).iterdir()}
        assert written == {f"{kind}.log", f"{kind}.expected.json", *ANALYZE_OUTPUTS}
    assert capsys.readouterr().out.count("hunting events:") == 3


def test_run_goldens_passes_under_this_interpreter():
    """The stdlib-only golden runner, which other Pythons use, runs every golden file here."""
    done = subprocess.run([sys.executable, str(GOLDENS)], capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    counts = dict(re.findall(r"^(test_golden_\w+): (\d+ passed, \d+ failed)$", done.stdout, re.M))
    assert set(counts) == {"test_golden_eval", "test_golden_analyze", "test_golden_parse_errors"}
    for name, count in counts.items():
        assert re.fullmatch(r"[1-9]\d* passed, 0 failed", count), (name, count)
