"""Smoke test for scripts/run_scenarios.py, run as a script."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_scenarios.py"
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
