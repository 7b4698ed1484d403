"""Smoke tests for the scripts under scripts/, run as scripts."""

import os
import re
import runpy
import shutil
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


def assert_goldens_pass(python: str, env: dict[str, str] | None = None) -> None:
    done = subprocess.run([python, str(GOLDENS)], capture_output=True, text=True, timeout=600, env=env)
    assert done.returncode == 0, done.stderr
    counts = dict(re.findall(r"^(test_\w+): (\d+ passed, \d+ failed)$", done.stdout, re.M))
    assert set(counts) == {
        "test_golden_eval", "test_golden_analyze", "test_golden_parse_errors", "test_records"
    }
    for name, count in counts.items():
        assert re.fullmatch(r"[1-9]\d* passed, 0 failed", count), (name, count)


def test_run_goldens_passes_under_this_interpreter():
    """The stdlib-only golden runner, which other Pythons use, runs every golden file here."""
    assert_goldens_pass(sys.executable)


def probe_version(python: str, env: dict[str, str] | None = None) -> str | None:
    """The ``X.Y`` version ``python`` reports, or None when it does not start."""
    try:
        probe = subprocess.run(
            [python, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
            capture_output=True, text=True, timeout=60, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return probe.stdout.strip() if probe.returncode == 0 else None


def pyenv_environment(version: str) -> dict[str, str] | None:
    """The environment that selects an installed pyenv ``version``.* for the shims, or None."""
    pyenv = shutil.which("pyenv")
    if pyenv is None:
        return None
    try:
        listed = subprocess.run([pyenv, "versions", "--bare"], capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    installed = [v for v in listed.stdout.split() if re.fullmatch(re.escape(version) + r"\.\d+", v)]
    if listed.returncode != 0 or not installed:
        return None
    newest = max(installed, key=lambda v: int(v.rsplit(".", 1)[1]))
    return dict(os.environ, PYENV_VERSION=newest)


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_run_goldens_passes_under_other_pythons(version):
    """The pinned outputs are the same bytes under each ``python3.X`` on PATH that starts.

    A pyenv shim starts no interpreter until a version is selected, so when
    ``python3.X`` does not start, the newest installed pyenv ``3.X.*`` is
    selected through ``PYENV_VERSION``.
    """
    python = shutil.which(f"python{version}")
    if python is None:
        pytest.skip(f"python{version} is not on PATH")
    env = None
    found = probe_version(python)
    if found is None:
        env = pyenv_environment(version)
        if env is None:
            pytest.skip(f"python{version} does not start, and pyenv has no {version}.* installed")
        found = probe_version(python, env)
    if found != version:
        pytest.skip(f"python{version} does not start or is another version: {found!r}")
    assert_goldens_pass(python, env)
