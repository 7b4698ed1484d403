#!/usr/bin/env python3
"""Run the golden and record tests on any Python, with the standard library only.

The pinned outputs must be the same bytes on every supported Python, and
every record class must get the same fields from its annotations, but an
interpreter without pytest and hypothesis cannot run the suite. This script
stands in for both: it installs small stand-ins for the parts of pytest the
files below use (``fixture``, ``raises``, ``mark.parametrize`` with an
optional ``ids`` function, and the ``tmp_path``, ``tmp_path_factory``,
``capsys`` and ``monkeypatch`` fixtures) and for hypothesis's strategies,
which ``tests/helpers.py`` builds at import but these tests never draw
from. Then it runs every module-level test function of

    tests/test_golden_eval.py
    tests/test_golden_analyze.py
    tests/test_golden_parse_errors.py
    tests/test_records.py

and prints one line per file and a total. Run it with the interpreter to
check, from anywhere:

    /path/to/python3.13 scripts/run_goldens.py

The exit code is 0 when every test passed, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import itertools
import shutil
import sys
import tempfile
import traceback
import types
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TEST_FILES = ("test_golden_eval", "test_golden_analyze", "test_golden_parse_errors", "test_records")


class _Anything:
    """Every attribute and every call gives the same object: a strategy no test draws from."""

    def __getattr__(self, name: str) -> "_Anything":
        return self

    def __call__(self, *args: Any, **kwargs: Any) -> "_Anything":
        return self


class _Mark:
    @staticmethod
    def parametrize(names: str, values: list, ids: Callable[[Any], str] | None = None) -> Callable:
        def mark(test: Callable) -> Callable:
            test.__dict__.setdefault("parametrize", []).append(
                ([name.strip() for name in names.split(",")], list(values), ids)
            )
            return test

        return mark


@contextlib.contextmanager
def _raises(expected: type[BaseException]) -> Iterator[None]:
    """``with pytest.raises(expected):``: the block must raise ``expected``."""
    try:
        yield
    except expected:
        return
    raise AssertionError(f"DID NOT RAISE {expected.__name__}")


def _fixture(function: Callable | None = None, **_: Any) -> Any:
    """``@pytest.fixture`` or ``@pytest.fixture(scope=...)``: tags the function."""

    def tag(f: Callable) -> Callable:
        f.is_fixture = True  # type: ignore[attr-defined]
        return f

    return tag(function) if function is not None else tag


def install_stand_ins() -> None:
    """Put the pytest and hypothesis stand-ins in ``sys.modules``, over any real ones."""
    pytest = types.ModuleType("pytest")
    pytest.fixture = _fixture  # type: ignore[attr-defined]
    pytest.raises = _raises  # type: ignore[attr-defined]
    pytest.mark = _Mark()  # type: ignore[attr-defined]
    hypothesis = types.ModuleType("hypothesis")
    strategies = _Anything()
    hypothesis.strategies = strategies  # type: ignore[attr-defined]
    hypothesis.given = hypothesis.settings = hypothesis.example = strategies  # type: ignore[attr-defined]
    sys.modules.update({"pytest": pytest, "hypothesis": hypothesis, "hypothesis.strategies": strategies})  # type: ignore[dict-item]


class CaptureResult(NamedTuple):
    out: str
    err: str


class Capsys:
    def __init__(self) -> None:
        self.out, self.err = io.StringIO(), io.StringIO()

    def readouterr(self) -> CaptureResult:
        result = CaptureResult(self.out.getvalue(), self.err.getvalue())
        self.out.seek(0), self.out.truncate()
        self.err.seek(0), self.err.truncate()
        return result


class MonkeyPatch:
    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def setattr(self, target: object, name: str, value: object) -> None:
        self._undo.append((target, name, getattr(target, name)))
        setattr(target, name, value)

    def undo(self) -> None:
        for target, name, value in reversed(self._undo):
            setattr(target, name, value)
        self._undo.clear()


class TmpPathFactory:
    def __init__(self, root: Path) -> None:
        self._root = root
        self._made = itertools.count()

    def mktemp(self, name: str) -> Path:
        path = self._root / f"{name}{next(self._made)}"
        path.mkdir()
        return path


def _cases(test: Callable) -> list[tuple[str, dict[str, Any]]]:
    """The test's parameter sets, with ids, as pytest's stacked ``parametrize`` would make them."""
    cases: list[tuple[str, dict[str, Any]]] = [("", {})]
    for names, values, ids in reversed(test.__dict__.get("parametrize", [])):
        rows = [value if len(names) > 1 else (value,) for value in values]
        cases = [
            (f"{case_id}-{'-'.join(map(ids or str, row))}".lstrip("-"), {**kwargs, **dict(zip(names, row))})
            for case_id, kwargs in cases
            for row in rows
        ]
    return cases


def run_module(name: str, factory: TmpPathFactory) -> tuple[int, list[str]]:
    """Run every test function of ``tests/<name>.py``: (passed count, failure reports)."""
    module = importlib.import_module(name)
    members = inspect.getmembers(module, inspect.isfunction)
    fixtures = {n: f for n, f in members if getattr(f, "is_fixture", False)}
    module_values: dict[str, Any] = {}  # module fixtures are made once, as scope="module" asks
    passed, failures = 0, []
    for test_name, test in members:
        if not test_name.startswith("test_") or test.__module__ != name:
            continue
        for case_id, params in _cases(test):
            capsys, monkeypatch = Capsys(), MonkeyPatch()
            builtins = {
                "tmp_path": factory.mktemp(test_name),
                "tmp_path_factory": factory,
                "capsys": capsys,
                "monkeypatch": monkeypatch,
            }
            kwargs = {}
            for arg in inspect.signature(test).parameters:
                if arg in params:
                    kwargs[arg] = params[arg]
                elif arg in builtins:
                    kwargs[arg] = builtins[arg]
                else:
                    if arg not in module_values:
                        fixture = fixtures[arg]
                        module_values[arg] = fixture(
                            *(builtins[a] for a in inspect.signature(fixture).parameters)
                        )
                    kwargs[arg] = module_values[arg]
            try:
                with contextlib.redirect_stdout(capsys.out), contextlib.redirect_stderr(capsys.err):
                    test(**kwargs)
                passed += 1
            except Exception:
                failures.append(f"{name}::{test_name}[{case_id}]\n{traceback.format_exc()}")
            finally:
                monkeypatch.undo()
    return passed, failures


def main() -> int:
    install_stand_ins()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    version = ".".join(map(str, sys.version_info[:3]))
    root = Path(tempfile.mkdtemp(prefix="goldens-"))
    total_passed = total_failed = 0
    try:
        factory = TmpPathFactory(root)
        for name in TEST_FILES:
            passed, failures = run_module(name, factory)
            for report in failures:
                print(report, file=sys.stderr)
            print(f"{name}: {passed} passed, {len(failures)} failed")
            total_passed += passed
            total_failed += len(failures)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print(f"Python {version}: {total_passed} passed, {total_failed} failed")
    return 1 if total_failed else 0


if __name__ == "__main__":
    sys.exit(main())
