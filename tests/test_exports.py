"""Every name a module lists in ``__all__`` must exist, and importing stays light.

A name deleted from a module but left in its ``__all__`` does not break
``import``, only ``from module import *``, so nothing else would notice.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import dragonwatch

MODULES = sorted(
    name
    for name in [
        "dragonwatch",
        *(f"dragonwatch.{m.name}" for m in pkgutil.iter_modules(dragonwatch.__path__)),
    ]
    if hasattr(importlib.import_module(name), "__all__")
)


def test_modules_with_all_are_found():
    assert {"dragonwatch.behaviour", "dragonwatch.evaluation", "dragonwatch.ingest"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def fresh_output(code: str) -> str:
    """What a fresh interpreter, importing this checkout's package, prints running ``code``."""
    src = Path(dragonwatch.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout


def modules_loaded_by(statement: str) -> set[str]:
    """The modules a fresh interpreter loads to run ``statement``."""
    code = (
        "import sys; before = set(sys.modules); " + statement + "; "
        "print('\\n'.join(sorted(set(sys.modules) - before)))"
    )
    return set(fresh_output(code).split())


def test_cli_import_loads_only_the_standard_library():
    """Every CLI call pays the package's import, which loads nothing beyond the standard library."""
    loaded = modules_loaded_by("import dragonwatch.cli")
    assert {m.split(".")[0] for m in loaded} - set(sys.stdlib_module_names) - {"dragonwatch"} == set()


def test_cli_import_loads_no_module_analyze_does_not_run():
    """No ``dataclasses`` (nor the ``inspect`` it brings), and ``synth`` only for ``simulate``."""
    loaded = modules_loaded_by("import dragonwatch.cli")
    assert loaded & {"dataclasses", "inspect", "dragonwatch.synth"} == set()


def test_cli_import_compiles_no_row_pattern():
    """The import every command pays compiles no regular expression into the parsers or the CLI."""
    code = (
        "import re, dragonwatch.cli; from dragonwatch import cli, ingest; "
        "print([name for module in (ingest, cli) for name, value in vars(module).items() "
        "if isinstance(value, re.Pattern)])"
    )
    assert fresh_output(code) == "[]\n"


def test_package_import_loads_no_module_of_its_own():
    loaded = modules_loaded_by("import dragonwatch")
    assert {m for m in loaded if m.startswith("dragonwatch")} == {"dragonwatch"}


def test_package_exports_resolve_to_their_modules():
    assert len(set(dragonwatch.__all__)) == len(dragonwatch.__all__) == 51
    for name in dragonwatch.__all__:
        value = getattr(dragonwatch, name)
        assert getattr(importlib.import_module(value.__module__), name) is value
    with pytest.raises(AttributeError):
        dragonwatch.no_such_name
