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


def test_cli_import_loads_only_the_standard_library():
    """Every CLI call pays the package's import, which loads nothing beyond the standard library."""
    src = Path(dragonwatch.__file__).resolve().parents[1]
    code = (
        "import sys; before = set(sys.modules); import dragonwatch.cli; "
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before} "
        "- set(sys.stdlib_module_names) - {'dragonwatch'}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "[]\n"
