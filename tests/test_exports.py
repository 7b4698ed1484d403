"""Every name a module lists in ``__all__`` must exist.

A name deleted from a module but left in its ``__all__`` does not break
``import``, only ``from module import *``, so nothing else would notice.
"""

import importlib
import pkgutil

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
