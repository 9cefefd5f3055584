"""Test isolation shared by ``tests`` and ``perfbench``.

The benchmark's set-up drops every ``multipath`` module from
``sys.modules`` so that it pays for importing the package. Left alone, that
would split one pytest process into package generations: a test module
imported at collection would hold one copy of a class, and a lazy import
in a later test would load another. Restoring the entries after each test
keeps every test on the generation that collection imported, whatever the
order the tests run in. The package's own attributes are restored too: an
import binds each submodule it loads there, so a test that loaded a layer
would otherwise leave the next test a copy that ``sys.modules`` no longer
holds.
"""

from __future__ import annotations

import sys

import pytest


def _package_modules() -> dict:
    return {name: module for name, module in sys.modules.items() if name.partition(".")[0] == "multipath"}


@pytest.fixture(autouse=True)
def _keep_package_modules():
    saved = _package_modules()
    package = saved.get("multipath")
    attributes = dict(vars(package)) if package is not None else None
    yield
    for name in _package_modules():
        del sys.modules[name]
    sys.modules.update(saved)
    if package is not None:
        vars(package).clear()
        vars(package).update(attributes)
