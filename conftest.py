"""Test isolation shared by ``tests`` and ``perfbench``.

The benchmark's set-up drops every ``multipath`` module from
``sys.modules`` so that it pays for importing the package. Left alone, that
would split one pytest process into package generations: a test module
imported at collection would hold one copy of a class, and a lazy import
in a later test would load another. Restoring the entries after each test
keeps every test on the generation that collection imported, whatever the
order the tests run in.
"""

from __future__ import annotations

import sys

import pytest


def _package_modules() -> dict:
    return {name: module for name, module in sys.modules.items() if name.partition(".")[0] == "multipath"}


@pytest.fixture(autouse=True)
def _keep_package_modules():
    saved = _package_modules()
    yield
    for name in _package_modules():
        del sys.modules[name]
    sys.modules.update(saved)
