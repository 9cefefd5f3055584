"""The package's public surface: ``multipath.__all__`` and the README."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import multipath

ROOT = Path(__file__).resolve().parent.parent


def test_all_is_sorted_unique_and_resolves():
    names = multipath.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(multipath, name)]
    assert missing == []


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from multipath import *", namespace)
    assert set(multipath.__all__) <= set(namespace)


def test_readme_paths_exist():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    paths = re.findall(r"`((?:src|data|tests|perfbench|scripts)/[^`\s]*)`", readme)
    assert paths
    assert [path for path in paths if not (ROOT / path).exists()] == []


def test_readme_calls_name_the_code():
    # Every backticked `name(` in the prose is a function, class or method
    # of a multipath module, so a renamed one cannot leave stale docs.
    names = set()
    for info in pkgutil.iter_modules(multipath.__path__, "multipath."):
        module = importlib.import_module(info.name)
        names.update(dir(module))
        for _, cls in inspect.getmembers(module, inspect.isclass):
            names.update(dir(cls))
    prose = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(encoding="utf-8"), flags=re.S)
    spans = re.findall(r"`([^`]*)`", prose)
    called = {m.group(1) for span in spans if (m := re.match(r"([A-Za-z_]\w*)\(", span))}
    assert "cost_ratio" in called
    assert sorted(called - names - {"exp", "sha256"}) == []
