"""The package's public surface: ``multipath.__all__`` and the README."""

from __future__ import annotations

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
