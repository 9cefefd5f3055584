"""The package's public surface: ``multipath.__all__``."""

from __future__ import annotations

import multipath


def test_all_is_sorted_unique_and_resolves():
    names = multipath.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(multipath, name)]
    assert missing == []


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from multipath import *", namespace)
    assert set(multipath.__all__) <= set(namespace)
