"""Shared fixtures: canonical demo models and the bundled data directory,
and ``row_probs``, the one way tests compare model rows."""

from __future__ import annotations

from pathlib import Path

import pytest

from multipath.models import greedy_trap_lm
from multipath.toydata import make_digit_dataset, make_digit_model

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def row_probs(row) -> tuple[float, ...]:
    """Every token's probability, in token order.

    Read through the public ``ranked(len(row))``, which lists every token
    once with its exact probability. A row has no dense form and defines no
    equality, so tests compare rows by this tuple.
    """
    return tuple(p for _, p in sorted(row.ranked(len(row))))


@pytest.fixture(scope="session")
def trap_model():
    return greedy_trap_lm()


@pytest.fixture(scope="session")
def digit_model():
    return make_digit_model(100)


@pytest.fixture(scope="session")
def digit_dataset():
    return make_digit_dataset(100)


@pytest.fixture(scope="session")
def small_digit_model():
    return make_digit_model(10)


@pytest.fixture(scope="session")
def small_digit_dataset():
    return make_digit_dataset(10)


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR
