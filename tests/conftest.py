from __future__ import annotations

import sys
import threading
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gwn import gammasample
from gwn.measure import AtomicMeasure
from gwn.symtensor import SymTensor, _tables


def random_measure(rng: np.random.Generator, m: int) -> AtomicMeasure:
    return AtomicMeasure(rng.uniform(0.3, 2.0, size=m))


def random_tensor(rng: np.random.Generator, m: int, degree: int,
                  positive: bool = False) -> SymTensor:
    size = len(_tables(m, degree).reps)
    vals = rng.uniform(0.1, 1.0, size) if positive else rng.uniform(-1.0, 1.0, size)
    return SymTensor(m, degree, vals)


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def count_gamma_draws(monkeypatch) -> list[int]:
    """Record the size of every batch the Gamma sampler draws (each call of
    gammasample._draw_batch) in the returned list.  A pass draws on two
    threads, so the sizes of one pass come in no fixed order: compare them
    as a multiset."""
    sizes = []
    lock = threading.Lock()
    draw = gammasample._draw_batch

    def counted(measure, rng, size):
        with lock:
            sizes.append(size)
        return draw(measure, rng, size)

    monkeypatch.setattr(gammasample, "_draw_batch", counted)
    return sizes


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
