"""Randomized checks of the merged fast paths against independent routes.

* the scalar rank-one route (per-atom three-term recurrence, batch of one)
  against the five-term kernel recurrence paired through fock_inner_n;
* the batched MC reducer against mean and std(ddof=1)/sqrt(n) of the
  concatenated statistic, for any split into batches.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwn.errors import DomainError
from gwn.extfock import fock_inner_n
from gwn.gammasample import mean_and_se
from gwn.measure import AtomicMeasure
from gwn.symtensor import rank_one
from gwn.wickcalc import OmegaSample, wick_kernels, wick_pair_rank_one

from conftest import rel_err

unit = st.floats(-1.0, 1.0)


@st.composite
def rank_one_inputs(draw):
    m = draw(st.integers(1, 5))
    N = draw(st.integers(0, 5))
    weights = [10.0 ** draw(st.floats(-2.0, 2.0)) for _ in range(m)]
    # masses on the scale of their weights, with some atoms left empty
    masses = [w * draw(st.one_of(st.just(0.0), st.floats(0.0, 4.0)))
              for w in weights]
    xi = [draw(unit) for _ in range(m)]
    return AtomicMeasure(weights), OmegaSample(masses), np.array(xi), N


@settings(max_examples=150, deadline=None)
@given(rank_one_inputs())
def test_rank_one_route_matches_kernel_route(inputs):
    mu, om, xi, N = inputs
    kernels = wick_kernels(om, mu, N)
    q = wick_pair_rank_one(om, xi, mu, N)
    assert q.shape == (N + 1,)
    for n in range(N + 1):
        assert rel_err(q[n], fock_inner_n(mu, kernels[n], rank_one(xi, n))) \
            <= 1e-9


@st.composite
def split_statistic(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(2, 60))
    data = np.array([[draw(st.floats(-1e3, 1e3)) for _ in range(k)]
                     for _ in range(n)])
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=6)))
    batches = np.split(data, cuts)
    if k == 1 and draw(st.booleans()):
        batches = [b.ravel() for b in batches]  # a 1-d batch is one column
    return data, batches


@settings(max_examples=150, deadline=None)
@given(split_statistic())
def test_reducer_matches_mean_and_sample_std(case):
    data, batches = case
    n = data.shape[0]
    mean, se = mean_and_se(iter(batches))
    scale = np.sqrt(np.mean(data * data, axis=0)) + 1e-300
    assert mean.shape == se.shape == (data.shape[1],)
    assert np.all(np.abs(mean - data.mean(axis=0)) <= 1e-12 * scale)
    ref = data.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(se - ref) <= 1e-6 * scale / math.sqrt(n))


@pytest.mark.parametrize("batches", [[], [np.ones(1)], [np.ones((1, 3))]])
def test_reducer_needs_two_samples(batches):
    with pytest.raises(DomainError):
        mean_and_se(batches)
