"""Properties of the installed numpy that the lockstep temperature search
(``metrics._search`` with ``core.anneal_rows`` and
``core.f_divergence_rows``) relies on to give the same bits as one-row
arithmetic, and that the Monte-Carlo sampler (``objectives._sample``)
relies on to pick what the counting sampler it replaced picked.

If a numpy upgrade breaks one, this names the premise; otherwise the
breakage would show only as a fingerprint or oracle mismatch.
"""

import numpy as np
import pytest

from xlconsist.metrics import DEFAULT_T_GRID


def _rows(n, k, seed):
    rng = np.random.default_rng(seed)
    # log-probability-like values: mostly moderate, some far below zero
    return np.ascontiguousarray(-rng.exponential(3.0, size=(n, k)) * rng.random((n, 1)) * 50)


@pytest.mark.parametrize("n", [1, 2, 9, 61, 2500])
def test_row_sums_equal_one_row_sums(n):
    for k in range(1, 41):
        a = _rows(n, k, seed=1000 * n + k)
        rows = np.sum(a, axis=1)
        assert rows.tobytes() == np.array([np.sum(r) for r in a]).tobytes(), (n, k)


@pytest.mark.parametrize("n", [1, 2, 9, 61, 2500])
def test_elementwise_exp_equals_one_row_exp(n):
    for k in range(1, 41):
        a = _rows(n, k, seed=1000 * n + k)
        assert np.exp(a).tobytes() == np.concatenate([np.exp(r) for r in a]).tobytes(), (n, k)


def test_grid_holds_unit_temperature_exactly():
    # anneal returns its input unchanged at T = 1, and the batched search
    # copies the round trip there instead of renormalizing it
    assert DEFAULT_T_GRID[30] == 1.0


def test_searchsorted_left_counts_entries_below():
    # zero-mass entries repeat a cumulative value; the pick must still be
    # the number of entries strictly below the draw
    cum = np.cumsum([0.0, 0.25, 0.0, 0.0, 0.5, 0.0, 0.25, 0.0])
    u = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0),
                        np.random.default_rng(0).random(1000)])
    assert np.array_equal(np.searchsorted(cum, u, side="left"),
                          np.sum(cum[None, :] < u[:, None], axis=1))
