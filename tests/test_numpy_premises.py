"""Properties of the installed numpy that the lockstep temperature search
(``metrics._search`` with ``core.anneal_rows`` and
``core.f_divergence_rows``) relies on to give the same bits as one-row
arithmetic, and that the Monte-Carlo sampler (``objectives._sample``)
relies on to pick what the counting sampler it replaced picked, and that
the stacked fitters (``optim.fit_dco`` and ``optim.fit_pco_reinforce``)
rely on to draw the same stream and give the bits of the per-row loops.

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


@pytest.mark.parametrize("k", [64, 256])
def test_row_sums_equal_one_row_sums_at_rollout_widths(k):
    # the roll-out means of the on-policy fitter reduce rows this wide
    for n in (1, 3, 16):
        a = _rows(n, k, seed=7 * k + n)
        assert np.sum(a, axis=1).tobytes() == np.array([np.sum(r) for r in a]).tobytes(), n


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


def test_one_block_of_uniforms_is_the_stream_of_single_draws():
    # the on-policy fitter draws a whole iteration at once: per slot one
    # scalar for the language, one for the prompt, then the roll-outs
    for seed, batch, rollouts in ((0, 8, 256), (5, 16, 64), (11, 3, 5)):
        rng = np.random.default_rng(seed)
        calls = []
        for _ in range(2):  # two iterations, so the stream continues
            for _ in range(batch):
                calls += [rng.random(), rng.random()]
                calls += rng.random(rollouts).tolist()
        rng = np.random.default_rng(seed)
        block = np.concatenate([rng.random(batch * (2 + rollouts)) for _ in range(2)])
        assert block.tobytes() == np.array(calls).tobytes(), seed


def test_row_cumsum_is_the_one_row_cumsum_added_in_order():
    for k in (1, 2, 6, 9, 17, 40):
        a = np.abs(_rows(50, k, seed=k))
        cum = np.cumsum(a, axis=1)
        assert cum.tobytes() == np.concatenate([np.cumsum(r) for r in a]).tobytes(), k
        for row, last in zip(a.tolist(), cum[:, -1].tolist()):
            total = 0.0
            for x in row:
                total += x
            assert total == last, k


def test_counting_at_or_below_is_searchsorted_right():
    # ties with a cumulative value and zero-mass entries, which repeat one
    cum = np.cumsum([0.0, 0.25, 0.0, 0.0, 0.5, 0.0, 0.25, 0.0])
    u = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0),
                        np.random.default_rng(1).random(1000)])
    assert np.array_equal(np.searchsorted(cum, u, side="right"),
                          np.sum(cum[None, :] <= u[:, None], axis=1))
    rows = np.exp(_rows(20, 6, seed=3))
    rows[:, 2] = 0.0
    cums = np.cumsum(rows / rows.sum(axis=1)[:, None], axis=1)
    us = np.random.default_rng(2).random((20, 64))
    us[:, 0] = cums[:, 1]  # an exact tie, shared by the zero-mass entry
    counted = (cums[:, None, :] <= us[:, :, None]).sum(axis=2)
    for c, u_row, got in zip(cums, us, counted):
        assert np.array_equal(np.searchsorted(c, u_row, side="right"), got)


def test_offset_bincount_is_add_at():
    rng = np.random.default_rng(4)
    n, c, k = 7, 6, 256
    draws = rng.integers(0, c, size=(n, k))
    adv = rng.normal(size=(n, k)) * 10.0
    want = np.zeros((n, c))
    for i in range(n):
        np.add.at(want[i], draws[i], adv[i])
    flat = (draws + c * np.arange(n)[:, None]).ravel()
    got = np.bincount(flat, weights=adv.ravel(), minlength=n * c).reshape(n, c)
    assert got.tobytes() == want.tobytes()


def test_sum_over_count_is_mean():
    for k in (5, 32, 64, 256):
        x = np.random.default_rng(k).normal(size=(9, k)) * 30.0
        assert (x.sum(axis=1) / k).tobytes() == np.array([r.mean() for r in x]).tobytes(), k
