"""Properties of the installed numpy that the lockstep temperature search
(``metrics._search`` with ``core.anneal_rows`` and
``core.f_divergence_rows``) and the grouped reduction of
``core.pushforward`` rely on to give the same bits as one-row arithmetic,
and that the Monte-Carlo sampler (``objectives._sampler``) relies on to pick
what ``searchsorted`` on each row picked and to build its targets from one
table, and that the stacked fitters (``optim.fit_dco`` and
``optim.fit_pco_reinforce``) rely on to draw the same stream and give the
bits of the per-row loops, and that the objective
(``objectives.objective_rows``, one row for ``n_language_objective``, a
stack of perturbations for the minimality check) relies on to give each
row and route the bits of its own 1-D sum and ``max(0.0, x)``.

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


# a round trip through 26 languages' worth of inputs reduces rows this long
ROW_LENGTHS = range(1, 257)


@pytest.mark.parametrize("n", [1, 2, 9, 61, 2500])
def test_row_sums_equal_one_row_sums(n):
    for k in ROW_LENGTHS:
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
    for k in ROW_LENGTHS:
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


def test_stable_argsort_keeps_equal_keys_in_input_order():
    # pushforward's terms of one output must stay in ascending input order
    rng = np.random.default_rng(6)
    for n in (1, 2, 15, 16, 17, 100, 5000):
        keys = rng.integers(-3, 4, size=n) * 1000
        order = np.argsort(keys, kind="stable")
        want = sorted(range(n), key=lambda i: keys[i])  # Python's sort is stable
        assert order.tolist() == want, n


def test_padded_column_count_is_searchsorted_left():
    # rows of unequal length as columns of one table padded with +inf,
    # counted one table row at a time: ties with a cumulative value,
    # zero-mass entries, which repeat one, and draws above the last value
    rows = [[0.0, 0.25, 0.0, 0.0, 0.5, 0.0, 0.25, 0.0], [1.0], [0.3, 0.0, 0.7],
            [0.18604651162790695, 0.441860465116279, 0.3720930232558139, 0.0]]
    cums = [np.cumsum(r) for r in rows]
    table = np.full((max(map(len, rows)), len(rows)), np.inf)
    for j, c in enumerate(cums):
        table[: len(c), j] = c
    us = [np.concatenate([c, np.nextafter(c, 0.0), np.nextafter(c, 1.0), [0.0],
                          np.random.default_rng(j).random(500)]) for j, c in enumerate(cums)]
    at = np.repeat(np.arange(len(rows)), [len(u) for u in us])
    u = np.concatenate(us)
    picked = np.zeros(len(u), dtype=int)
    for col in table:
        picked += col[at] < u
    want = np.concatenate([np.searchsorted(c, x, side="left") for c, x in zip(cums, us)])
    assert np.array_equal(picked, want)
    assert cums[3][-1] < np.nextafter(cums[3][-1], 1.0) < 1.0  # a draw above the last value
    assert picked[at == 3].max() == len(rows[3])


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


def test_zero_padded_row_cumsum_is_each_real_row_cumsum():
    # the sampler's table: rows of mixed real length, zero-padded to W, are
    # summed along axis 1 in one call; each real prefix must keep the bits
    # of its own row's cumsum
    rng = np.random.default_rng(8)
    for width in range(1, 41):
        lengths = rng.integers(1, width + 1, size=30)
        lengths[:2] = 1, width
        rows = [np.exp(_rows(1, k, seed=100 * width + j)[0]) for j, k in enumerate(lengths)]
        padded = np.zeros((len(rows), width))
        for r, row in zip(padded, rows):
            r[: len(row)] = row
        cum = np.cumsum(padded, axis=1)
        for c, row in zip(cum, rows):
            assert c[: len(row)].tobytes() == np.cumsum(row).tobytes(), width


def test_elementwise_log_equals_one_row_log():
    # Monte-Carlo targets take the log of a whole (prompts, responses) table
    # of frequencies and read one row of it per prompt
    for n, k in ((1, 1), (3, 7), (6, 36), (40, 17), (9, 257)):
        a = np.random.default_rng(n * k).integers(0, 50, size=(n, k)) / 4096
        with np.errstate(divide="ignore"):
            assert np.log(a).tobytes() == np.concatenate([np.log(r) for r in a]).tobytes()


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


def test_contiguous_column_selection_sums_as_each_row():
    # the objective keeps the policy's positive-mass columns of its
    # (routes, k) aligned targets and sums every route's row in one call;
    # the boolean selection is not C-contiguous, and summing it as it is
    # moves last bits, so it is copied first
    rng = np.random.default_rng(9)
    moved = 0
    for k in range(1, 41):
        for routes in range(1, 26):
            a = _rows(routes, k + 3, seed=100 * k + routes)
            mask = np.ones(k + 3, dtype=bool)
            mask[rng.choice(k + 3, size=3, replace=False)] = False
            w = rng.random(k)
            want = np.array([np.sum(w * row[mask]) for row in a])
            picked = a[:, mask]
            assert picked.flags.c_contiguous == (routes == 1 or k == 1), (k, routes)
            moved += (w * picked).sum(axis=1).tobytes() != want.tobytes()
            got = (w * np.ascontiguousarray(picked)).sum(axis=1)
            assert got.tobytes() == want.tobytes(), (k, routes)
    assert moved


def test_last_axis_sums_of_a_stack_equal_each_row_sum():
    # the stacked objective sums a C-contiguous (perturbations, routes, k)
    # product along its last axis in one call
    for k in range(1, 41):
        for routes in range(1, 26):
            for n in (1, 4):
                a = _rows(n * routes, k, seed=10000 * n + 100 * k + routes).reshape(n, routes, k)
                want = np.array([[np.sum(row) for row in stack] for stack in a])
                assert a.sum(axis=2).tobytes() == want.tobytes(), (k, routes, n)


def test_positive_part_by_where_is_max_with_zero():
    # the fidelity is clamped as the scalar objective's max(0.0, x) did,
    # which np.maximum is not at -0.0 and NaN
    xs = [-0.0, 0.0, np.nan, 5e-324, -5e-324, 1e-310, -1e-310, np.inf, -np.inf, 1.5, -1.5]
    a = np.array(xs)
    want = np.array([max(0.0, x) for x in xs])
    assert np.where(a > 0.0, a, 0.0).tobytes() == want.tobytes()
    assert np.maximum(0.0, a).tobytes() != want.tobytes()
