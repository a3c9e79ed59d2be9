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

import math
import struct

import numpy as np
import pytest

from xlconsist.core import logsumexp_rows
from xlconsist.metrics import _INV_PHI, DEFAULT_T_GRID


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


def test_golden_section_points_on_arrays_equal_the_scalar_points():
    # the temperature search keeps every direction's interval in arrays and
    # places both interior points with one expression each
    rng = np.random.default_rng(10)
    a = rng.uniform(np.log(1e-3), np.log(1e3), 100_000)
    b = a + 10.0 ** rng.uniform(-7, 0.5, a.size)
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    want = [(y - _INV_PHI * (y - x), x + _INV_PHI * (y - x)) for x, y in zip(a.tolist(), b.tolist())]
    assert np.stack([c, d], axis=1).tobytes() == np.array(want).tobytes()


def test_row_argmin_is_each_row_argmin_with_ties_and_nan():
    # a grid argmin per direction: the first of tied minima, else the first NaN
    rng = np.random.default_rng(11)
    v = rng.integers(0, 4, size=(2000, 61)).astype(float)
    v[rng.random(v.shape) < 0.01] = np.nan
    v[0, :3], v[1, :3], v[2, :3] = (1.0, -0.0, 0.0), (np.nan, -1.0, np.nan), (2.0, np.nan, -1.0)
    got = np.argmin(v, axis=1)
    assert got.tolist() == [int(np.argmin(row)) for row in v.tolist()]
    assert got[:3].tolist() == [1, 0, 1]
    assert 100 < np.isnan(v).any(axis=1).sum() < 2000


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


def test_transposed_count_is_searchsorted_right():
    # the on-policy step compares (rows, candidates, 1) cumulative masses
    # with (rows, 1, roll-outs) uniforms and counts down the candidates;
    # the slot draw counts a language's +inf-padded prior masses per slot
    rows = np.exp(_rows(30, 6, seed=5))
    rows[:, 2] = 0.0
    rows[3, 4:] = 0.0  # zero mass at the end: the last value repeats
    cums = np.cumsum(rows / rows.sum(axis=1)[:, None], axis=1)
    us = np.random.default_rng(6).random((30, 64))
    us[:, 0] = cums[:, 1]  # an exact tie, shared by the zero-mass entry
    us[:, 1] = np.nextafter(cums[:, 3], 0.0)
    us[:, 2] = cums[:, -1]
    counted = (cums[:, :, None] <= us[:, None, :]).sum(axis=1)
    for c, u_row, got in zip(cums, us, counted):
        assert np.array_equal(np.searchsorted(c, u_row, side="right"), got)
    padded = np.full((30, 9), np.inf)
    padded[:, :6] = cums
    slots = np.concatenate([us[:, 0], us[:, 1], us[:, 2], us[:, 3]])
    at = np.tile(np.arange(30), 4)
    assert np.array_equal((padded[at] <= slots[:, None]).sum(axis=1),
                          [np.searchsorted(cums[i], x, side="right") for i, x in zip(at, slots)])


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def test_cumsum_after_a_leading_zero_is_the_ascending_loop():
    # the fitters' prior-weighted sums: weights times values in one array
    # product, summed by cumsum behind a leading 0.0, as the loop
    # ``total = 0.0; total += w * v`` sums them
    rng = np.random.default_rng(9)
    cases = [[-0.0], [-0.0, -0.0], [-0.0, 1.5], [math.inf, 2.0], [math.nan, 1.0],
             [1e308, 1e308, -1.0], [0.1, 0.2, 0.3]]
    cases += [(rng.normal(size=k) * 10.0 ** rng.integers(-3, 4, size=k)).tolist()
              for k in (1, 2, 7, 8, 9, 40, 512)]
    for values in cases:
        w = rng.random(len(values))
        total = 0.0
        for x, y in zip(w.tolist(), values):
            total += x * y
        with np.errstate(over="ignore"):
            got = float(np.cumsum(np.concatenate(([0.0], w * np.array(values))))[-1])
        if math.isnan(total):
            assert math.isnan(got), values
        else:
            assert _bits(got) == _bits(total), values
    assert _bits(float(np.cumsum([-0.0])[-1])) != _bits(0.0 + -0.0)  # why the 0.0 leads


def test_halving_commutes_with_the_max():
    # ``_max_tv`` halves a row maximum, not each row; rounding is monotone,
    # subnormals and NaN included
    tiny = np.array([5e-324, 1.5e-323, 2.5e-323, 1e-310, 3e-320])
    for x in (tiny, np.abs(_rows(1, 40, seed=2)[0]), np.array([1.0, np.nan, 2.0])):
        a, b = float(0.5 * x.max()), float((0.5 * x).max())
        assert _bits(a) == _bits(b) or math.isnan(a) and math.isnan(b)


def test_logsumexp_of_a_row_subset_is_those_rows_of_the_stack():
    # wave 0 of the on-policy step reads its rows from the softmax of the
    # whole stack; a row's log-sum-exp must not depend on its neighbours
    rng = np.random.default_rng(12)
    for n, k in ((1, 2), (8, 6), (40, 17), (300, 6)):
        a = _rows(n, k, seed=n + k) + rng.normal(size=(n, 1)) * 5.0
        full = a - logsumexp_rows(a)[:, None]
        for _ in range(20):
            rows = sorted(rng.choice(n, size=rng.integers(1, n + 1), replace=False).tolist())
            part = a[rows]
            assert (part - logsumexp_rows(part)[:, None]).tobytes() == full[rows].tobytes()
            assert np.exp(full[rows]).tobytes() == np.exp(full)[rows].tobytes()


def test_offset_bincount_is_add_at():
    rng = np.random.default_rng(4)
    n, c, k = 7, 6, 256
    draws = rng.integers(0, c, size=(n, k))
    adv = rng.normal(size=(n, k)) * 10.0
    want = np.zeros((n, c))
    for i in range(n):
        np.add.at(want[i], draws[i], adv[i])
    flat = draws + c * np.arange(n)[:, None]
    got = np.bincount(flat.ravel(), weights=adv.ravel(), minlength=n * c).reshape(n, c)
    assert got.tobytes() == want.tobytes()
    # the same flat indices gather each row's entries
    table = rng.normal(size=(n, c))
    assert table.take(flat).tobytes() == table[np.arange(n)[:, None], draws].tobytes()


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
