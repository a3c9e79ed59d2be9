"""The lockstep temperature search and the row functions of ``core``
against the scalar oracle in ``scalar_search_oracle``, bit for bit.

Every comparison is of ``float.hex`` or ``tobytes()``, never within a
tolerance, and an input the oracle rejects must raise the same exception
type.
"""

import math

import numpy as np
import pytest
import scalar_search_oracle as oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from xlconsist.core import (
    DIVERGENCE_KINDS,
    DivergenceSpec,
    LogDist,
    RowStack,
    anneal,
    anneal_rows,
    f_divergence,
    f_divergence_rows,
)
from xlconsist import metrics
from xlconsist.metrics import DEFAULT_T_GRID, _search

STYLES = ("dense", "zeros", "point", "heavy")
FIXED = (1.0, 0.5, 3.7, 1e-3, 1e3, 0.0, -1.0, math.nan)
GRIDS = {
    "default": DEFAULT_T_GRID,
    "coarse": np.geomspace(0.1, 10.0, 5),
    "single": np.array([2.0]),
    "unit-edge": np.array([1.0, 3.0]),
}


def _row(rng, support, style):
    k = len(support)
    if style == "point":
        return LogDist.point_mass(support, support[rng.integers(k)])
    if style == "zeros":
        w = rng.random(k) + 0.01
        w[rng.random(k) < 0.4] = 0.0
        if not w.any():
            w[rng.integers(k)] = 1.0
        return LogDist.from_probs(support, w / w.sum())
    if style == "heavy":
        # spans hundreds of nats, so most entries underflow at T = 1e3
        return LogDist.from_logp(support, -rng.exponential(100.0, size=k))
    return LogDist.from_logp(support, 2.0 * rng.normal(size=k))


def _direction(seed, k, styles, extended):
    rng = np.random.default_rng(seed)
    universe = tuple(range(10, 10 + k))
    if extended and k > 1:
        cut = int(rng.integers(1, k))
        first, second = universe[:cut], universe[cut - 1 if rng.random() < 0.5 else 0:]
        if rng.random() < 0.5:
            first, second = second, first
    else:
        first = second = universe
    return _row(rng, first, styles[0]), _row(rng, second, styles[1])


def _search_pairs(pairs, spec, grid, fixed):
    directs, trips = zip(*pairs)
    return _search(RowStack.of(directs), RowStack.of(trips), spec, grid, fixed)


def _scalar(fn, *args):
    # the oracle warns where a chi-square term overflows to +inf; the new
    # code must not, so only the oracle's warning is silenced
    with np.errstate(over="ignore"):
        return fn(*args)


def _outcome(fn):
    try:
        val, t, extended = fn()
    except Exception as err:  # noqa: BLE001 - the type is what is compared
        return type(err).__name__
    return float(val).hex(), float(t).hex(), extended


directions = st.builds(
    _direction,
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 20),
    styles=st.tuples(st.sampled_from(STYLES), st.sampled_from(STYLES)),
    extended=st.booleans(),
)


@settings(max_examples=150, deadline=None)
@given(direction=directions, kind=st.sampled_from(DIVERGENCE_KINDS),
       grid=st.sampled_from(sorted(GRIDS)), fixed=st.sampled_from((None,) * 3 + FIXED))
def test_search_matches_scalar_oracle(direction, kind, grid, fixed):
    direct, trip = direction
    spec = DivergenceSpec(kind)
    got = _outcome(lambda: _search_pairs([direction], spec, GRIDS[grid], [fixed])[0])
    want = _outcome(lambda: _scalar(oracle._directional_divergence,
                                    direct, trip, spec, GRIDS[grid], fixed))
    assert got == want


@settings(max_examples=150, deadline=None)
@given(direction=directions, kind=st.sampled_from(DIVERGENCE_KINDS),
       t=st.sampled_from(FIXED) | st.floats(1e-3, 1e3))
def test_row_functions_match_scalar_oracle(direction, kind, t):
    _, trip = direction
    try:
        want = oracle.anneal(trip, t)
    except ValueError as err:
        try:
            anneal(trip, t)
        except ValueError as got:
            assert str(got) == str(err)
            return
        raise AssertionError(f"anneal accepted {t!r}, the oracle raised {err}")
    got = anneal(trip, t)
    assert got.probs.tobytes() == want.probs.tobytes()
    assert got.logp.tobytes() == want.logp.tobytes()
    spec = DivergenceSpec(kind)
    for p, q in ((trip, got), (got, trip), (trip, trip)):
        assert f_divergence(spec, p, q).hex() == _scalar(oracle.f_divergence, spec, p, q).hex()


def test_row_functions_match_scalar_oracle_in_bulk():
    """Many rows per call, with masked counts that differ from row to row:
    each row must equal the one-row oracle.  Row normalizers near 1 are
    where ``np.log`` and ``math.log`` part in the last bit."""
    rng = np.random.default_rng(7)
    for k in range(1, 21):
        sup = tuple(range(k))
        trips = [_row(rng, sup, STYLES[i % 4]) for i in range(300)]
        directs = [_row(rng, sup, STYLES[i % 3]) for i in range(300)]
        temps = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=300))
        logp, probs = anneal_rows(np.array([t.logp for t in trips]), temps)
        want = [oracle.anneal(t, temp) for t, temp in zip(trips, temps)]
        assert logp.tobytes() == np.array([w.logp for w in want]).tobytes(), k
        assert probs.tobytes() == np.array([w.probs for w in want]).tobytes(), k
        for kind in DIVERGENCE_KINDS:
            got = f_divergence_rows(kind, np.array([d.probs for d in directs]),
                                    np.array([d.logp for d in directs]), probs, logp)
            expected = [_scalar(oracle.f_divergence, DivergenceSpec(kind), d, w)
                        for d, w in zip(directs, want)]
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in expected], (k, kind)


def _random_grid(seed):
    """A log-spaced grid with ends in e^[-8, 8], 2 to 61 temperatures long."""
    rng = np.random.default_rng(seed)
    lo, hi = np.sort(rng.uniform(-8.0, 8.0, 2))
    return np.geomspace(math.exp(lo), math.exp(hi), int(rng.integers(2, 62)))


def _log_parts(grid):
    """Where ``np.log`` of a grid temperature is not ``math.log`` of it."""
    return np.flatnonzero(np.log(grid) != np.array([math.log(t) for t in grid.tolist()]))


# seeds of random grids on which the two logs part somewhere
LOG_PARTING = [seed for seed in range(2000) if _log_parts(_random_grid(seed)).size]


def _peaked(rng, k, t):
    """A direction whose divergence is smallest at temperature ``t``."""
    trip = _row(rng, tuple(range(k)), "dense")
    return anneal(trip, t), trip


@st.composite
def calls(draw):
    """One ``_search`` call: 1 to 12 directions of mixed widths, some over
    extended supports, some fixed, on a named or a seeded random grid.  A
    peaked direction has its minimum between two grid temperatures; on a
    grid where the logs part, it is placed so that refinement starts from a
    parted entry."""
    source = draw(st.sampled_from(("named", "random", "log-parting")))
    if source == "named":
        grid = GRIDS[draw(st.sampled_from(sorted(GRIDS)))]
    else:
        grid = _random_grid(draw(st.sampled_from(LOG_PARTING) if source == "log-parting"
                                 else st.integers(0, 2**32 - 1)))
    parts = _log_parts(grid).tolist()
    pairs, fixed = [], []
    for _ in range(draw(st.integers(1, 12))):
        seed, k = draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 12))
        if grid.size > 2 and draw(st.booleans()):
            j = draw(st.sampled_from(parts) if parts else st.integers(0, grid.size - 1))
            j = min(max(j + draw(st.sampled_from((-2, -1, 0, 1))), 0), grid.size - 2)
            t = grid[j] * (grid[j + 1] / grid[j]) ** draw(st.sampled_from((0.3, 0.5, 0.7)))
            pairs.append(_peaked(np.random.default_rng(seed), k, t))
        else:
            styles = draw(st.tuples(st.sampled_from(STYLES), st.sampled_from(STYLES)))
            pairs.append(_direction(seed, k, styles, draw(st.booleans())))
        fixed.append(draw(st.sampled_from((None,) * 4 + FIXED[:5])))
    return pairs, grid, fixed


@pytest.mark.parametrize("block", [512, 3])
@settings(max_examples=120, deadline=None)
@given(call=calls(), kind=st.sampled_from(DIVERGENCE_KINDS))
def test_many_directions_match_scalar_oracle(block, call, kind):
    """Each direction of one call, searched together with the others (all
    at once or in blocks of three), gets the bits it gets alone."""
    pairs, grid, fixed = call
    spec = DivergenceSpec(kind)
    want = [_outcome(lambda: _scalar(oracle._directional_divergence, d, t, spec, grid, f))
            for (d, t), f in zip(pairs, fixed)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "_LOCKSTEP_DIRECTIONS", block)
        try:
            found = _search_pairs(pairs, spec, grid, fixed)
        except Exception as err:  # noqa: BLE001 - the type is what is compared
            assert type(err).__name__ in want
            return
    assert [_outcome(lambda: got) for got in found] == want


def test_random_grids_include_ones_where_the_logs_part():
    # the premise of the log-parting grids above: about 2% of them
    assert 20 < len(LOG_PARTING) < 200


def test_pinned_directions_keep_the_scalar_bits():
    """Directions on which each bit-exact rule of the search shows, every
    run: minima next to a grid temperature whose ``np.log`` is not its
    ``math.log`` (grid logs), minima across the default grid (refined
    temperatures from ``math.exp``), divergences that are exactly 0 from
    some temperature on, where only a strict gain moves the best, and a tie
    below the grid's best that only the c-then-d order settles."""
    rng = np.random.default_rng(21)
    calls = []
    for seed in LOG_PARTING[:12]:
        grid = _random_grid(seed)
        pairs = []
        for j in _log_parts(grid).tolist():
            # a minimum just above entry j + 1 or just below entry j - 1
            # makes j an end of the interval refinement starts from
            for at, toward in ((j + 1, j + 2), (j - 1, j - 2)):
                if 0 <= toward < grid.size:
                    t = grid[at] * (grid[toward] / grid[at]) ** 0.3
                    pairs.append(_peaked(rng, int(rng.integers(2, 7)), t))
        calls.append((grid, pairs))
    assert sum(len(pairs) for _, pairs in calls) > 12
    spread = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 60))
    calls.append((DEFAULT_T_GRID, [_peaked(rng, 2 + i % 6, t) for i, t in enumerate(spread)]))
    # every other entry underflows against the top from about T = 37 / gap
    plateaus = [(LogDist.point_mass(tuple(range(k)), 0),
                 LogDist.from_logp(tuple(range(k)), -gap * np.arange(k)))
                for k in (2, 3, 5) for gap in (0.3, 1.0, 4.0)]
    calls.append((DEFAULT_T_GRID, plateaus))
    # total variation is 1 - 2**-53 at both points first compared, 1 on the grid
    calls.append((_random_grid(1), [_direction(2645, 11, ("point", "heavy"), True)]))
    for kind in DIVERGENCE_KINDS:
        spec = DivergenceSpec(kind)
        for grid, pairs in calls:
            found = _search_pairs(pairs, spec, grid, [None] * len(pairs))
            want = [_scalar(oracle._directional_divergence, d, t, spec, grid, None)
                    for d, t in pairs]
            assert [_outcome(lambda: w) for w in want] == [_outcome(lambda: f) for f in found]


def test_empty_grid_is_refused_only_where_a_direction_searches():
    spec = DivergenceSpec("forward-kl")
    two = _direction(1, 2, ("dense", "dense"), False)
    three = _direction(2, 3, ("dense", "dense"), False)
    found = _search_pairs([two, three], spec, np.array([]), [0.5, 1.0])
    assert [(t, ext) for _, t, ext in found] == [(0.5, False), (1.0, False)]
    # the error comes before any evaluation, even where a fixed direction of
    # another length, searched first, has a temperature that would fail
    with pytest.raises(ValueError, match="^temperature grid is empty$"):
        _search_pairs([two, three], spec, np.array([]), [0.0, None])


@pytest.mark.parametrize("block", [512, 5])
def test_lockstep_directions_leave_at_different_steps(block, monkeypatch):
    """One call over mixed support lengths, interior and grid-edge minima
    (an edge minimum refines inward only, over half the width), an extended
    support and a fixed temperature, searched all together or in blocks of
    five: each direction must come out as if searched alone."""
    monkeypatch.setattr(metrics, "_LOCKSTEP_DIRECTIONS", block)
    rng = np.random.default_rng(3)
    cases = []
    for k in (2, 5, 9, 17):
        sup = tuple(range(k))
        # gaps of 0.02 nats: still apart at T = 1e3, still unequal at T = 1e-3
        skewed = LogDist.from_logp(sup, -0.02 * rng.permutation(k))
        top = skewed.support[int(np.argmax(skewed.logp))]
        cases += [
            ("interior", (anneal(skewed, 3.7), skewed)),
            ("edge-low", (LogDist.uniform(sup), skewed)),  # flattest at T = 1e-3
            ("edge-high", (LogDist.point_mass(sup, top), skewed)),  # sharpest at T = 1e3
        ]
    cases.append(("extended", _direction(11, 7, ("zeros", "heavy"), True)))
    cases.append(("fixed", _direction(12, 4, ("dense", "dense"), False)))
    labels, pairs = zip(*cases)
    fixed = [None] * (len(pairs) - 1) + [2.5]
    for kind in DIVERGENCE_KINDS:
        spec = DivergenceSpec(kind)
        found = _search_pairs(pairs, spec, DEFAULT_T_GRID, fixed)
        for label, (direct, trip), t_fixed, got in zip(labels, pairs, fixed, found):
            want = _scalar(oracle._directional_divergence,
                           direct, trip, spec, DEFAULT_T_GRID, t_fixed)
            assert _outcome(lambda: got) == _outcome(lambda: want), (kind, label)
            if kind == "forward-kl" and label == "edge-low":
                assert want[1] < DEFAULT_T_GRID[1]
            if kind == "forward-kl" and label == "edge-high":
                assert want[1] > DEFAULT_T_GRID[-2]
            if kind == "forward-kl" and label == "interior":
                assert abs(want[1] - 3.7) < 1e-3
