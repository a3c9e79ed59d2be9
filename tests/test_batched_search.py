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
    got = _outcome(lambda: _search([direction], spec, GRIDS[grid], [fixed])[0])
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
        found = _search(list(pairs), spec, DEFAULT_T_GRID, fixed)
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
