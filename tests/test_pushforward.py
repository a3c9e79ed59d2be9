"""The array pushforward of ``core`` against the dictionary one it replaced,
kept in ``pushforward_oracle``: the same support, the same bytes of
``probs`` and ``logp``, and the same exception with the same message, on
random kernels and through every caller in ``core``.
"""

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pushforward_oracle as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlconsist import core
from xlconsist.core import LogDist, StochasticKernel


def _outcome(f, *args):
    try:
        d = f(*args)
    except Exception as err:  # the oracle's exception is part of its behaviour
        return type(err), str(err)
    return (d.support, d.probs.tobytes(), d.logp.tobytes()) if isinstance(d, LogDist) else d


def _ids(rng, n):
    # sparse, partly negative IDs: nothing may assume small consecutive ones
    return sorted(int(i) for i in rng.choice(np.arange(-40, 2000), size=n, replace=False))


def _row(rng, codomain):
    support = sorted(rng.choice(codomain, size=rng.integers(1, len(codomain) + 1), replace=False))
    kind = rng.integers(4)
    if kind == 0:  # a point mass; the other entries carry zero mass
        return LogDist.point_mass(support, support[rng.integers(len(support))])
    if kind == 1:  # leaky, with log-weights far enough apart to underflow
        return LogDist.from_logp(support, rng.normal(size=len(support)) * 300.0)
    probs = rng.exponential(size=len(support))
    probs[rng.random(len(support)) < (0.4 if kind == 2 else 0.0)] = 0.0
    if not probs.any():
        probs[rng.integers(len(probs))] = 1.0
    return LogDist.from_probs(support, probs / probs.sum())


def _kernel(rng, domain, codomain, dom=0, cod=1):
    return StochasticKernel(dom, cod, {i: _row(rng, codomain) for i in domain})


def _inner(rng, support, zero_share):
    probs = rng.exponential(size=len(support))
    probs[rng.random(len(support)) < zero_share] = 0.0
    if not probs.any():
        probs[rng.integers(len(probs))] = 1.0
    return LogDist.from_probs(support, probs / probs.sum())


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n_in=st.sampled_from([1, 2, 3, 7, 8, 9, 17, 40, 90]),
       n_out=st.integers(1, 6), zero_share=st.sampled_from([0.0, 0.3, 0.8]),
       drop=st.sampled_from(["none", "dead", "live"]))
def test_pushforward_matches_oracle(seed, n_in, n_out, zero_share, drop):
    rng = np.random.default_rng(seed)
    domain, codomain = _ids(rng, n_in), _ids(rng, n_out)
    inner = _inner(rng, domain, zero_share)
    kernel = _kernel(rng, domain, codomain)
    dead = [i for i, p in zip(inner.support, inner.probs) if p == 0.0]
    live = [i for i, lp in zip(inner.support, inner.logp) if lp != -math.inf]
    rows = dict(kernel.rows)
    if drop == "dead":  # zero-mass inputs need no row
        for i in dead:
            del rows[i]
    elif drop == "live":  # a positive-mass input without a row is an error
        del rows[live[rng.integers(len(live))]]
    kernel = StochasticKernel(0, 1, rows)
    got = _outcome(core.pushforward, kernel, inner)
    assert got == _outcome(oracle.pushforward, kernel, inner)
    assert (got[0] is core.StructuralError) == (drop == "live")


@pytest.mark.parametrize("terms", [1, 2, 7, 8, 9, 16, 31, 64, 129, 256, 300])
def test_many_terms_per_output(terms):
    # every input reaches the same few outputs, so each output's terms are
    # summed pairwise by numpy from eight on
    rng = np.random.default_rng(terms)
    domain = list(range(terms))
    inner = _inner(rng, domain, 0.0)
    kernel = StochasticKernel(0, 1, {i: LogDist.from_logp((5, 6, 9), rng.normal(size=3) * 4.0)
                                     for i in domain})
    got = _outcome(core.pushforward, kernel, inner)
    assert got[0] == (5, 6, 9)
    assert got == _outcome(oracle.pushforward, kernel, inner)


def test_logs_are_math_log():
    # np.log and math.log differ on a few in a thousand sums in [1, 2]; two
    # comparable terms near 0 make such sums, and keep the difference
    rng = np.random.default_rng(11)
    outs = []
    for _ in range(2000):
        a, b = rng.uniform(0.3, 0.7, size=2)
        inner = LogDist.from_probs((0, 1), (a, 1.0 - a))
        kernel = StochasticKernel(0, 1, {0: LogDist.from_probs((5, 6), (b, 1.0 - b)),
                                         1: LogDist.from_probs((5, 6), (1.0 - b, b))})
        outs.append(_outcome(core.pushforward, kernel, inner)
                    == _outcome(oracle.pushforward, kernel, inner))
    assert all(outs), outs.index(False)


def test_all_dead_result_raises_the_oracle_error():
    # a row object whose entries all carry zero mass; no LogDist is one
    dead = SimpleNamespace(support=(3, 4), logp=np.array([-math.inf, -math.inf]))
    kernel = StochasticKernel(0, 1, {1: dead})
    inner = LogDist.point_mass((1, 2), 1)
    got = _outcome(core.pushforward, kernel, inner)
    assert got == (core.StructuralError, "pushforward produced an empty distribution")
    assert got == _outcome(oracle.pushforward, kernel, inner)


def _with_oracle(f, *args):
    with mock.patch.object(core, "pushforward", oracle.pushforward):
        return f(*args)


def _kernel_bits(kernel):
    return {x: (r.support, r.probs.tobytes(), r.logp.tobytes()) for x, r in kernel.rows.items()}


def _punch(rng, kernel, share):
    """The kernel without each row with probability ``share``."""
    rows = {i: r for i, r in kernel.rows.items() if rng.random() >= share}
    return StochasticKernel(kernel.domain, kernel.codomain, rows)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 12), m=st.integers(1, 12),
       k=st.integers(1, 12), missing=st.sampled_from([0.0, 0.1]))
def test_callers_match_oracle(seed, n, m, k, missing):
    rng = np.random.default_rng(seed)
    xs, ys, zs = _ids(rng, n), _ids(rng, m), _ids(rng, k)
    tau_out = _kernel(rng, xs, ys, 0, 1)
    pi = _punch(rng, _kernel(rng, ys, zs, 1, 2), missing)
    tau_back = _punch(rng, _kernel(rng, zs, xs, 2, 0), missing)
    back = _punch(rng, _kernel(rng, ys, xs, 1, 0), missing)

    def compose(outer, inner):
        return _kernel_bits(core.compose(outer, inner))

    assert _outcome(compose, pi, tau_out) == _outcome(_with_oracle, compose, pi, tau_out)
    for x in xs:
        got = _outcome(core.round_trip, tau_out, pi, tau_back, x)
        assert got == _outcome(oracle.round_trip, tau_out, pi, tau_back, x)
    for tol in (1e-9, 0.5):
        got = core.invertibility_report(tau_out, back, tol)
        want = oracle.invertibility_report(tau_out, back, tol)
        assert (got.invertible, got.max_tv.hex(), got.detail) == (
            want.invertible, want.max_tv.hex(), want.detail)
