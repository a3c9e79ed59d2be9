"""The route-level round trips and the stacked pushforward of ``core``
against the per-prompt ``core.round_trip`` and the dictionary oracle in
``pushforward_oracle``: for every row the same support and the same bytes
of ``probs`` and ``logp``, or the same error message.  Through each caller
-- ``metrics.check_pairs``, the exact targets of ``objectives`` and
``core.invertibility_report`` -- the results and the first error are those
of the per-prompt loops they replaced.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pushforward_oracle as oracle
import pytest
import scalar_search_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from xlconsist import core
from xlconsist.core import LogDist, RowStack, StochasticKernel, StructuralError
from xlconsist.metrics import DEFAULT_T_GRID, check_pairs
from xlconsist.objectives import round_trip_targets
from xlconsist.scenario import GeneratorConfig, generate


def _bits(d):
    return d.support, d.probs.tobytes(), d.logp.tobytes()


def _outcome(f, *args):
    try:
        return _bits(f(*args))
    except StructuralError as err:
        return str(err)


def _stacked(stack: RowStack, failed: dict) -> dict:
    """Each row of a stack as bits, and each failed row as its message."""
    out = dict(failed)
    for r in np.unique(stack.row).tolist():
        at = stack.row == r
        out[r] = (tuple(stack.ids[at].tolist()), stack.probs[at].tobytes(),
                  stack.logp[at].tobytes())
    return out


def _ids(rng, n):
    # sparse, partly negative IDs: nothing may assume small consecutive ones
    return sorted(int(i) for i in rng.choice(np.arange(-40, 2000), size=n, replace=False))


def _row(rng, codomain):
    """A row on a random part of ``codomain``, so support lengths differ."""
    support = sorted(rng.choice(codomain, size=rng.integers(1, len(codomain) + 1), replace=False))
    kind = rng.integers(4)
    if kind == 0:  # a point mass; the other entries carry zero mass
        return LogDist.point_mass(support, support[rng.integers(len(support))])
    if kind == 1:  # leaky, with log-weights far enough apart to underflow
        return LogDist.from_logp(support, rng.normal(size=len(support)) * 300.0)
    probs = rng.exponential(size=len(support))
    probs[rng.random(len(support)) < (0.4 if kind == 2 else 0.0)] = 0.0  # zero-mass entries
    if not probs.any():
        probs[rng.integers(len(probs))] = 1.0
    return LogDist.from_probs(support, probs / probs.sum())


def _kernel(rng, domain, codomain, dom, cod, missing=0.0):
    """A kernel without each row with probability ``missing``."""
    return StochasticKernel(dom, cod, {i: _row(rng, codomain) for i in domain
                                       if rng.random() >= missing})


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 9), m=st.integers(1, 12),
       k=st.integers(1, 12), n_prompts=st.integers(1, 12),
       missing=st.sampled_from([0.0, 0.0, 0.1, 0.3]))
def test_route_matches_per_prompt_and_oracle(seed, n, m, k, n_prompts, missing):
    rng = np.random.default_rng(seed)
    xs, ys, zs = _ids(rng, n), _ids(rng, m), _ids(rng, k)
    tau_out = _kernel(rng, xs, ys, 0, 1, missing)
    pi = _kernel(rng, ys, zs, 1, 2, missing)
    tau_back = _kernel(rng, zs, xs, 2, 0, missing)
    # prompts may repeat, and may have no row at all
    prompts = rng.choice(xs + [xs[-1] + 1], size=n_prompts).tolist()
    stack, failed = core.round_trips(tau_out, pi, tau_back, prompts)
    got = _stacked(stack, failed)
    want = [_outcome(oracle.round_trip, tau_out, pi, tau_back, x) for x in prompts]
    assert [_outcome(core.round_trip, tau_out, pi, tau_back, x) for x in prompts] == want
    assert [got[i] for i in range(len(prompts))] == want
    assert sorted(got) == list(range(len(prompts)))
    # the error the per-prompt loop raises first: earliest prompt, then stage
    errors = [w for w in want if isinstance(w, str)]
    if errors:
        with pytest.raises(StructuralError) as err:
            core.raise_first(failed)
        assert str(err.value) == errors[0]
    else:
        assert [_bits(d) for d in stack.dists()] == want


@pytest.mark.parametrize("terms", [(1, 7, 8), (9, 16, 2), (31, 64, 129), (256, 8, 300)])
def test_rows_with_many_terms_per_output(terms):
    # in each row every input reaches the same few outputs, so numpy sums
    # the terms of an output pairwise from eight on; rows of different
    # term counts share one pass
    rng = np.random.default_rng(sum(terms))
    domain = list(range(max(terms)))
    kernel = StochasticKernel(0, 1, {i: LogDist.from_logp((5, 6, 9), rng.normal(size=3) * 4.0)
                                     for i in domain})
    inners = [LogDist.from_logp(domain[:t], rng.normal(size=t)) for t in terms]
    failed = {}
    got = _stacked(core.push_rows(kernel, RowStack.of(inners), failed), failed)
    assert got == {i: _outcome(oracle.pushforward, kernel, d) for i, d in enumerate(inners)}


def test_each_failing_row_keeps_its_own_first_failure():
    # row 0 pushes; row 1 reaches only a row whose entries all carry zero
    # mass (no LogDist is one); row 2 has a live input without a row, and
    # row 3 fails both ways, the missing row first as the oracle raises it
    dead = SimpleNamespace(support=(3, 4), logp=np.array([-math.inf, -math.inf]))
    kernel = StochasticKernel(0, 1, {1: LogDist.from_probs((3, 4), (0.25, 0.75)), 2: dead})
    inners = [LogDist.point_mass((1, 2), 1), LogDist.point_mass((1, 2), 2),
              LogDist.from_probs((1, 7), (0.5, 0.5)), LogDist.from_probs((2, 7), (0.5, 0.5))]
    failed = {}
    got = _stacked(core.push_rows(kernel, RowStack.of(inners), failed), failed)
    assert got == {i: _outcome(oracle.pushforward, kernel, d) for i, d in enumerate(inners)}
    assert failed == {1: "pushforward produced an empty distribution",
                      2: "kernel 0->1 has no row for ID 7", 3: "kernel 0->1 has no row for ID 7"}


WORLDS = {
    "bijective": GeneratorConfig(n_langs=2, n_prompts=4, n_candidates=6, seed=3),
    "leaky": GeneratorConfig(n_langs=2, n_prompts=4, n_candidates=5, seed=4,
                             translator_mode="noisy", noise=0.3),
    "trilingual-leaky": GeneratorConfig(n_langs=3, n_prompts=3, n_candidates=4, seed=5,
                                        translator_mode="noisy", noise=0.1),
}


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_exact_targets_match_the_oracle(world):
    s = generate(WORLDS[world])
    targets = round_trip_targets(s)
    for (lang, via, p), t in targets.items():
        want = oracle.round_trip(s.translator(lang, via), s.ref[via], s.translator(via, lang), p)
        assert _bits(t) == _bits(want), (lang, via, p)


def _pairs(s):
    return [((a, b), (pt[a], pt[b])) for a in s.lang_ids for b in s.lang_ids if a < b
            for pt in s.alignment.prompt_tuples]


@pytest.mark.parametrize("world", sorted(WORLDS))
@pytest.mark.parametrize("mode", ["search", "fixed", "fixed-direct"])
def test_check_pairs_matches_the_per_direction_loop(world, mode):
    s = generate(WORLDS[world])
    pi = dict(s.ref)
    fixed = None if mode == "search" else (lambda a, b: 0.5 + a + 0.25 * b)
    fixed_direct = (lambda a, b: 1.0 + b) if mode == "fixed-direct" else None
    spec = core.DivergenceSpec("forward-kl")
    reports = check_pairs(pi, s.translators, _pairs(s), spec, 1e-9, DEFAULT_T_GRID,
                          fixed, fixed_direct)
    for rep in reports:
        (m, n), (x_m, x_n) = rep.lang_pair, rep.prompt_pair
        found = []
        for a, b, x in ((m, n, x_m), (n, m, x_n)):
            trip = oracle.round_trip(s.translator(a, b), pi[b], s.translator(b, a), x)
            direct = pi[a].row(x)
            if fixed_direct is not None:
                direct = core.anneal(direct, fixed_direct(a, b))
            found.append(scalar_search_oracle._directional_divergence(
                direct, trip, spec, DEFAULT_T_GRID, None if fixed is None else fixed(a, b)))
        (d1, t1, e1), (d2, t2, e2) = found
        assert (rep.divergence_1.hex(), rep.best_T1.hex(), rep.divergence_2.hex(),
                rep.best_T2.hex(), rep.support_extended) == (
                    d1.hex(), t1.hex(), d2.hex(), t2.hex(), e1 or e2)


def _first_error(pi, translators, pairs):
    """The error the former per-direction loop of ``check_pairs`` raised first."""
    for (m, n), (x_m, x_n) in pairs:
        for a, b, x in ((m, n, x_m), (n, m, x_n)):
            try:
                oracle.round_trip(translators[(a, b)], pi[b], translators[(b, a)], x)
                pi[a].row(x)
            except StructuralError as err:
                return str(err)
    return None


@pytest.mark.parametrize("seed", range(24))
def test_check_pairs_raises_the_first_failing_direction(seed):
    # a leaky trip fails wherever its via language lost a row, a bijective
    # one only where it lands on a lost row
    s = generate(WORLDS[sorted(WORLDS)[seed % 3]])
    rng = np.random.default_rng(seed)
    # drop rows of the policy, and now and then of a translator
    pi = {lang: StochasticKernel(lang, lang, {p: r for p, r in k.rows.items()
                                              if rng.random() >= 0.2})
          for lang, k in s.ref.items()}
    translators = dict(s.translators)
    if seed % 4 == 0:
        key = list(translators)[rng.integers(len(translators))]
        k = translators[key]
        translators[key] = StochasticKernel(k.domain, k.codomain, {
            i: r for i, r in k.rows.items() if rng.random() >= 0.1})
    pairs = _pairs(s)
    rng.shuffle(pairs)
    want = _first_error(pi, translators, pairs)
    if want is None:
        check_pairs(pi, translators, pairs, core.DivergenceSpec("forward-kl"), 1e-9,
                    DEFAULT_T_GRID)
        return
    with pytest.raises(StructuralError) as err:
        check_pairs(pi, translators, pairs, core.DivergenceSpec("forward-kl"), 1e-9,
                    DEFAULT_T_GRID)
    assert str(err.value) == want


def _report(r):
    return r.invertible, r.max_tv.hex(), r.detail


def _without(kernel, ids):
    return StochasticKernel(kernel.domain, kernel.codomain,
                            {i: r for i, r in kernel.rows.items() if i not in ids})


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_invertibility_report_matches_the_oracle(world):
    s = generate(WORLDS[world])
    rng = np.random.default_rng(len(world))
    for a, b in s.translators:
        mu, nu = s.translator(a, b), s.translator(b, a)
        cases = [(mu, nu), (nu, mu), (mu, mu), (mu, StochasticKernel(b, a, {}))]
        for _ in range(4):  # broken pairs: rows missing on either side
            cases.append((_without(mu, set(rng.choice(list(mu.rows), size=2).tolist())), nu))
            cases.append((mu, _without(nu, set(rng.choice(list(nu.rows), size=1).tolist()))))
        for tol in (1e-9, 0.3):
            for x, y in cases:
                assert _report(core.invertibility_report(x, y, tol)) == _report(
                    oracle.invertibility_report(x, y, tol))


def test_missing_row_in_exact_targets_raises_as_the_per_prompt_loop():
    # only the route through the broken reference fails
    s = generate(WORLDS["leaky"])
    for lang, via in ((0, 1), (1, 0)):
        for drop in list(s.ref[via].rows)[:3]:
            broken = dataclasses.replace(s, ref={**s.ref, via: _without(s.ref[via], {drop})})
            want = None
            for p in s.space(lang).prompts:
                try:
                    oracle.round_trip(s.translator(lang, via), broken.ref[via],
                                      s.translator(via, lang), p)
                except StructuralError as err:
                    want = str(err)
                    break
            assert want is not None
            with pytest.raises(StructuralError) as err:
                round_trip_targets(broken)
            assert str(err.value) == want
