"""The guarantee checks run on the code that serves evaluation.

``check_multi_language_consistency`` goes through the lockstep search of
``metrics.check_pairs`` at fixed temperatures; it must report what the
scalar loop in ``multi_language_oracle`` reported, bit for bit: the same
status, the same first failing direction in the detail and the same
``float.hex`` of the observed divergence.  ``run_checks`` runs the
100-perturbation minimality once and reports it under both check IDs.
"""

import dataclasses
import warnings

import multi_language_oracle as oracle
import numpy as np
import pytest

from xlconsist import propositions
from xlconsist.core import LogDist, StochasticKernel
from xlconsist.objectives import n_language_optimum
from xlconsist.propositions import (
    check_multi_language_consistency,
    check_multi_language_minimality,
    check_optimum_minimality,
    corrupt_exponent,
    run_checks,
)
from xlconsist.scenario import GeneratorConfig, generate

TOLS = (1e-9, 1e-3, 1e-2, 3e-2, 0.1, 1.0)


def _world(i: int):
    """A bijective cocycle world with rank-one balanced strengths."""
    rng = np.random.default_rng(500 + i)
    n = 3 + i % 3
    u = tuple(float(x) for x in np.exp(rng.uniform(-1.0, 1.0, n)))
    return generate(GeneratorConfig(
        n_langs=n, n_prompts=int(rng.integers(2, 5)), n_candidates=int(rng.integers(2, 6)),
        ref_sharpness=(0.3, 1.0)[i % 2], u=u, v=tuple(1.0 / x for x in u), seed=i))


def _outcome(result):
    observed = None if result.observed is None else float(result.observed).hex()
    return result.check_id, result.status, result.detail, observed, result.expected


def _one_language_corrupted(s, optimum):
    """The optimum with only the last language's rows off, so the first
    failing direction is not the first one searched."""
    last = s.lang_ids[-1]
    policy = dict(optimum.policy)
    policy[last] = corrupt_exponent(s, optimum).policy[last]
    return dataclasses.replace(optimum, policy=policy)


@pytest.mark.parametrize("i", range(12))
def test_multi_language_consistency_matches_scalar_oracle(i):
    s = _world(i)
    assert s.strengths.is_balanced()
    exact = n_language_optimum(s)
    cases = [(exact, 1e-9), (exact, 0.0)]
    cases += [(corrupt_exponent(s, exact), tol) for tol in TOLS]
    cases += [(_one_language_corrupted(s, exact), tol) for tol in TOLS]
    statuses = set()
    for optimum, tol in cases:
        want = oracle.check_multi_language_consistency(s, optimum=optimum, tol=tol)
        got = check_multi_language_consistency(s, optimum=optimum, tol=tol)
        assert _outcome(got) == _outcome(want), (tol, want.detail)
        statuses.add(want.status)
    assert statuses == {"pass", "fail"}


def test_multi_language_consistency_skips_as_the_oracle_does():
    worlds = [
        generate(GeneratorConfig(n_langs=2, seed=1)),
        generate(GeneratorConfig(n_langs=3, seed=2, u=(1.0, 2.0, 0.5))),
        generate(GeneratorConfig(n_langs=3, seed=3, translator_mode="noisy", noise=0.2)),
    ]
    for s in worlds:
        want = oracle.check_multi_language_consistency(s)
        assert want.status == "skipped"
        assert _outcome(check_multi_language_consistency(s)) == _outcome(want)


@pytest.mark.parametrize("n_langs", (2, 3))
@pytest.mark.parametrize("self_test", (False, True))
def test_run_checks_runs_minimality_once(monkeypatch, n_langs, self_test):
    s = generate(GeneratorConfig(n_langs=n_langs, n_prompts=3, n_candidates=3, seed=7))
    calls = []
    minimality = propositions._minimality

    def counted(*args, **kwargs):
        calls.append(args[2])
        return minimality(*args, **kwargs)

    monkeypatch.setattr(propositions, "_minimality", counted)
    results = run_checks(s, self_test=self_test)
    assert calls == ["multi-language-minimality"]

    optimum = n_language_optimum(s)
    if self_test:
        optimum = corrupt_exponent(s, optimum)
    monkeypatch.setattr(propositions, "_minimality", minimality)
    assert results[0] == check_optimum_minimality(s, optimum=optimum)
    assert results[3] == check_multi_language_minimality(s, optimum=optimum)
    if n_langs == 2:
        assert _outcome(results[0])[1:] == _outcome(results[3])[1:]


def test_minimality_fails_when_the_objective_at_the_optimum_is_infinite():
    # a reference row with an exact zero: the round-trip target of language
    # 1, prompt 8 has a zero too, so that optimum row is floored while the
    # objective, read on the unfloored targets, is +inf at the optimum; the
    # margins were inf - inf = nan and minimality passed on them
    s = generate(GeneratorConfig(n_langs=2, n_prompts=2, n_candidates=3, seed=7))
    p0 = s.space(0).prompts[0]
    rows = {**s.ref[0].rows, p0: LogDist.from_probs(s.ref[0].row(p0).support, [0.9, 0.1, 0.0])}
    s = dataclasses.replace(s, ref={**s.ref, 0: StochasticKernel(0, 0, rows)})
    assert n_language_optimum(s).floored == ((1, 8),)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning fails the test
        results = {r.check_id: r for r in run_checks(s)}
    for cid in ("optimum-minimality", "multi-language-minimality"):
        assert results[cid].status == "fail", cid
        assert results[cid].observed == float("inf")
        assert "optimum.floored ((1, 8),)" in results[cid].detail
