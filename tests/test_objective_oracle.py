"""The N-language objective of ``objectives`` against the one it replaced,
kept in ``objective_oracle``, bit for bit: every field of each prompt's
``PcoValue`` and the prior-weighted total.

The worlds have 3, 4 and 8 languages, bijective and noisy translators, and
rows both shorter and longer than numpy's 8-term pairwise-summation
threshold.  Exact zeros in the reference rows, in one translator and in
the policies make references and targets meet positive policy mass with
zero mass, so fidelity, reward and total are each infinite somewhere; a
truncated variant gives the rows of one world mixed lengths, and language
0 has a prompt without prior mass.
"""

import dataclasses

import numpy as np
import objective_oracle as oracle
import pytest

from xlconsist.core import LogDist, StochasticKernel
from xlconsist.objectives import (
    n_language_objective,
    n_language_optimum,
    n_language_total,
    round_trip_targets,
)
from xlconsist.scenario import GeneratorConfig, generate


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _zeroed(support, probs, rng) -> LogDist:
    """``probs`` on ``support`` with about a third of its entries set to
    zero mass, at least one kept positive, renormalized."""
    probs = np.array(probs, dtype=float)
    probs[rng.random(len(probs)) < 0.35] = 0.0
    if not probs.any():
        probs[rng.integers(len(probs))] = 1.0
    return LogDist.from_probs(support, probs / probs.sum())


def _world(n_langs, n_candidates, mode, variant, seed):
    """A generated world whose language 0 has a prompt without prior mass.
    In variant ``zeros`` language 0's reference rows have exact zeros, and
    no row of translator (1, 0) reaches the first candidate of a language-0
    prompt where it can reach another; in ``truncated`` every reference row
    is also cut to a random length."""
    s = generate(GeneratorConfig(n_langs=n_langs, n_prompts=3, n_candidates=n_candidates,
                                 translator_mode=mode, noise=0.3 if mode == "noisy" else 0.0,
                                 u=tuple(np.linspace(0.4, 2.5, n_langs)),
                                 v=tuple(np.linspace(1.5, 0.6, n_langs)),
                                 prior_mode="dirichlet", seed=seed))
    rng = np.random.default_rng(seed)
    ref = dict(s.ref)
    for lang, kernel in s.ref.items():
        rows = {}
        for p, row in kernel.rows.items():
            keep = int(rng.integers(1, len(row.support) + 1))
            keep = keep if variant == "truncated" else len(row.support)
            rows[p] = LogDist.from_probs(row.support[:keep],
                                         row.probs[:keep] / row.probs[:keep].sum())
            if lang == 0 and variant != "dense":
                rows[p] = _zeroed(rows[p].support, rows[p].probs, rng)
        ref[lang] = StochasticKernel(lang, lang, rows)
    back = s.translator(1, 0)
    dead = np.array([s.space(0).candidates[p][0] for p in s.space(0).prompts])
    rows = {}
    for i, row in back.rows.items():
        probs = np.where(np.isin(row.support, dead) & (variant != "dense"), 0.0, row.probs)
        rows[i] = LogDist.from_probs(row.support, probs / probs.sum()) if probs.any() else row
    translators = {**s.translators, (1, 0): StochasticKernel(1, 0, rows)}
    prior = s.priors[0]
    massless = prior.probs.copy()
    massless[1] = 0.0
    priors = {**s.priors, 0: LogDist.from_probs(prior.support, massless / massless.sum())}
    return dataclasses.replace(s, ref=ref, translators=translators, priors=priors)


def _policies(s, rng):
    """The reference, the optimum, and three random policies with exact
    zeros: on the whole reference support, only where the reference has
    mass, and only where it has none (anywhere in a row without zeros)."""
    out = [dict(s.ref), dict(n_language_optimum(s).policy)]
    for where in (lambda r: r >= 0.0, lambda r: r > 0.0, lambda r: r == 0.0):
        kernels = {}
        for lang in s.lang_ids:
            rows = {}
            for p, row in s.ref[lang].rows.items():
                probs = rng.dirichlet(np.ones(len(row.support))) * where(row.probs)
                rows[p] = _zeroed(row.support, probs if probs.any() else row.probs, rng)
            kernels[lang] = StochasticKernel(lang, lang, rows)
        out.append(kernels)
    return out


@pytest.mark.parametrize("n_langs,n_candidates", [(3, 17), (4, 10), (8, 6)])
@pytest.mark.parametrize("mode", ["bijective", "noisy"])
def test_objective_bit_identical_to_oracle(n_langs, n_candidates, mode):
    totals, values = [], []
    for seed, variant in enumerate(("dense", "zeros", "truncated") * 2):
        s = _world(n_langs, n_candidates, mode, variant, seed)
        targets = round_trip_targets(s)
        for theta in _policies(s, np.random.default_rng(100 + seed)):
            for lang in s.lang_ids:
                for p in s.space(lang).prompts:
                    got = n_language_objective(theta[lang], s, p, lang, targets)
                    want = oracle.n_language_objective(theta[lang], s, p, lang, targets)
                    assert _bits(got.fidelity) == _bits(want.fidelity), (seed, lang, p)
                    assert _bits(got.reward_term) == _bits(want.reward_term), (seed, lang, p)
                    assert _bits(got.total) == _bits(want.total), (seed, lang, p)
                    values.append(got)
            total = n_language_total(theta, s, targets)
            assert _bits(total) == _bits(oracle.n_language_total(theta, s, targets)), seed
            totals.append(total)
    # the cases the rewrite leaves to IEEE arithmetic all occur
    assert any(np.isfinite(t) for t in totals) and np.inf in totals
    assert any(v.fidelity == np.inf and np.isfinite(v.reward_term) for v in values)
    assert any(np.isfinite(v.fidelity) and v.reward_term == -np.inf for v in values)
    assert any(v.fidelity == np.inf and v.reward_term == -np.inf for v in values)
    assert any(np.isfinite(v.total) for v in values)
