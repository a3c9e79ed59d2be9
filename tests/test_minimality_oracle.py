"""Bitwise differential test: the minimality check, which draws every
perturbation first and scores each row's perturbations as one stack,
against the per-perturbation loop it replaced, kept in
``minimality_oracle``.

Every field of the ``CheckResult`` must match: check ID, status, detail,
expected text and the bits of ``observed``.  The generated worlds have 1,
2, 3, 4 and 8 languages, bijective and noisy translators, Dirichlet priors,
3 to 17 candidates and reference rows sharp enough to hold exact zeros; the
worlds of ``tests/test_objective_oracle.py`` add floored optima (an
infinite objective), and truncated reference rows give worlds rows of
mixed support lengths.  They are checked on exact and Monte-Carlo targets,
at the true and the corrupted optimum, with 1, 7 and 100 perturbations.
"""

import dataclasses

import minimality_oracle as oracle
import numpy as np
import pytest
from conftest import tiny_bilingual
from test_objective_oracle import _world as _objective_world

from xlconsist import core, objectives
from xlconsist.core import LogDist, StochasticKernel
from xlconsist.objectives import MonteCarloConfig, n_language_optimum
from xlconsist.propositions import (
    _minimality,
    check_multi_language_minimality,
    check_optimum_minimality,
    corrupt_exponent,
)
from xlconsist.scenario import GeneratorConfig, generate

CANDIDATES = (3, 6, 10, 17)
# a concentration of 0.002 draws reference rows with exact zeros
SHARPNESS = (0.002, 1.0)
SETTINGS = ((1, 0), (7, 1), (100, 2))  # (perturbations, seed)


def _generated(n_langs, n_candidates, mode, sharpness, seed):
    rng = np.random.default_rng(seed)
    u = tuple(float(x) for x in np.exp(rng.uniform(-1.5, 1.5, n_langs)))
    v = tuple(float(x) for x in np.exp(rng.uniform(-1.5, 1.5, n_langs)))
    return generate(GeneratorConfig(
        n_langs=n_langs, n_prompts=2, n_candidates=n_candidates, translator_mode=mode,
        noise=0.3 if mode == "noisy" else 0.0, ref_sharpness=sharpness, u=u, v=v,
        prior_mode="dirichlet", seed=seed))


def _outcome(r):
    return r.check_id, r.status, r.detail, r.expected, float(r.observed).hex()


def _assert_same_checks(s, mc, settings=SETTINGS):
    """Both checks at the true and the corrupted optimum; the outcomes seen."""
    optimum = n_language_optimum(s, mc=mc)
    seen = []
    for opt in (optimum, corrupt_exponent(s, optimum)):
        for n, seed in settings:
            got = _minimality(s, opt, "minimality", n_perturbations=n, seed=seed)
            want = oracle._minimality(s, opt, "minimality", n_perturbations=n, seed=seed)
            assert _outcome(got) == _outcome(want), (n, seed)
            seen.append(got)
    return seen


@pytest.mark.parametrize("mode", ["bijective", "noisy"])
@pytest.mark.parametrize("n_langs", [1, 2, 3, 4, 8])
def test_stacked_minimality_bit_identical_to_oracle(n_langs, mode):
    seen = []
    for k, n_candidates in enumerate(CANDIDATES):
        for j, sharpness in enumerate(SHARPNESS):
            s = _generated(n_langs, n_candidates, mode, sharpness, 100 * n_langs + 10 * k + j)
            # each sharpness meets exact and Monte-Carlo targets across the lengths
            mc = None if (k + j) % 2 == 0 else MonteCarloConfig(64, seed=k)
            seen += _assert_same_checks(s, mc)
    assert any(r.status == "pass" for r in seen)
    if n_langs > 1:  # one language has no weight to corrupt
        assert any(r.status == "fail" for r in seen)


@pytest.mark.parametrize("n_langs,n_candidates", [(3, 17), (4, 10), (8, 6)])
@pytest.mark.parametrize("mode", ["bijective", "noisy"])
def test_floored_optima_bit_identical(n_langs, n_candidates, mode):
    seen = []
    for seed, variant in enumerate(("dense", "zeros", "truncated")):
        seen += _assert_same_checks(_objective_world(n_langs, n_candidates, mode, variant, seed),
                                    None)
    assert any(r.status == "fail" and r.observed == np.inf for r in seen)
    assert any(np.isfinite(r.observed) for r in seen)


def _truncated(s, seed, single=False):
    """``s`` with every reference row cut to a random length of at least 2
    and renormalized; with ``single``, each language's first row keeps one
    entry instead (the oracle would draw forever for it)."""
    rng = np.random.default_rng(seed)
    ref = {}
    for lang, kernel in s.ref.items():
        rows = {}
        for j, (p, row) in enumerate(kernel.rows.items()):
            keep = 1 if single and j == 0 else int(rng.integers(2, len(row.support) + 1))
            rows[p] = LogDist.from_probs(row.support[:keep],
                                         row.probs[:keep] / row.probs[:keep].sum())
        ref[lang] = StochasticKernel(lang, lang, rows)
    return dataclasses.replace(s, ref=ref)


@pytest.mark.parametrize("n_langs,n_candidates", [(2, 3), (3, 17), (4, 10), (8, 6)])
def test_mixed_lengths_bit_identical(n_langs, n_candidates):
    s = _truncated(_generated(n_langs, n_candidates, "noisy", 1.0, n_langs), n_langs)
    assert len({len(r.support) for k in s.ref.values() for r in k.rows.values()}) > 1
    seen = _assert_same_checks(s, None) + _assert_same_checks(s, MonteCarloConfig(64, seed=1))
    assert any(r.status == "pass" for r in seen)


@pytest.mark.parametrize("n_langs", [2, 3, 4, 8])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rows_of_one_entry_stay_put(n_langs, seed):
    # such a row once hung the check; the others are perturbed as before
    s = _truncated(_generated(n_langs, 6, "noisy", 1.0, seed), seed, single=True)
    assert sum(len(r.support) == 1 for k in s.ref.values() for r in k.rows.values()) == n_langs
    optimum = n_language_optimum(s)
    assert check_multi_language_minimality(s, optimum=optimum).status == "pass"
    corrupted = check_multi_language_minimality(s, optimum=corrupt_exponent(s, optimum))
    # from four languages on, some corrupted optima pass: the blind spot of
    # perturbing every row at once
    assert corrupted.status == "fail" or n_langs >= 4


@pytest.mark.parametrize("check", [check_optimum_minimality, check_multi_language_minimality])
@pytest.mark.parametrize("kw", [
    {"n_perturbations": 0}, {"n_perturbations": -3}, {"n_perturbations": 2.5},
    {"n_perturbations": True}, {"n_perturbations": "7"},
    {"seed": -1}, {"seed": 1.5}, {"seed": False}, {"seed": None},
])
def test_minimality_refuses_a_count_or_seed_that_is_not_an_integer(check, kw):
    s = tiny_bilingual([0.5, 0.5], [0.5, 0.5])
    [name] = kw
    with pytest.raises(ValueError, match=f"{name} must be an integer >= {int(name != 'seed')}"):
        check(s, **kw)


def test_minimality_accepts_numpy_integers():
    s = tiny_bilingual([0.5, 0.5], [0.5, 0.5])
    result = check_multi_language_minimality(s, n_perturbations=np.int64(3), seed=np.int32(4))
    assert result.status == "pass" and result.detail.startswith("3 perturbations")


def test_minimality_aligns_each_row_twice_and_builds_no_distribution(monkeypatch):
    s = generate(GeneratorConfig(n_langs=4, n_prompts=3, n_candidates=5, seed=9))
    optimum = n_language_optimum(s)
    aligned, built = [], []
    align, post_init = objectives._aligned, core.LogDist.__post_init__

    def counted_align(*args):
        aligned.append(args[1:3])
        return align(*args)

    def counted_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(objectives, "_aligned", counted_align)
    monkeypatch.setattr(core.LogDist, "__post_init__", counted_post_init)
    result = check_multi_language_minimality(s, optimum=optimum)
    assert result.status == "pass"
    rows = [(lang, p) for lang in s.lang_ids for p in s.space(lang).prompts]
    assert sorted(aligned) == sorted(rows * 2)
    assert built == []
