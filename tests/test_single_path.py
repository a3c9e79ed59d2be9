"""Bitwise differential test: the bilingual oracle against the one
product-of-powers path the package implements.

With two languages the N-language objective, total, regression targets and
optimum, and the round-trip targets the optimum carries, must reproduce the
hand-written two-weight formulas in ``bilingual_oracle`` bit for bit, not
merely to a tolerance: every output the package writes depends on them.  The worlds span bijective and noisy
translators, balanced and unbalanced strengths, sharp and diffuse reference
rows, uniform and skewed priors, and exact and Monte-Carlo round trips.
"""

import numpy as np
import pytest
from bilingual_oracle import bilingual_optimum, dco_log_targets, pco_objective, pco_total
from conftest import tiny_bilingual

from xlconsist.core import LogDist, StochasticKernel
from xlconsist.objectives import (
    MonteCarloConfig,
    closed_form_optimum,
    n_language_log_targets,
    n_language_objective,
    n_language_optimum,
    n_language_total,
    round_trip_targets,
    target_table,
)
from xlconsist.scenario import GeneratorConfig, generate

N_WORLDS = 120
MC_SAMPLES = 512


def _world_config(i: int) -> GeneratorConfig:
    rng = np.random.default_rng(1000 + i)
    noisy = i % 2 == 1
    u = tuple(float(x) for x in np.exp(rng.uniform(-3.0, 3.0, 2)))
    v = tuple(float(x) for x in np.exp(rng.uniform(-3.0, 3.0, 2)))
    return GeneratorConfig(
        n_langs=2,
        n_prompts=int(rng.integers(1, 5)),
        n_candidates=int(rng.integers(2, 5)),
        translator_mode="noisy" if noisy else "bijective",
        noise=float(rng.uniform(0.05, 0.5)) if noisy else 0.0,
        ref_sharpness=float(np.exp(rng.uniform(np.log(0.05), np.log(3.0)))),
        # every third world keeps the balanced default strengths
        u=None if i % 3 == 0 else u,
        v=None if i % 3 == 0 else v,
        prior_mode="dirichlet" if i % 4 >= 2 else "uniform",
        seed=i,
    )


def _random_policy(s, rng) -> dict[int, StochasticKernel]:
    out = {}
    for lang in s.lang_ids:
        rows = {}
        for p in s.space(lang).prompts:
            sup = s.ref[lang].row(p).support
            rows[p] = LogDist.from_probs(sup, rng.dirichlet(np.ones(len(sup))))
        out[lang] = StochasticKernel(lang, lang, rows)
    return out


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _assert_same_dist(a, b):
    assert a.support == b.support
    assert _bits(a.probs) == _bits(b.probs)
    assert _bits(a.logp) == _bits(b.logp)


def _assert_same_optimum(a, b):
    assert a.floored == b.floored
    assert a.targets.keys() == b.targets.keys()
    for key, target in a.targets.items():
        _assert_same_dist(target, b.targets[key])
    assert a.log_normalizers.keys() == b.log_normalizers.keys()
    for p in a.log_normalizers:
        assert _bits(a.log_normalizers[p]) == _bits(b.log_normalizers[p])
    assert a.policy.keys() == b.policy.keys()
    for lang, kern in a.policy.items():
        assert kern.rows.keys() == b.policy[lang].rows.keys()
        for p, row in kern.rows.items():
            _assert_same_dist(row, b.row(lang, p))


def _assert_same_path(s, mc):
    oracle_opt = bilingual_optimum(s, mc=mc)
    _assert_same_optimum(oracle_opt, n_language_optimum(s, mc=mc))
    _assert_same_optimum(oracle_opt, closed_form_optimum(s, mc=mc))

    targets = round_trip_targets(s, mc)
    table = target_table(s, targets)
    for lang in s.lang_ids:
        for p in s.space(lang).prompts:
            expected = _bits(dco_log_targets(s, p, lang, mc=mc))
            assert _bits(table.rows[p]) == expected
            assert _bits(n_language_log_targets(s, p, lang, targets)) == expected

    per_prompt = {(lang, p): t for (lang, _, p), t in targets.items()}
    rng = np.random.default_rng(s.seed)
    for theta in (dict(s.ref), dict(oracle_opt.policy), _random_policy(s, rng)):
        for lang in s.lang_ids:
            for p in s.space(lang).prompts:
                t = per_prompt[(lang, p)]
                value = n_language_objective(theta[lang], s, p, lang, targets)
                pairs = [(pco_objective(theta[lang], s, p, lang, target=t), value)]
                if mc is None:  # the oracle computes exact targets itself
                    pairs.append((pco_objective(theta[lang], s, p, lang), value))
                for want, got in pairs:
                    assert _bits(got.fidelity) == _bits(want.fidelity)
                    assert _bits(got.reward_term) == _bits(want.reward_term)
                    assert _bits(got.total) == _bits(want.total)
        total = _bits(n_language_total(theta, s, targets))
        assert total == _bits(pco_total(theta, s, targets=per_prompt))
        if mc is None:
            assert total == _bits(pco_total(theta, s))


@pytest.mark.parametrize("i", range(N_WORLDS))
def test_generated_world_bit_identical(i):
    s = generate(_world_config(i))
    _assert_same_path(s, None)
    _assert_same_path(s, MonteCarloConfig(samples=MC_SAMPLES, seed=i))


def test_zero_mass_target_bit_identical():
    # a round trip with an exact zero: the floored branch of both paths
    s = tiny_bilingual([0.5, 0.5], [1.0, 0.0], beta1=0.3, beta2=4.0)
    assert bilingual_optimum(s).floored
    _assert_same_path(s, None)


def test_worlds_cover_the_regimes():
    configs = [_world_config(i) for i in range(N_WORLDS)]
    assert len(configs) >= 100
    assert {c.translator_mode for c in configs} == {"bijective", "noisy"}
    assert {c.prior_mode for c in configs} == {"uniform", "dirichlet"}
    unbalanced = [c for c in configs if c.u is not None
                  and not np.isclose(c.u[1] * c.v[1], 1.0)]
    assert len(unbalanced) >= N_WORLDS // 2
