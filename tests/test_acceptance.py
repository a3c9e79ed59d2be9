"""Acceptance suite: every release criterion, one test each.

Run ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion.  Tolerances are fixed here, not configurable: they are the
contract.  Expected constants were computed with an independent
high-precision oracle; brute-force re-implementations appear inline where
a criterion demands an independent route to the same number.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from bilingual_oracle import pco_objective
from golden_pipeline import GOLDEN_FILES, run_benchmark_pipeline

from xlconsist.core import (
    DIVERGENCE_KINDS,
    DivergenceSpec,
    LogDist,
    StochasticKernel,
    anneal,
    embed,
    f_divergence,
    forward_kl,
    round_trip,
    total_variation,
)
from xlconsist.metrics import changed_fraction, check_consistency, rankc, rankc_report
from xlconsist.objectives import (
    LogitTable,
    MonteCarloConfig,
    closed_form_optimum,
    n_language_objective,
    n_language_optimum,
    policy_kernels,
    round_trip_target,
    round_trip_targets,
    target_table,
)
from xlconsist.optim import (
    METHOD_DCO,
    METHOD_REINFORCE,
    OptimizerConfig,
    fit_dco,
    fit_pco_reinforce,
    gradient_check,
)
from xlconsist.propositions import (
    check_multi_language_consistency,
    check_optimum_consistency,
    check_optimum_minimality,
)
from xlconsist.scenario import (
    Alignment,
    GeneratorConfig,
    LanguageSpace,
    Scenario,
    StrengthConfig,
    generate,
)

GOLDEN_DIR = Path(__file__).parent / "golden" / "benchmark"

BENCH = GeneratorConfig(n_langs=2, n_prompts=4, n_candidates=4, seed=7)

BALANCED_BETAS = [(0.5, 2.0), (1.0, 1.0), (2.0, 0.5)]


def scenario_family():
    """50 seeded bilingual worlds, 4-16 prompts, 2-8 candidates, balanced."""
    prompts = [4, 8, 12, 16]
    cands = [2, 4, 6, 8]
    out = []
    for seed in range(50):
        b1, b2 = BALANCED_BETAS[seed % 3]
        out.append(generate(GeneratorConfig(
            n_langs=2, n_prompts=prompts[seed % 4], n_candidates=cands[(seed // 4) % 4],
            u=(1.0, b2), v=(1.0, b1), seed=seed,
        )))
    return out


@pytest.fixture(scope="module")
def family():
    return scenario_family()


@pytest.fixture(scope="module")
def fitted_benchmark():
    """Both optimizers on the benchmark scenario, shared across criteria."""
    s = generate(BENCH)
    started = time.perf_counter()
    dco_table, dco_trace = fit_dco(s, OptimizerConfig(
        method=METHOD_DCO, step_size=0.5, max_iters=10_000, tol=1e-9))
    rl_policy, rl_trace = fit_pco_reinforce(s, OptimizerConfig(
        method=METHOD_REINFORCE, step_size=0.15, max_iters=5_000,
        batch=8, rollouts=256, seed=5))
    elapsed = time.perf_counter() - started
    return s, dco_table, dco_trace, rl_policy, rl_trace, elapsed


def test_c01_closed_form_minimality(family):
    """Closed form beats 100 perturbed policies on 50 seeded scenarios."""
    started = time.perf_counter()
    for s in family:
        result = check_optimum_minimality(s, n_perturbations=100, seed=s.seed)
        assert result.status == "pass", f"seed {s.seed}: {result.detail}"
        assert result.observed > 0.0
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"minimality sweep took {elapsed:.1f}s"
    print(f"ACCEPTANCE closed-form minimality: PASS ({elapsed:.1f}s)")


def test_c02_fixed_temperature_consistency(family):
    """Both directional divergences vanish at the strength exponents, all
    divergence kinds, on every bijective balanced scenario."""
    started = time.perf_counter()
    for s in family:
        result = check_optimum_consistency(s, tol=1e-9)
        assert result.status == "pass", f"seed {s.seed}: {result.detail}"
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"consistency sweep took {elapsed:.1f}s"
    print(f"ACCEPTANCE fixed-temperature consistency: PASS ({elapsed:.1f}s)")


def test_c03_two_optimizers_reach_the_same_policy(fitted_benchmark):
    """Off-policy regression hits the optimum to 1e-6; on-policy roll-outs
    get within 0.02; the two agree within 0.03."""
    s, dco_table, dco_trace, rl_policy, rl_trace, elapsed = fitted_benchmark
    assert dco_trace.converged
    assert len(dco_trace.rows) <= 10_000
    assert dco_trace.final_tv <= 1e-6
    assert rl_trace.final_tv <= 0.02
    dco_policy = policy_kernels(dco_table, s)
    worst = max(
        total_variation(dco_policy[lang].row(p), rl_policy[lang].row(p))
        for lang in s.lang_ids for p in s.space(lang).prompts
    )
    assert worst <= 0.03
    assert elapsed < 120.0, f"fits took {elapsed:.1f}s"
    print(f"ACCEPTANCE optimizer agreement: PASS (tv {worst:.4f}, {elapsed:.1f}s)")


def test_c04_off_policy_sample_ledger(fitted_benchmark):
    """The regression route consumes zero roll-outs; the on-policy route
    consumes exactly iterations x batch x rollouts."""
    _, _, dco_trace, _, rl_trace, _ = fitted_benchmark
    assert all(r.samples == 0 for r in dco_trace.rows)
    assert dco_trace.total_samples == 0
    for row in rl_trace.rows:
        assert row.samples == row.iteration * 8 * 256
    print("ACCEPTANCE off-policy ledger: PASS "
          f"(0 vs {rl_trace.total_samples} samples)")


def _brute_force_ranking_overlap(probs1, ids1, probs2, ids2, mapping):
    """Independent re-implementation: literal weights exp(M - j)."""
    order1 = [i for _, i in sorted(zip(probs1, ids1), key=lambda t: (-t[0], t[1]))]
    order2 = [i for _, i in sorted(zip(probs2, ids2), key=lambda t: (-t[0], t[1]))]
    m = len(ids1)
    weights = [math.exp(m - j) for j in range(1, m + 1)]
    total = 0.0
    for j in range(1, m + 1):
        top1 = {mapping[i] for i in order1[:j]}
        top2 = set(order2[:j])
        total += weights[j - 1] * (len(top1 & top2) / j)
    return total / sum(weights)


def test_c05_ranking_agreement_values():
    """Worked ranking-agreement values match a brute-force route to 1e-12,
    and the optimum scores exactly 1.0 on bijective tie-free scenarios."""
    # identical rankings
    for m in (1, 2, 3, 6):
        probs = np.arange(1, m + 1) / np.arange(1, m + 1).sum()
        d1 = LogDist.from_probs(range(m), probs)
        d2 = LogDist.from_probs(range(50, 50 + m), probs)
        cmap = {i: 50 + i for i in range(m)}
        assert rankc(d1, d2, cmap) == 1.0
        bf = _brute_force_ranking_overlap(probs, list(range(m)), probs,
                                          list(range(50, 50 + m)), cmap)
        assert abs(rankc(d1, d2, cmap) - bf) <= 1e-12

    # two candidates, reversed ranking: 1 / (e + 1)
    d1 = LogDist.from_probs((0, 1), [0.9, 0.1])
    d2 = LogDist.from_probs((5, 6), [0.2, 0.8])
    cmap = {0: 5, 1: 6}
    val = rankc(d1, d2, cmap)
    assert abs(val - 0.2689414213699951) <= 1e-12
    assert abs(val - _brute_force_ranking_overlap(
        [0.9, 0.1], [0, 1], [0.2, 0.8], [5, 6], cmap)) <= 1e-12

    # three candidates, top-two swap: (e + 1) / (e^2 + e + 1)
    d1 = LogDist.from_probs((0, 1, 2), [0.5, 0.3, 0.2])
    d2 = LogDist.from_probs((5, 6, 7), [0.3, 0.5, 0.2])
    cmap = {0: 5, 1: 6, 2: 7}
    val = rankc(d1, d2, cmap)
    assert abs(val - 0.3347590442251781) <= 1e-12
    assert abs(val - _brute_force_ranking_overlap(
        [0.5, 0.3, 0.2], [0, 1, 2], [0.3, 0.5, 0.2], [5, 6, 7], cmap)) <= 1e-12

    # the optimum ranks identically in both languages on bijective worlds
    for seed in (7, 23, 41):
        s = generate(GeneratorConfig(n_langs=2, n_prompts=6, n_candidates=5, seed=seed))
        report = rankc_report(s, dict(closed_form_optimum(s).policy))
        assert report.clc_all == 1.0
        assert all(v == 1.0 for vals in report.per_prompt.values() for v in vals)
    print("ACCEPTANCE ranking agreement values: PASS")


def test_c06_three_language_guarantees():
    """Pairwise annealed consistency on a cocycle world with rank-one
    balanced strengths, and exact two-language reduction."""
    s3 = generate(GeneratorConfig(n_langs=3, n_prompts=4, n_candidates=3, seed=31,
                                  u=(1.0, 2.0, 0.5), v=(1.0, 0.5, 2.0)))
    assert s3.strengths.is_balanced()
    result = check_multi_language_consistency(s3, tol=1e-9)
    assert result.status == "pass", result.detail

    # the same identity holds under every divergence kind
    opt = n_language_optimum(s3)
    for kind in DIVERGENCE_KINDS:
        spec = DivergenceSpec(kind)
        for m in s3.lang_ids:
            for n in s3.lang_ids:
                if m == n:
                    continue
                u_m = s3.strengths.u[m]
                u_n = s3.strengths.u[n]
                for pt in s3.alignment.prompt_tuples:
                    x_m = pt[m]
                    direct = anneal(opt.row(m, x_m), u_n)
                    trip = anneal(round_trip(s3.translator(m, n), opt.policy[n],
                                             s3.translator(n, m), x_m), u_m)
                    assert f_divergence(spec, direct, trip) <= 1e-9

    # two-language reduction: both code paths to 1e-12
    s2 = generate(GeneratorConfig(n_langs=2, n_prompts=4, n_candidates=4, seed=6,
                                  u=(1.0, 2.0), v=(1.0, 0.5)))
    bi, multi = closed_form_optimum(s2), n_language_optimum(s2)
    for lang in s2.lang_ids:
        for p in s2.space(lang).prompts:
            gap = np.max(np.abs(bi.row(lang, p).probs - multi.row(lang, p).probs))
            assert gap <= 1e-12
            theta = {lang: s2.ref[lang] for lang in s2.lang_ids}
            a = pco_objective(theta[lang], s2, p, lang).total
            b = n_language_objective(theta[lang], s2, p, lang, multi.targets).total
            assert abs(a - b) <= 1e-12
    print("ACCEPTANCE multi-language guarantees: PASS")


def test_c07_gradient_check():
    """Analytic subgradients match central differences: 1e-4 away from the
    L1 kinks, 1e-6 everywhere for the smooth variant."""
    s = generate(BENCH)
    targets = target_table(s, round_trip_targets(s))
    rng = np.random.default_rng(3)
    away = {p: targets.rows[p] + rng.uniform(0.2, 1.0, len(targets.rows[p]))
            * rng.choice([-1.0, 1.0], len(targets.rows[p]))
            for p in targets.prompts()}
    z = LogitTable(targets.supports, away)
    res_l1 = gradient_check(s, z, h=1e-5, norm="l1")
    assert res_l1.status == "ok"
    assert res_l1.max_rel_error <= 1e-4

    anywhere = {p: targets.rows[p] + rng.normal(0.0, 0.7, len(targets.rows[p]))
                for p in targets.prompts()}
    res_l2 = gradient_check(s, LogitTable(targets.supports, anywhere),
                            h=1e-5, norm="l2")
    assert res_l2.status == "ok"
    assert res_l2.max_rel_error <= 1e-6
    print(f"ACCEPTANCE gradient check: PASS (l1 {res_l1.max_rel_error:.2e}, "
          f"l2 {res_l2.max_rel_error:.2e})")


def test_c08_monte_carlo_coverage():
    """With 1e5 samples on a leaky 4-candidate world, every candidate's
    estimate falls within 4 binomial standard errors of the exact round
    trip in at least 95 of 100 seeded runs."""
    s = generate(GeneratorConfig(n_langs=2, n_prompts=4, n_candidates=4,
                                 translator_mode="noisy", noise=0.2, seed=17))
    prompt = s.space(0).prompts[0]
    exact = round_trip_target(s, lang=0, via=1, prompt=prompt)
    n = 100_000
    passes = 0
    mean_estimate = np.zeros(len(exact.support))
    for run_seed in range(100):
        est = round_trip_target(s, lang=0, via=1, prompt=prompt,
                                mc=MonteCarloConfig(samples=n, seed=run_seed))
        mean_estimate += est.probs
        ok = True
        for i in exact.support:
            p = exact.prob(i)
            se = math.sqrt(p * (1.0 - p) / n)
            if abs(est.prob(i) - p) > 4.0 * se + 1e-9:
                ok = False
                break
        passes += int(ok)
    assert passes >= 95, f"only {passes}/100 runs inside 4 standard errors"
    # and the estimator is unbiased: the mean over all runs sits within
    # 4 standard errors of the exact value at the pooled sample size
    mean_estimate /= 100.0
    for k, i in enumerate(exact.support):
        p = exact.prob(i)
        pooled_se = math.sqrt(p * (1.0 - p) / (100 * n))
        assert abs(mean_estimate[k] - p) <= 4.0 * pooled_se + 1e-9
    print(f"ACCEPTANCE monte-carlo coverage: PASS ({passes}/100)")


def test_c09_strength_steering():
    """Shrinking one language's weight (growing the other's, balance kept)
    weakly reduces that language's drift from the reference on every
    prompt, raises the other side's, and never flips more responses."""
    for seed in range(10):
        base = GeneratorConfig(n_langs=2, n_prompts=6, n_candidates=4, seed=seed)
        anchored = GeneratorConfig(n_langs=2, n_prompts=6, n_candidates=4, seed=seed,
                                   u=(1.0, 10.0), v=(1.0, 0.1))
        s_def, s_anc = generate(base), generate(anchored)
        assert s_anc.beta(0, 1) == pytest.approx(0.1)
        assert s_anc.beta(1, 0) == pytest.approx(10.0)
        opt_def, opt_anc = closed_form_optimum(s_def), closed_form_optimum(s_anc)
        for p in s_def.space(0).prompts:
            kl_def = forward_kl(opt_def.row(0, p), s_def.ref[0].row(p))
            kl_anc = forward_kl(opt_anc.row(0, p), s_anc.ref[0].row(p))
            assert kl_anc <= kl_def + 1e-12
        for p in s_def.space(1).prompts:
            kl_def = forward_kl(opt_def.row(1, p), s_def.ref[1].row(p))
            kl_anc = forward_kl(opt_anc.row(1, p), s_anc.ref[1].row(p))
            assert kl_anc >= kl_def - 1e-12
        changed_def = changed_fraction(s_def.ref[0], opt_def.policy[0])
        changed_anc = changed_fraction(s_anc.ref[0], opt_anc.policy[0])
        assert changed_anc <= changed_def + 1e-12
    print("ACCEPTANCE strength steering: PASS (10 scenario family)")


def _mixture_world(n_prompts=20, seed=0):
    """Sharp-on-gold rows in language 0, diffuse-on-wrong rows in language 1."""
    rng = np.random.default_rng(seed)
    skeleton = generate(GeneratorConfig(n_langs=2, n_prompts=n_prompts,
                                        n_candidates=4, seed=seed))
    rows0, rows1 = {}, {}
    for g, pt in enumerate(skeleton.alignment.prompt_tuples):
        tuples = skeleton.alignment.candidate_tuples[g]
        gold0, gold1 = tuples[0][0], tuples[0][1]
        wrong1 = tuples[1][1]
        sup0 = tuple(sorted(skeleton.space(0).candidates[pt[0]]))
        sup1 = tuple(sorted(skeleton.space(1).candidates[pt[1]]))
        probs0 = np.full(4, 0.01)
        probs0[sup0.index(gold0)] = 0.97
        # diffuse: argmax 0.35-0.40 on a wrong candidate, gold close behind
        top = 0.35 + 0.05 * rng.random()
        second = 0.30
        rest = (1.0 - top - second) / 2.0
        probs1 = np.full(4, rest)
        probs1[sup1.index(wrong1)] = top
        probs1[sup1.index(gold1)] = second
        rows0[pt[0]] = LogDist.from_probs(sup0, probs0 / probs0.sum())
        rows1[pt[1]] = LogDist.from_probs(sup1, probs1 / probs1.sum())
    ref = {0: StochasticKernel(0, 0, rows0), 1: StochasticKernel(1, 1, rows1)}
    return Scenario(skeleton.spaces, skeleton.alignment, ref, skeleton.translators,
                    skeleton.priors, skeleton.strengths, seed)


def test_c10_mixture_rescues_diffuse_language():
    """When one language is confidently right and the other is diffusely
    wrong, the optimum answers correctly in both languages almost always:
    a near-uniform row barely tilts the product."""
    s = _mixture_world()
    assert max(s.ref[1].row(p).probs.max() for p in s.space(1).prompts) <= 0.4
    opt = closed_form_optimum(s)
    for lang in s.lang_ids:
        gold = s.gold_map(lang)
        hits = sum(int(opt.row(lang, p).argmax() == gold[p])
                   for p in s.space(lang).prompts)
        rate = hits / len(s.space(lang).prompts)
        assert rate >= 0.95, f"language {lang}: argmax hit rate {rate}"
    # the diffuse reference itself was wrong everywhere in language 1
    gold1 = s.gold_map(1)
    ref_hits = sum(int(s.ref[1].row(p).argmax() == gold1[p])
                   for p in s.space(1).prompts)
    assert ref_hits == 0
    print("ACCEPTANCE mixture rescue: PASS")


def test_c11_golden_pipeline(tmp_path):
    """The committed benchmark pipeline reproduces the committed outputs
    byte for byte."""
    assert GOLDEN_DIR.is_dir(), (
        "golden outputs missing; run scripts/make_goldens.py and commit them")
    run_benchmark_pipeline(tmp_path)
    for name in GOLDEN_FILES:
        produced = (tmp_path / name).read_bytes()
        committed = (GOLDEN_DIR / name).read_bytes()
        assert produced == committed, f"{name} differs from the committed golden"
    print("ACCEPTANCE golden pipeline: PASS")
