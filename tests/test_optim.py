"""Off-policy and on-policy fitting against the closed form."""

import numpy as np
import pytest
from conftest import tiny_bilingual

from xlconsist.core import LogDist, StochasticKernel, total_variation
from xlconsist.objectives import (
    LogitTable,
    closed_form_optimum,
    n_language_optimum,
    round_trip_targets,
    target_table,
)
from xlconsist.optim import (
    METHOD_DCO,
    METHOD_REINFORCE,
    GradientCheckResult,
    OptimizerConfig,
    fit_dco,
    fit_pco_reinforce,
    gradient_check,
)
from xlconsist.scenario import (
    Alignment,
    GeneratorConfig,
    LanguageSpace,
    Scenario,
    StrengthConfig,
    generate,
)

BENCH = GeneratorConfig(n_langs=2, n_prompts=4, n_candidates=4, seed=7)


def max_tv_to_optimum(policy, scenario, optimum):
    worst = 0.0
    for lang in scenario.lang_ids:
        for p in scenario.space(lang).prompts:
            worst = max(worst, total_variation(policy[lang].row(p), optimum.row(lang, p)))
    return worst


def single_candidate_world():
    """Reference scores already equal the targets: log 1 everywhere."""
    spaces = (
        LanguageSpace(0, (0,), {0: (1,)}),
        LanguageSpace(1, (10,), {10: (11,)}),
    )
    alignment = Alignment(((0, 10),), (((1, 11),),))
    ref = {
        0: StochasticKernel(0, 0, {0: LogDist.point_mass((1,), 1)}),
        1: StochasticKernel(1, 1, {10: LogDist.point_mass((11,), 11)}),
    }
    translators = {
        (0, 1): StochasticKernel(0, 1, {0: LogDist.point_mass((10,), 10),
                                        1: LogDist.point_mass((11,), 11)}),
        (1, 0): StochasticKernel(1, 0, {10: LogDist.point_mass((0,), 0),
                                        11: LogDist.point_mass((1,), 1)}),
    }
    priors = {0: LogDist.point_mass((0,), 0), 1: LogDist.point_mass((10,), 10)}
    return Scenario(spaces, alignment, ref, translators, priors,
                    StrengthConfig.ones(2), seed=0)


class TestConfig:
    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(method=METHOD_DCO, step_size=0.0)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(method="adamw")

    def test_method_mismatch_rejected(self):
        s = generate(BENCH)
        with pytest.raises(ValueError):
            fit_dco(s, OptimizerConfig(method=METHOD_REINFORCE))
        with pytest.raises(ValueError):
            fit_pco_reinforce(s, OptimizerConfig(method=METHOD_DCO))


class TestFitDco:
    def test_converges_to_closed_form_on_benchmark(self):
        s = generate(BENCH)
        table, trace = fit_dco(s, OptimizerConfig(method=METHOD_DCO))
        assert trace.converged
        assert len(trace.rows) <= 10_000
        assert trace.final_tv <= 1e-6
        opt = closed_form_optimum(s)
        from xlconsist.objectives import policy_kernels
        assert max_tv_to_optimum(policy_kernels(table, s), s, opt) <= 1e-6

    def test_consumes_no_samples(self):
        s = generate(BENCH)
        _, trace = fit_dco(s, OptimizerConfig(method=METHOD_DCO))
        assert all(r.samples == 0 for r in trace.rows)
        assert trace.total_samples == 0

    def test_loss_is_nonincreasing(self):
        s = generate(GeneratorConfig(n_langs=2, n_prompts=6, n_candidates=5, seed=2,
                                     u=(1.0, 2.0), v=(1.0, 0.5)))
        _, trace = fit_dco(s, OptimizerConfig(method=METHOD_DCO))
        losses = [r.loss for r in trace.rows]
        assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))

    def test_initialization_at_targets_converges_immediately(self):
        s = single_candidate_world()
        table, trace = fit_dco(s, OptimizerConfig(method=METHOD_DCO))
        assert trace.converged
        assert trace.rows[-1].iteration == 0
        assert trace.rows[-1].loss == 0.0

    def test_l2_variant_converges(self):
        s = generate(BENCH)
        table, trace = fit_dco(s, OptimizerConfig(method=METHOD_DCO, norm="l2",
                                                  tol=1e-12))
        assert trace.converged
        assert trace.final_tv <= 1e-6

    def test_three_language_fit(self):
        s = generate(GeneratorConfig(n_langs=3, n_prompts=3, n_candidates=3, seed=5))
        _, trace = fit_dco(s, OptimizerConfig(method=METHOD_DCO))
        assert trace.converged
        assert trace.final_tv <= 1e-6


class TestFitReinforce:
    def test_two_response_single_prompt_instance(self):
        world = tiny_bilingual([0.8, 0.2], [0.4, 0.6])
        opt = closed_form_optimum(world)
        policy, trace = fit_pco_reinforce(world, OptimizerConfig(
            method=METHOD_REINFORCE, step_size=0.1, max_iters=5000,
            batch=2, rollouts=256, seed=3))
        assert trace.converged
        assert max_tv_to_optimum(policy, world, opt) <= 0.02

    def test_vanishing_strength_converges_to_reference(self):
        world = tiny_bilingual([0.8, 0.2], [0.4, 0.6], beta1=1e-9, beta2=1e9)
        policy, _ = fit_pco_reinforce(world, OptimizerConfig(
            method=METHOD_REINFORCE, step_size=0.1, max_iters=3000,
            batch=1, rollouts=64, seed=3))
        assert total_variation(policy[0].row(0), world.ref[0].row(0)) <= 0.02

    def test_sample_ledger_grows_linearly(self):
        s = generate(BENCH)
        cfg = OptimizerConfig(method=METHOD_REINFORCE, step_size=0.1,
                              max_iters=50, batch=8, rollouts=16, seed=1)
        _, trace = fit_pco_reinforce(s, cfg)
        for row in trace.rows:
            assert row.samples == row.iteration * cfg.batch * cfg.rollouts

    def test_agrees_with_dco_fit(self):
        s = generate(BENCH)
        dco_table, dco_trace = fit_dco(s, OptimizerConfig(method=METHOD_DCO))
        policy, r_trace = fit_pco_reinforce(s, OptimizerConfig(
            method=METHOD_REINFORCE, step_size=0.15, max_iters=3000,
            batch=8, rollouts=256, seed=5))
        assert dco_trace.final_tv <= 1e-6 and r_trace.final_tv <= 0.02
        from xlconsist.objectives import policy_kernels
        dco_policy = policy_kernels(dco_table, s)
        worst = max(
            total_variation(dco_policy[lang].row(p), policy[lang].row(p))
            for lang in s.lang_ids for p in s.space(lang).prompts
        )
        assert worst <= 0.03

    def test_variance_decreases_with_rollouts(self):
        # tail-window fluctuation of the exact objective, fixed seed family
        s = generate(BENCH)
        tail_var = {}
        for rolls in (8, 512):
            _, trace = fit_pco_reinforce(s, OptimizerConfig(
                method=METHOD_REINFORCE, step_size=0.1, max_iters=1200,
                batch=8, rollouts=rolls, seed=11))
            tail = np.array([r.loss for r in trace.rows[-400:]])
            tail_var[rolls] = float(tail.var())
        assert tail_var[512] <= tail_var[8]

    def test_fitted_policy_reaches_perfect_ranking_agreement(self):
        from xlconsist.metrics import rankc_report
        s = generate(BENCH)
        opt = n_language_optimum(s)
        policy, _ = fit_pco_reinforce(s, OptimizerConfig(
            method=METHOD_REINFORCE, step_size=0.15, max_iters=3000,
            batch=8, rollouts=256, seed=5))
        fitted = rankc_report(s, policy)
        ref_score = rankc_report(s, dict(s.ref))
        assert fitted.clc_all >= ref_score.clc_all
        assert fitted.clc_all == rankc_report(s, dict(opt.policy)).clc_all == 1.0


class TestGradientCheck:
    def test_smooth_region_l1(self):
        s = generate(BENCH)
        targets = target_table(s, round_trip_targets(s))
        rng = np.random.default_rng(0)
        rows = {p: targets.rows[p] + rng.uniform(0.2, 1.0, len(targets.rows[p]))
                * rng.choice([-1.0, 1.0], len(targets.rows[p]))
                for p in targets.prompts()}
        z = LogitTable(targets.supports, rows)
        res = gradient_check(s, z, h=1e-5)
        assert res.status == "ok"
        assert res.max_rel_error <= 1e-4

    def test_l2_everywhere(self):
        s = generate(BENCH)
        targets = target_table(s, round_trip_targets(s))
        rng = np.random.default_rng(1)
        rows = {p: targets.rows[p] + rng.normal(0, 0.5, len(targets.rows[p]))
                for p in targets.prompts()}
        z = LogitTable(targets.supports, rows)
        res = gradient_check(s, z, h=1e-5, norm="l2")
        assert res.status == "ok"
        assert res.max_rel_error <= 1e-6

    def test_at_targets_is_inconclusive(self):
        s = generate(BENCH)
        res = gradient_check(s, target_table(s, round_trip_targets(s)), h=1e-5)
        assert res.status == "inconclusive"
        assert res.max_rel_error is None
