"""Objective values, closed-form optima, and regression targets.

Frozen constants come from an independent high-precision oracle
(hand-traceable products and logs, checked with mpmath at 40 digits).
"""

import math
import re

import numpy as np
import pytest
from bilingual_oracle import dco_log_targets, pco_objective, pco_total
from conftest import tiny_bilingual, tiny_trilingual

from xlconsist import objectives
from xlconsist.core import LogDist, StochasticKernel, StructuralError, forward_kl, total_variation
from xlconsist.objectives import (
    ClosedFormOptimum,
    LogitTable,
    MonteCarloConfig,
    closed_form_optimum,
    dco_loss,
    initial_logits,
    n_language_objective,
    n_language_optimum,
    n_language_total,
    policy_kernels,
    prior_weights,
    round_trip_target,
    round_trip_targets,
    tilted_optimum,
)
from xlconsist.optim import (
    METHOD_DCO,
    METHOD_REINFORCE,
    OptimizerConfig,
    fit_dco,
    fit_pco_reinforce,
)
from xlconsist.propositions import (
    check_logit_target_equivalence,
    check_optimum_consistency,
    run_checks,
)
from xlconsist.scenario import GeneratorConfig, generate


WORLD = tiny_bilingual([0.8, 0.2], [0.4, 0.6])


class TestRoundTripTarget:
    def test_exact_matches_reference_relabeling(self):
        out = round_trip_target(WORLD, lang=0, via=1, prompt=0)
        np.testing.assert_allclose(out.probs, [0.4, 0.6], atol=1e-15)

    def test_deterministic_translators_ignore_sampling_budget(self):
        exact = round_trip_target(WORLD, lang=0, via=1, prompt=0)
        for s in (1, 7, 10_000):
            mc = round_trip_target(WORLD, lang=0, via=1, prompt=0,
                                   mc=MonteCarloConfig(samples=s, seed=s))
            assert mc == exact

    def test_exact_matches_brute_force_on_noisy_world(self):
        s = generate(GeneratorConfig(n_langs=2, n_prompts=2, n_candidates=2,
                                     translator_mode="noisy", noise=0.25, seed=5))
        x = s.space(0).prompts[0]
        out = round_trip_target(s, lang=0, via=1, prompt=x)
        tau_out, tau_back, ref = s.translator(0, 1), s.translator(1, 0), s.ref[1]
        expected: dict[int, float] = {}
        for xp in s.space(1).prompts:
            for yp in s.space(1).candidates[xp]:
                mass = tau_out.row(x).prob(xp) * ref.row(xp).prob(yp)
                back = tau_back.row(yp)
                for z in back.support:
                    expected[z] = expected.get(z, 0.0) + mass * back.prob(z)
        for z, p in expected.items():
            assert abs(out.prob(z) - p) < 1e-12

    def test_monte_carlo_within_three_standard_errors(self):
        s = generate(GeneratorConfig(n_langs=2, n_prompts=4, n_candidates=4,
                                     translator_mode="noisy", noise=0.2, seed=9))
        x = s.space(0).prompts[0]
        exact = round_trip_target(s, lang=0, via=1, prompt=x)
        n = 100_000
        est = round_trip_target(s, lang=0, via=1, prompt=x,
                                mc=MonteCarloConfig(samples=n, seed=13))
        assert est.support == exact.support
        for i in exact.support:
            p = exact.prob(i)
            se = math.sqrt(p * (1 - p) / n)
            assert abs(est.prob(i) - p) <= 3 * se + 1e-9

    def test_monte_carlo_is_seeded(self):
        s = generate(GeneratorConfig(n_langs=2, n_prompts=3, n_candidates=3,
                                     translator_mode="noisy", noise=0.3, seed=2))
        x = s.space(0).prompts[1]
        mc = MonteCarloConfig(samples=500, seed=21)
        a = round_trip_target(s, lang=0, via=1, prompt=x, mc=mc)
        b = round_trip_target(s, lang=0, via=1, prompt=x, mc=mc)
        assert a == b

    def test_sample_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            MonteCarloConfig(samples=0)

    @pytest.mark.parametrize("samples", [True, 2.5, math.nan, "64", None])
    def test_sample_budget_must_be_an_integer(self, samples):
        with pytest.raises(ValueError, match="^samples must be an integer >= 1"):
            MonteCarloConfig(samples)

    @pytest.mark.parametrize("seed", [True, False, 1.0, math.nan, -1])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="^seed must be an integer >= 0"):
            MonteCarloConfig(64, seed)

    def test_numpy_integers_are_integers(self):
        s = generate(GeneratorConfig(n_langs=2, n_prompts=2, n_candidates=3,
                                     translator_mode="noisy", noise=0.3, seed=1))
        got = round_trip_target(s, 0, 1, 0, MonteCarloConfig(np.int64(64), np.int32(3)))
        assert got == round_trip_target(s, 0, 1, 0, MonteCarloConfig(64, 3))


class TestPcoObjective:
    def test_at_reference_fidelity_vanishes(self):
        val = pco_objective(WORLD.ref[0], WORLD, prompt=0, lang=0)
        assert val.fidelity <= 1e-12
        # total reduces to minus the expected log target under the reference
        ref = WORLD.ref[0].row(0)
        target = round_trip_target(WORLD, 0, 1, 0)
        expected = -float(np.sum(ref.probs * np.log([target.prob(i) for i in ref.support])))
        assert abs(val.total - expected) < 1e-12

    def test_at_optimum_total_is_minus_log_normalizer(self):
        opt = closed_form_optimum(WORLD)
        val = pco_objective(opt.policy[0], WORLD, prompt=0, lang=0)
        assert abs(val.total - (-opt.log_normalizers[0])) < 1e-12

    def test_grid_scan_confirms_unique_minimum(self):
        opt = closed_form_optimum(WORLD)
        star = opt.row(0, 0).probs[0]
        best_total = pco_objective(opt.policy[0], WORLD, prompt=0, lang=0).total
        worse = 0
        for k in range(1, 1000):
            p = k / 1000.0
            theta = type(WORLD.ref[0])(0, 0, {0: LogDist.from_probs((1, 2), [p, 1 - p])})
            total = pco_objective(theta, WORLD, prompt=0, lang=0).total
            assert total >= best_total - 1e-12
            if abs(p - star) > 5e-4:
                assert total > best_total
                worse += 1
        assert worse >= 998

    def test_prompt_outside_language_rejected(self):
        with pytest.raises(ValueError):
            pco_objective(WORLD.ref[0], WORLD, prompt=10, lang=0)
        with pytest.raises(ValueError):
            pco_objective(WORLD.ref[0], WORLD, prompt=99, lang=0)


class TestClosedFormOptimum:
    def test_frozen_two_candidate_example(self):
        # oracle: (0.8*0.4, 0.2*0.6) = (0.32, 0.12) -> (8/11, 3/11)
        opt = closed_form_optimum(WORLD)
        np.testing.assert_allclose(
            opt.row(0, 0).probs, [0.7272727272727273, 0.2727272727272727], rtol=1e-12
        )
        assert opt.floored == ()

    def test_log_normalizer_consistency(self):
        # the recorded normalizer must renormalize the raw tilt exactly
        opt = closed_form_optimum(WORLD)
        ref = WORLD.ref[0].row(0)
        target = round_trip_target(WORLD, 0, 1, 0)
        unnorm = ref.logp + np.array([math.log(target.prob(i)) for i in ref.support])
        np.testing.assert_allclose(
            np.exp(unnorm - opt.log_normalizers[0]), opt.row(0, 0).probs, rtol=1e-12
        )
        assert abs(np.exp(unnorm - opt.log_normalizers[0]).sum() - 1.0) < 1e-9

    def test_vanishing_strength_recovers_reference(self):
        world = tiny_bilingual([0.8, 0.2], [0.4, 0.6], beta1=1e-9, beta2=1e9)
        opt = closed_form_optimum(world)
        assert total_variation(opt.row(0, 0), world.ref[0].row(0)) <= 1e-6

    def test_large_strength_concentrates_on_target_argmax(self):
        world = tiny_bilingual([0.8, 0.2], [0.4, 0.6], beta1=50.0, beta2=0.02)
        opt = closed_form_optimum(world)
        target = round_trip_target(world, 0, 1, 0)
        assert opt.row(0, 0).argmax() == target.argmax()

    def test_zero_mass_target_floored_and_flagged(self):
        world = tiny_bilingual([0.5, 0.5], [1.0, 0.0])
        opt = closed_form_optimum(world)
        assert (0, 0) in opt.floored
        assert opt.row(0, 0).prob(2) > 0  # floored, not annihilated

    def test_tiny_positive_target_mass_not_floored(self):
        # only zero masses are lifted: 1e-14 lies below the floor's 1e-12
        # but is a real mass, so the row is the exact geometric mean
        world = tiny_bilingual([0.5, 0.5], [1.0 - 1e-14, 1e-14])
        opt = closed_form_optimum(world)
        assert opt.floored == ()
        t = round_trip_target(world, 0, 1, 0)
        assert 0.0 < t.prob(2) < 1e-12
        unnorm = world.ref[0].row(0).logp + t.logp
        assert opt.row(0, 0).logp.tobytes() == LogDist.from_logp((1, 2), unnorm).logp.tobytes()
        assert opt.tilt[0].tobytes() == unnorm.tobytes()

    def test_requires_two_languages(self):
        s3 = tiny_trilingual([[0.8, 0.2], [0.4, 0.6], [0.5, 0.5]])
        with pytest.raises(ValueError):
            closed_form_optimum(s3)


class TestDcoTargets:
    def test_frozen_values(self):
        # oracle: log 0.32 and log 0.12
        t = n_language_optimum(WORLD).tilt[0]
        np.testing.assert_allclose(
            t, [-1.1394342831883648, -2.120263536200091], rtol=1e-12
        )

    def test_renormalized_targets_equal_optimum_row(self):
        s = generate(GeneratorConfig(n_langs=2, n_prompts=3, n_candidates=4, seed=4))
        opt = closed_form_optimum(s)
        for lang in s.lang_ids:
            for p in s.space(lang).prompts:
                t = dco_log_targets(s, prompt=p, lang=lang)
                row = LogDist.from_logp(s.ref[lang].row(p).support, t)
                np.testing.assert_allclose(row.probs, opt.row(lang, p).probs, atol=1e-12)

    def test_identity_shaped_world_doubles_reference_scores(self):
        # the round trip reproduces the reference row itself, so the
        # targets are exactly twice its log-probabilities
        world = tiny_bilingual([0.8, 0.2], [0.8, 0.2])
        t = n_language_optimum(world).tilt[0]
        np.testing.assert_allclose(t, 2.0 * world.ref[0].row(0).logp, rtol=1e-12)


class TestDcoLoss:
    def make_tables(self):
        sup = {0: (1, 2)}
        z = LogitTable(sup, {0: np.array([0.3, -0.7])})
        t = LogitTable(sup, {0: np.array([0.3, -0.7])})
        return z, t

    def test_zero_at_targets(self):
        z, t = self.make_tables()
        assert dco_loss(z, t) == 0.0
        assert dco_loss(z, t, norm="l2") == 0.0

    def test_constant_shift_is_not_free(self):
        z, t = self.make_tables()
        shifted = LogitTable(z.supports, {0: z.rows[0] + 0.5})
        assert abs(dco_loss(shifted, t) - 2 * 0.5) < 1e-12
        # but the induced policies coincide
        np.testing.assert_allclose(
            shifted.policy_row(0).probs, z.policy_row(0).probs, atol=1e-15
        )

    def test_frozen_residual_example(self):
        z, t = self.make_tables()
        bumped = LogitTable(z.supports, {0: z.rows[0] + np.array([0.1, -0.1])})
        assert abs(dco_loss(bumped, t) - 0.2) < 1e-12
        assert abs(dco_loss(bumped, t, norm="l2") - 0.02) < 1e-12

    def test_prior_weighting(self):
        sup = {0: (1, 2), 5: (6, 7)}
        t = LogitTable(sup, {0: np.zeros(2), 5: np.zeros(2)})
        z = LogitTable(sup, {0: np.ones(2), 5: np.ones(2)})
        assert abs(dco_loss(z, t, weights={0: 0.25, 5: 0.75}) - 2.0) < 1e-12

    def test_misaligned_tables_rejected(self):
        z, t = self.make_tables()
        other = LogitTable({1: (1, 2)}, {1: np.zeros(2)})
        with pytest.raises(StructuralError):
            dco_loss(z, other)
        mismatch = LogitTable({0: (1, 3)}, {0: np.zeros(2)})
        with pytest.raises(StructuralError):
            dco_loss(z, mismatch)

    def test_unknown_norm_rejected(self):
        z, t = self.make_tables()
        with pytest.raises(ValueError):
            dco_loss(z, t, norm="linf")

    def test_non_finite_logits_rejected(self):
        with pytest.raises(ValueError):
            LogitTable({0: (1, 2)}, {0: np.array([math.inf, 0.0])})


class TestNLanguage:
    def test_total_names_a_language_without_a_kernel(self):
        s3 = tiny_trilingual([[0.8, 0.2], [0.4, 0.6], [0.5, 0.5]])
        with pytest.raises(StructuralError, match="^policy has no kernel for language 1$"):
            n_language_total({0: s3.ref[0]}, s3, round_trip_targets(s3))

    def test_missing_round_trip_target_is_named(self):
        s3 = tiny_trilingual([[0.8, 0.2], [0.4, 0.6], [0.5, 0.5]])
        targets = dict(round_trip_targets(s3))
        del targets[(0, 1, 0)]
        named = re.escape("no round-trip target for (lang, via, prompt) (0, 1, 0)")
        with pytest.raises(StructuralError, match=named):
            n_language_objective(s3.ref[0], s3, 0, 0, targets)
        with pytest.raises(StructuralError, match=named):
            n_language_total(dict(s3.ref), s3, targets)
        with pytest.raises(StructuralError, match=named):
            tilted_optimum(s3, targets, s3.beta)

    def test_bilingual_reduction_of_objective(self):
        s = generate(GeneratorConfig(n_langs=2, n_prompts=4, n_candidates=3, seed=6,
                                     u=(1.0, 2.0), v=(1.0, 0.5)))
        theta = policy_kernels(initial_logits(s), s)
        targets = round_trip_targets(s)
        for lang in s.lang_ids:
            for p in s.space(lang).prompts:
                a = pco_objective(theta[lang], s, p, lang)
                b = n_language_objective(theta[lang], s, p, lang, targets)
                assert abs(a.total - b.total) <= 1e-12
                assert abs(a.fidelity - b.fidelity) <= 1e-12

    def test_bilingual_reduction_of_optimum(self):
        s = generate(GeneratorConfig(n_langs=2, n_prompts=4, n_candidates=3, seed=6))
        a, b = closed_form_optimum(s), n_language_optimum(s)
        for lang in s.lang_ids:
            for p in s.space(lang).prompts:
                np.testing.assert_allclose(
                    a.row(lang, p).probs, b.row(lang, p).probs, atol=1e-12
                )

    def test_frozen_three_language_example(self):
        # oracle: (0.8*0.4*0.5, 0.2*0.6*0.5) = (0.16, 0.06) -> (8/11, 3/11)
        s3 = tiny_trilingual([[0.8, 0.2], [0.4, 0.6], [0.5, 0.5]])
        opt = n_language_optimum(s3)
        np.testing.assert_allclose(
            opt.row(0, 0).probs, [0.7272727272727273, 0.2727272727272727], rtol=1e-12
        )

    def test_vanishing_strengths_recover_reference(self):
        s3 = tiny_trilingual([[0.8, 0.2], [0.4, 0.6], [0.5, 0.5]],
                             u=(1e-9,) * 3, v=(1.0,) * 3)
        opt = n_language_optimum(s3)
        for m in range(3):
            assert total_variation(opt.row(m, 100 * m), s3.ref[m].row(100 * m)) <= 1e-6

    def test_three_language_optimum_beats_perturbations(self):
        s3 = generate(GeneratorConfig(n_langs=3, n_prompts=2, n_candidates=3, seed=12))
        opt = n_language_optimum(s3)
        best = n_language_total(opt.policy, s3, opt.targets)
        rng = np.random.default_rng(0)
        for _ in range(100):
            perturbed = {}
            for lang, kern in opt.policy.items():
                rows = {}
                for p, row in kern.rows.items():
                    q = rng.random(len(row.support)) + 1e-3
                    q /= q.sum()
                    mix = 0.97 * row.probs + 0.03 * q
                    rows[p] = LogDist.from_probs(row.support, mix / mix.sum())
                perturbed[lang] = type(kern)(lang, lang, rows)
            assert n_language_total(perturbed, s3, opt.targets) > best

    @pytest.mark.parametrize("support", [(101,), (101, 102, 103)])
    def test_policy_row_off_the_reference_support_is_named(self, support):
        s3 = tiny_trilingual([[0.8, 0.2], [0.4, 0.6], [0.5, 0.5]])
        targets = round_trip_targets(s3)
        theta = {**s3.ref, 1: StochasticKernel(1, 1, {100: LogDist.uniform(support)})}
        named = "language 1's policy row 100 is off the reference support"
        with pytest.raises(StructuralError, match=named):
            n_language_objective(theta[1], s3, 100, 1, targets)
        with pytest.raises(StructuralError, match=named):
            n_language_total(theta, s3, targets)

    def test_n_language_targets_match_optimum(self):
        s3 = generate(GeneratorConfig(n_langs=3, n_prompts=2, n_candidates=3, seed=12))
        opt = n_language_optimum(s3)
        for lang in s3.lang_ids:
            for p in s3.space(lang).prompts:
                t = opt.tilt[p]
                row = LogDist.from_logp(s3.ref[lang].row(p).support, t)
                np.testing.assert_allclose(row.probs, opt.row(lang, p).probs, atol=1e-12)


class TestScenarioLevelHelpers:
    def test_pco_total_weights_by_priors(self):
        s = generate(GeneratorConfig(n_langs=2, n_prompts=2, n_candidates=2, seed=3))
        theta = {lang: s.ref[lang] for lang in s.lang_ids}
        total = pco_total(theta, s)
        manual = 0.0
        for lang in s.lang_ids:
            prior = s.priors[lang]
            for p, mass in zip(prior.support, prior.probs):
                manual += mass * pco_objective(theta[lang], s, p, lang).total
        assert abs(total - manual) < 1e-12

    def test_target_table_covers_all_prompts(self):
        s = generate(GeneratorConfig(n_langs=2, n_prompts=3, n_candidates=2, seed=1))
        table = n_language_optimum(s).table()
        expected = {p for lang in s.lang_ids for p in s.space(lang).prompts}
        assert set(table.prompts()) == expected

    def test_prior_weights_sum_per_language(self):
        s = generate(GeneratorConfig(n_langs=2, n_prompts=5, n_candidates=2, seed=1))
        w = prior_weights(s)
        for lang in s.lang_ids:
            total = sum(w[p] for p in s.space(lang).prompts)
            assert abs(total - 1.0) < 1e-9


class TestTargetsBuiltOnce:
    """Every operation builds each (lang, via, prompt) target exactly once
    and hands the map down, rather than each consumer recomputing it."""

    WORLDS = {
        "bilingual-noisy": GeneratorConfig(n_langs=2, n_prompts=4, n_candidates=6,
                                           translator_mode="noisy", noise=0.2, seed=31),
        "trilingual": GeneratorConfig(n_langs=3, n_prompts=3, n_candidates=4, seed=32),
    }
    OPERATIONS = {
        "fit_dco": lambda s: fit_dco(s, OptimizerConfig(METHOD_DCO, max_iters=20)),
        "fit_pco_reinforce": lambda s: fit_pco_reinforce(
            s, OptimizerConfig(METHOD_REINFORCE, max_iters=3, batch=2, rollouts=8)),
        "run_checks": lambda s: run_checks(s),
        "run_checks-self-test": lambda s: run_checks(s, self_test=True),
    }

    @pytest.mark.parametrize("world", sorted(WORLDS))
    @pytest.mark.parametrize("operation", sorted(OPERATIONS))
    def test_one_call_per_distinct_target(self, monkeypatch, world, operation):
        s = generate(self.WORLDS[world])
        calls = []

        def counting(scenario, lang, via, prompts, *rest):
            calls.extend((lang, via, p) for p in prompts)
            return route_targets(scenario, lang, via, prompts, *rest)

        # every target, one-prompt or a whole route, is built at this seam
        route_targets = objectives._route_targets
        monkeypatch.setattr(objectives, "_route_targets", counting)
        self.OPERATIONS[operation](s)
        distinct = {(lang, via, p) for lang in s.lang_ids for via in s.lang_ids
                    if via != lang for p in s.space(lang).prompts}
        assert sorted(calls) == sorted(distinct)

    @pytest.mark.parametrize("world", sorted(WORLDS))
    @pytest.mark.parametrize("operation", ["fit_dco", "fit_pco_reinforce"])
    def test_fitters_tilt_each_row_once(self, monkeypatch, world, operation):
        # the optimum carries its tilt, and the fitters regress onto it
        s = generate(self.WORLDS[world])
        rows = []
        tilt = objectives._tilt

        def counting(scenario, lang, prompt, *rest):
            rows.append((lang, prompt))
            return tilt(scenario, lang, prompt, *rest)

        monkeypatch.setattr(objectives, "_tilt", counting)
        self.OPERATIONS[operation](s)
        assert sorted(rows) == [(lang, p) for lang in s.lang_ids for p in s.space(lang).prompts]


# eval-sparse pool worlds (4 prompts x 6 candidates, sharpness 0.3) whose
# round-trip targets carry masses in (0, 1e-12): lifting those to the floor
# broke the exact geometric mean and failed both checks below
TINY_MASS_WORLDS = {
    "bench-seed-4-world-6": GeneratorConfig(
        n_langs=2, n_prompts=4, n_candidates=6, u=(1.0, 2.0), v=(1.0, 0.5),
        ref_sharpness=0.3, seed=386977619),
    "bench-seed-28-world-3": GeneratorConfig(
        n_langs=2, n_prompts=4, n_candidates=6, u=(1.0, 0.5), v=(1.0, 2.0),
        ref_sharpness=0.3, seed=972408974),
}


@pytest.mark.parametrize("name", sorted(TINY_MASS_WORLDS))
def test_tiny_target_masses_keep_the_optimum_exact(name):
    s = generate(TINY_MASS_WORLDS[name])
    opt = closed_form_optimum(s)
    tiny = [key for key, t in opt.targets.items()
            if np.any((t.probs > 0) & (t.probs < 1e-12))]
    assert tiny, "the world no longer exercises sub-floor masses"
    assert opt.floored == ()
    consistency = check_optimum_consistency(s, optimum=opt)
    assert consistency.status == "pass", (consistency.detail, consistency.observed)
    equivalence = check_logit_target_equivalence(s, optimum=opt)
    assert equivalence.status == "pass", (equivalence.detail, equivalence.observed)
