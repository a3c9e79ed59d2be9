"""Consistency checker, ranking agreement, and evaluation statistics."""

import math
import warnings

import numpy as np
import pytest
from conftest import tiny_bilingual
from hypothesis import given
from hypothesis import strategies as st

from xlconsist.core import (
    DIVERGENCE_KINDS,
    DivergenceSpec,
    LogDist,
    StochasticKernel,
    StructuralError,
    anneal,
)
from xlconsist.metrics import (
    DEFAULT_T_GRID,
    ConsistencyReport,
    accuracy,
    changed_fraction,
    check_consistency,
    check_pairs,
    entropy_stats,
    evaluate_policy,
    jaccard_correct_overlap,
    rankc,
    rankc_report,
)
from xlconsist.objectives import closed_form_optimum
from xlconsist.scenario import GeneratorConfig, generate


def kernel(rows, lang=0):
    return StochasticKernel(lang, lang, rows)


def relabeled_policy(scenario, lang_from=0, lang_to=1):
    """Copy one language's reference onto the other via the alignment,
    producing an exactly self-consistent pair."""
    ia, ib = lang_from, lang_to
    rows = {}
    for g, pt in enumerate(scenario.alignment.prompt_tuples):
        cmap = {c[ia]: c[ib] for c in scenario.alignment.candidate_tuples[g]}
        src = scenario.ref[lang_from].row(pt[ia])
        pairs = sorted((cmap[i], p) for i, p in zip(src.support, src.probs))
        rows[pt[ib]] = LogDist.from_probs([i for i, _ in pairs], [p for _, p in pairs])
    return {lang_from: scenario.ref[lang_from],
            lang_to: StochasticKernel(lang_to, lang_to, rows)}


class TestCheckConsistency:
    def test_relabeled_pair_is_exactly_consistent(self):
        world = tiny_bilingual([0.8, 0.2], [0.8, 0.2])
        rep = check_consistency(
            {0: world.ref[0], 1: world.ref[1]}, world.translators, (0, 1), (0, 10)
        )
        assert rep.divergence_at_best_T <= 1e-12
        assert rep.satisfied
        assert abs(rep.best_T1 - 1.0) < 1e-3 and abs(rep.best_T2 - 1.0) < 1e-3

    @pytest.mark.parametrize("kind", DIVERGENCE_KINDS)
    def test_optimum_consistent_at_fixed_exponents(self, kind):
        world = tiny_bilingual([0.8, 0.2], [0.4, 0.6], beta1=2.0, beta2=0.5)
        opt = closed_form_optimum(world)
        rep = check_consistency(
            opt.policy, world.translators, (0, 1), (0, 10),
            spec=DivergenceSpec(kind), fixed_temperatures=(2.0, 0.5),
        )
        assert rep.divergence_at_best_T <= 1e-9
        assert rep.satisfied

    def test_independent_kernels_fail_tight_epsilon(self):
        world = tiny_bilingual([0.9, 0.1], [0.2, 0.8])
        rep = check_consistency(
            {0: world.ref[0], 1: world.ref[1]}, world.translators, (0, 1), (0, 10),
            eps=1e-3,
        )
        assert rep.divergence_at_best_T > 1e-3
        assert not rep.satisfied
        # brute force over a dense temperature sweep cannot beat the search
        direct = world.ref[0].row(0)
        trip = LogDist.from_probs((1, 2), [0.2, 0.8])
        dense = min(
            f(t) for t in np.geomspace(1e-3, 1e3, 20001)
            for f in [lambda t: _fkl(direct, anneal(trip, t))]
        )
        assert rep.divergence_1 <= dense + 1e-9

    def test_search_recovers_planted_temperature(self):
        planted = 3.7
        ref2 = [0.55, 0.45]
        ref1 = anneal(LogDist.from_probs((1, 2), ref2), planted).probs
        world = tiny_bilingual(list(ref1), ref2)
        rep = check_consistency(
            {0: world.ref[0], 1: world.ref[1]}, world.translators, (0, 1), (0, 10)
        )
        assert rep.divergence_1 <= 1e-10
        assert rep.divergence_2 <= 1e-10
        assert abs(rep.best_T1 - planted) / planted < 1e-3
        assert abs(rep.best_T2 - 1 / planted) * planted < 1e-3

    def test_empty_grid_rejected(self):
        world = tiny_bilingual([0.8, 0.2], [0.4, 0.6])
        with pytest.raises(ValueError):
            check_consistency(
                {0: world.ref[0], 1: world.ref[1]}, world.translators,
                (0, 1), (0, 10), t_grid=np.array([]),
            )

    @pytest.mark.parametrize("temps", [(0.0, 1.0), (-1.0, 2.0), (math.nan, 1.0), (1.0, 0.0)])
    def test_nonpositive_fixed_temperature_rejected(self, temps):
        world = tiny_bilingual([0.8, 0.2], [0.4, 0.6])
        with pytest.raises(ValueError, match="temperature must be positive"):
            check_consistency(
                {0: world.ref[0], 1: world.ref[1]}, world.translators,
                (0, 1), (0, 10), fixed_temperatures=temps,
            )

    def test_missing_language_is_named(self):
        # languages 2 and 1 are both missing; the smallest is named, not the first
        s = generate(GeneratorConfig(n_langs=3, n_prompts=2, n_candidates=3, seed=3))
        pairs = [((0, 2), (0, 17)), ((0, 1), (0, 9))]
        with pytest.raises(StructuralError, match="^policy has no kernel for language 1$"):
            check_pairs({0: s.ref[0]}, s.translators, pairs, DivergenceSpec(), 1e-9,
                        DEFAULT_T_GRID)

    @pytest.mark.parametrize("lost, named", [
        # route order is (1, 2), (2, 1), (0, 1), (1, 0): the first lost pair
        # in it is named, not the smallest
        ({(0, 1), (2, 1)}, "2->1"),
        ({(1, 0)}, "1->0"),
        ({(0, 1), (1, 0), (1, 2), (2, 1)}, "1->2"),
    ])
    def test_missing_translator_is_named(self, lost, named):
        s = generate(GeneratorConfig(n_langs=3, n_prompts=2, n_candidates=3, seed=3))
        translators = {pair: k for pair, k in s.translators.items() if pair not in lost}
        pairs = [((1, 2), (s.space(1).prompts[0], s.space(2).prompts[0])),
                 ((0, 1), (s.space(0).prompts[0], s.space(1).prompts[0]))]
        with pytest.raises(StructuralError, match=f"^no translator {named}$"):
            check_pairs(s.ref, translators, pairs, DivergenceSpec(), 1e-9, DEFAULT_T_GRID)

    def test_missing_translator_raises_before_any_round_trip(self):
        # the first route's trip would fail on a missing row; the missing
        # translator of a later route is still what is named
        s = generate(GeneratorConfig(n_langs=3, n_prompts=2, n_candidates=3, seed=3))
        x0 = s.space(0).prompts[0]
        pi = {**s.ref, 1: StochasticKernel(1, 1, {})}
        translators = {pair: k for pair, k in s.translators.items() if pair != (2, 0)}
        pairs = [((0, 1), (x0, s.space(1).prompts[0])), ((0, 2), (x0, s.space(2).prompts[0]))]
        with pytest.raises(StructuralError, match="^no translator 2->0$"):
            check_pairs(pi, translators, pairs, DivergenceSpec(), 1e-9, DEFAULT_T_GRID)
        with pytest.raises(StructuralError, match="has no row"):
            check_pairs(pi, s.translators, pairs, DivergenceSpec(), 1e-9, DEFAULT_T_GRID)

    def test_divergence_invariant_under_consistent_relabeling(self):
        a = tiny_bilingual([0.85, 0.15], [0.3, 0.7])
        rep_a = check_consistency(
            {0: a.ref[0], 1: a.ref[1]}, a.translators, (0, 1), (0, 10))
        # same world, all candidate IDs shifted by 1000 in both languages
        from xlconsist.scenario import Alignment, LanguageSpace, Scenario, StrengthConfig
        sh = 1000
        spaces = (
            LanguageSpace(0, (0,), {0: (1 + sh, 2 + sh)}),
            LanguageSpace(1, (10,), {10: (11 + sh, 12 + sh)}),
        )
        align = Alignment(((0, 10),), (((1 + sh, 11 + sh), (2 + sh, 12 + sh)),))
        ref = {
            0: kernel({0: LogDist.from_probs((1 + sh, 2 + sh), [0.85, 0.15])}, 0),
            1: kernel({10: LogDist.from_probs((11 + sh, 12 + sh), [0.3, 0.7])}, 1),
        }
        translators = {
            (0, 1): StochasticKernel(0, 1, {
                0: LogDist.point_mass((10,), 10),
                1 + sh: LogDist.point_mass((11 + sh, 12 + sh), 11 + sh),
                2 + sh: LogDist.point_mass((11 + sh, 12 + sh), 12 + sh),
            }),
            (1, 0): StochasticKernel(1, 0, {
                10: LogDist.point_mass((0,), 0),
                11 + sh: LogDist.point_mass((1 + sh, 2 + sh), 1 + sh),
                12 + sh: LogDist.point_mass((1 + sh, 2 + sh), 2 + sh),
            }),
        }
        b = Scenario(spaces, align, ref, translators,
                     {0: LogDist.point_mass((0,), 0), 1: LogDist.point_mass((10,), 10)},
                     StrengthConfig.ones(2), seed=0)
        rep_b = check_consistency(
            {0: b.ref[0], 1: b.ref[1]}, b.translators, (0, 1), (0, 10))
        assert abs(rep_a.divergence_at_best_T - rep_b.divergence_at_best_T) < 1e-12

    def test_report_invariant_enforced(self):
        with pytest.raises(ValueError):
            ConsistencyReport((0, 1), (0, 10), 0.5, 1.0, 1.0, 0.5, 0.1,
                              epsilon=1e-3, satisfied=True)


def _fkl(p, q):
    from xlconsist.core import forward_kl
    return forward_kl(p, q)


class TestRankC:
    def test_identical_rankings_score_exactly_one(self):
        for m in (1, 2, 3, 7):
            probs = np.arange(1, m + 1, dtype=float)
            probs /= probs.sum()
            d1 = LogDist.from_probs(range(m), probs)
            d2 = LogDist.from_probs(range(100, 100 + m), probs)
            cmap = {i: 100 + i for i in range(m)}
            assert rankc(d1, d2, cmap) == 1.0

    def test_frozen_two_candidate_reversal(self):
        # oracle: weights (e, 1)/(e+1); overlaps (0, 1) -> 1/(e+1)
        d1 = LogDist.from_probs((0, 1), [0.9, 0.1])
        d2 = LogDist.from_probs((10, 11), [0.1, 0.9])
        val = rankc(d1, d2, {0: 10, 1: 11})
        assert abs(val - 0.2689414213699951) < 1e-12

    def test_frozen_three_candidate_swap(self):
        # oracle: rankings (A,B,C) vs (B,A,C); overlaps (0, 1, 1)
        d1 = LogDist.from_probs((0, 1, 2), [0.5, 0.3, 0.2])
        d2 = LogDist.from_probs((10, 11, 12), [0.3, 0.5, 0.2])
        val = rankc(d1, d2, {0: 10, 1: 11, 2: 12})
        assert abs(val - 0.3347590442251781) < 1e-12

    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 20.0), st.floats(0.05, 20.0))
    def test_invariant_under_annealing(self, seed, t1, t2):
        rng = np.random.default_rng(seed)
        w1, w2 = rng.random(4) + 0.05, rng.random(4) + 0.05
        d1 = LogDist.from_probs(range(4), w1 / w1.sum())
        d2 = LogDist.from_probs(range(10, 14), w2 / w2.sum())
        cmap = {i: 10 + i for i in range(4)}
        base = rankc(d1, d2, cmap)
        assert rankc(anneal(d1, t1), anneal(d2, t2), cmap) == base

    @given(st.integers(0, 2**32 - 1))
    def test_symmetry_under_inverse_map(self, seed):
        rng = np.random.default_rng(seed)
        w1, w2 = rng.random(5) + 0.05, rng.random(5) + 0.05
        d1 = LogDist.from_probs(range(5), w1 / w1.sum())
        d2 = LogDist.from_probs(range(10, 15), w2 / w2.sum())
        cmap = {i: 10 + i for i in range(5)}
        inv = {v: k for k, v in cmap.items()}
        assert abs(rankc(d1, d2, cmap) - rankc(d2, d1, inv)) < 1e-15

    def test_ties_break_by_ascending_id(self):
        # both rows tie everything, so both rankings follow the IDs and
        # the mapped overlap is perfect only if the map preserves order
        d1 = LogDist.uniform((0, 1))
        d2 = LogDist.uniform((10, 11))
        assert rankc(d1, d2, {0: 10, 1: 11}) == 1.0
        crossed = rankc(d1, d2, {0: 11, 1: 10})
        assert abs(crossed - 0.2689414213699951) < 1e-12

    def test_non_bijective_map_rejected(self):
        d1 = LogDist.uniform((0, 1))
        d2 = LogDist.uniform((10, 11))
        with pytest.raises(StructuralError):
            rankc(d1, d2, {0: 10, 1: 10})
        with pytest.raises(StructuralError):
            rankc(d1, d2, {0: 10})


class TestAccuracyStats:
    def test_accuracy_trivial_cases(self):
        pi = kernel({
            0: LogDist.point_mass((1, 2), 1),
            5: LogDist.point_mass((6, 7), 7),
        })
        assert accuracy(pi, {0: 1, 5: 7}) == 1.0
        assert accuracy(pi, {0: 2, 5: 6}) == 0.0

    def test_accuracy_frozen_two_thirds(self):
        pi = kernel({
            0: LogDist.from_probs((1, 2), [0.9, 0.1]),
            5: LogDist.from_probs((6, 7), [0.2, 0.8]),
            8: LogDist.from_probs((9, 10), [0.6, 0.4]),
        })
        gold = {0: 1, 5: 7, 8: 10}
        assert abs(accuracy(pi, gold) - 2 / 3) < 1e-12

    def test_accuracy_missing_gold_is_structural(self):
        pi = kernel({0: LogDist.uniform((1, 2))})
        with pytest.raises(StructuralError):
            accuracy(pi, {})

    def test_jaccard_cases(self):
        def pm(support, on):
            return LogDist.point_mass(support, on)

        # four aligned prompts; construct correct sets {1,2,3} and {2,3,4}
        pi1 = kernel({i: pm((10 + i,), 10 + i) for i in (1, 2, 3, 4)})
        pi2 = kernel({100 + i: pm((110 + i,), 110 + i) for i in (1, 2, 3, 4)}, 1)
        gold1 = {1: 11, 2: 12, 3: 13, 4: 99}
        gold2 = {101: 99, 102: 112, 103: 113, 104: 114}
        pmap = {i: 100 + i for i in (1, 2, 3, 4)}
        assert jaccard_correct_overlap(pi1, pi2, gold1, gold2, pmap) == 0.5

    def test_jaccard_edge_cases(self):
        pi = kernel({0: LogDist.point_mass((1,), 1)})
        pmap = {0: 0}
        assert jaccard_correct_overlap(pi, pi, {0: 1}, {0: 1}, pmap) == 1.0
        assert jaccard_correct_overlap(pi, pi, {0: 99}, {0: 99}, pmap) == 1.0

    def test_changed_fraction(self):
        before = kernel({i: LogDist.from_probs((1, 2), [0.9, 0.1]) for i in range(10)})
        assert changed_fraction(before, before) == 0.0
        flipped = kernel({i: LogDist.from_probs((1, 2), [0.1, 0.9]) for i in range(10)})
        assert changed_fraction(before, flipped) == 1.0
        mixed = kernel({
            i: LogDist.from_probs((1, 2), [0.1, 0.9] if i < 3 else [0.9, 0.1])
            for i in range(10)
        })
        assert abs(changed_fraction(before, mixed) - 0.3) < 1e-12

    def test_entropy_stats_uniform_rows(self):
        pi = kernel({i: LogDist.uniform((10, 11, 12, 13)) for i in range(3)})
        stats = entropy_stats(pi, {i: 10 for i in range(3)})
        # uniform rows argmax to the lowest ID, which is the gold here
        assert stats.incorrect is None
        assert abs(stats.correct.mean - math.log(4)) < 1e-12
        assert stats.correct.count == 3

    def test_entropy_stats_sharp_correct_rows(self):
        # oracle: -(0.97 ln 0.97 + 3 * 0.01 ln 0.01) = 0.16770053683981003
        pi = kernel({
            i: LogDist.from_probs((10, 11, 12, 13), [0.97, 0.01, 0.01, 0.01])
            for i in range(4)
        })
        stats = entropy_stats(pi, {i: 10 for i in range(4)})
        assert abs(stats.correct.mean - 0.16770053683981003) < 1e-12
        assert stats.correct.std == 0.0
        assert stats.incorrect is None


class TestEvaluatePolicy:
    def test_self_consistent_policy_scores_perfect_clc(self):
        s = generate(GeneratorConfig(n_langs=2, n_prompts=4, n_candidates=4, seed=7))
        policy = relabeled_policy(s)
        report = evaluate_policy(s, policy, "relabel")
        assert report.rankc.clc_all == 1.0
        for rep in report.consistency:
            assert rep.satisfied

    def test_missing_language_is_named(self):
        s = generate(GeneratorConfig(n_langs=2, n_prompts=4, n_candidates=4, seed=7))
        with pytest.raises(StructuralError, match="^policy has no kernel for language 1$"):
            evaluate_policy(s, {0: s.ref[0]}, "x")

    def test_reference_on_independent_world_is_inconsistent(self):
        s = generate(GeneratorConfig(n_langs=2, n_prompts=4, n_candidates=4, seed=7))
        report = evaluate_policy(s, dict(s.ref), "ref")
        assert report.rankc.clc_all < 1.0
        for lang, v in report.changed.items():
            assert v == 0.0

    def test_chi_square_on_noisy_world_warns_nothing(self):
        # annealed round-trip entries reach subnormal values at the grid's
        # ends, where a chi-square term is +inf without an overflow warning
        s = generate(GeneratorConfig(n_langs=2, n_prompts=2, n_candidates=6,
                                     translator_mode="noisy", noise=0.3, ref_sharpness=0.5,
                                     u=(1.0, 2.5), v=(1.0, 0.7), prior_mode="dirichlet", seed=4))
        policy = closed_form_optimum(s).policy
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = evaluate_policy(s, policy, "optimum", spec=DivergenceSpec("chi-square"))
        assert len(report.consistency) == 2

    def test_report_serializes(self):
        s = generate(GeneratorConfig(n_langs=3, n_prompts=2, n_candidates=3, seed=3))
        from xlconsist.objectives import n_language_optimum
        report = evaluate_policy(s, dict(n_language_optimum(s).policy), "optimum")
        doc = report.to_json_dict()
        assert doc["version"] == "1"
        assert len(doc["rankc"]["pairs"]) == 3
        rows = report.to_csv_rows()
        assert {"metric", "scope", "prompt", "value", "policy", "seed"} <= set(rows[0])
