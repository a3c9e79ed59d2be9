"""Tests for the log-space probability algebra.

Expected values marked as frozen were computed with an independent
high-precision oracle (mpmath at 40 digits) from the defining formulas,
not from the code under test.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from xlconsist.core import (
    DIVERGENCE_KINDS,
    INFINITE_DIVERGENCE,
    LOG_EPS,
    DivergenceSpec,
    LogDist,
    StochasticKernel,
    StructuralError,
    Temperature,
    anneal,
    compose,
    embed,
    entropy,
    f_divergence,
    forward_kl,
    invertibility_report,
    is_invertible_pair,
    pushforward,
    round_trip,
    total_variation,
)


def dist(probs, support=None):
    support = tuple(range(len(probs))) if support is None else tuple(support)
    return LogDist.from_probs(support, probs)


def random_dist(rng, size, support=None):
    w = rng.random(size) + 1e-3
    return dist(w / w.sum(), support)


# Strategy: weight vectors that normalize to a well-conditioned distribution.
weights = st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=8)


@st.composite
def distributions(draw):
    w = np.asarray(draw(weights))
    return dist(w / w.sum())


class TestLogDist:
    def test_support_must_be_sorted_unique(self):
        with pytest.raises(StructuralError):
            LogDist.from_probs((2, 1), [0.5, 0.5])
        with pytest.raises(StructuralError):
            LogDist.from_probs((1, 1), [0.5, 0.5])

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            LogDist.from_probs((0, 1), [0.5, 0.4])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_negative_probability_rejected_without_warning(self):
        with pytest.raises(ValueError, match="negative probability"):
            LogDist.from_probs((0, 1), [1.5, -0.5])

    def test_exact_zeros_are_preserved(self):
        d = LogDist.point_mass((0, 1, 2), on=1)
        assert d.prob(0) == 0.0
        assert d.logp[0] == -math.inf
        assert d.prob(1) == 1.0

    def test_from_logp_renormalizes(self):
        d = LogDist.from_logp((0, 1), [1.0, 1.0])
        np.testing.assert_allclose(d.probs, [0.5, 0.5], atol=1e-15)

    def test_argmax_tie_breaks_to_lowest_id(self):
        assert dist([0.4, 0.4, 0.2], support=(3, 5, 9)).argmax() == 3

    def test_ranking_descending_with_id_tiebreak(self):
        d = dist([0.2, 0.5, 0.2, 0.1], support=(1, 2, 3, 4))
        assert d.ranking() == (2, 1, 3, 4)

    def test_floored_lifts_zeros_to_floor(self):
        d = LogDist.point_mass((0, 1), on=0).floored()
        assert d.prob(1) > 0
        assert abs(d.logp[1] - LOG_EPS) < 1e-6

    def test_equality_is_bitwise_on_probs(self):
        a = dist([0.25, 0.75])
        b = dist([0.25, 0.75])
        assert a == b
        assert a != dist([0.75, 0.25])


class TestAnneal:
    def test_unit_temperature_is_identity(self):
        d = dist([0.8, 0.2])
        assert anneal(d, Temperature(1.0)) is d

    def test_frozen_example_t2(self):
        # oracle: (0.8^2, 0.2^2) / 0.68 = (16/17, 1/17)
        out = anneal(dist([0.8, 0.2]), 2.0)
        np.testing.assert_allclose(
            out.probs, [0.9411764705882353, 0.058823529411764705], rtol=1e-12
        )

    def test_extreme_temperature_concentrates_on_argmax(self):
        out = anneal(dist([0.8, 0.2]), 100.0)
        assert out.argmax() == 0
        assert out.prob(0) > 1 - 1e-9

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError):
            anneal(dist([0.8, 0.2]), 0.0)
        with pytest.raises(ValueError):
            Temperature(-1.0)

    @given(distributions(), st.floats(min_value=0.05, max_value=5.0),
           st.floats(min_value=0.05, max_value=5.0))
    def test_composition_law(self, d, a, b):
        lhs = anneal(anneal(d, a), b)
        rhs = anneal(d, a * b)
        np.testing.assert_allclose(lhs.probs, rhs.probs, atol=1e-9)

    @given(distributions(), st.floats(min_value=0.01, max_value=100.0))
    # both small masses underflow to 0.0 at this temperature; their
    # log-probabilities stay apart and must keep the order
    @example(d=LogDist.from_probs((0, 1, 2), [0.999989, 1e-6, 1e-5]), t=65.0)
    def test_preserves_ranking(self, d, t):
        # near-ulp ties can collapse into exact ties under T < 1; the
        # monotone-transform claim is about separated probabilities
        gaps = np.diff(np.sort(d.probs))
        assume(np.all(gaps > 1e-9 * np.max(d.probs)))
        assert anneal(d, t).ranking() == d.ranking()


class TestEntropy:
    def test_point_mass_zero(self):
        assert entropy(LogDist.point_mass((0, 1, 2), on=0)) == 0.0

    def test_uniform_is_log_cardinality(self):
        assert abs(entropy(LogDist.uniform(range(4))) - math.log(4)) < 1e-12

    def test_frozen_example(self):
        # oracle: -(0.8 ln 0.8 + 0.2 ln 0.2)
        assert abs(entropy(dist([0.8, 0.2])) - 0.5004024235381879) < 1e-12

    @given(distributions())
    def test_bounds(self, d):
        h = entropy(d)
        assert -1e-12 <= h <= math.log(len(d.support)) + 1e-9


class TestTotalVariation:
    def test_terms_added_in_order(self):
        # the six terms are 0.7, 0.2, 0.1 twice; added one at a time in ID
        # order they round to just below 2, while compensated summation
        # (the builtin sum from Python 3.12 on, or math.fsum) gives 2 exactly
        p = LogDist.from_probs((0, 1, 2), [0.7, 0.2, 0.1])
        q = LogDist.from_probs((3, 4, 5), [0.7, 0.2, 0.1])
        assert math.fsum([0.7, 0.2, 0.1] * 2) == 2.0
        assert total_variation(p, q).hex() == "0x1.fffffffffffffp-1"


def swap_kernel(domain=0, codomain=0):
    return StochasticKernel(domain, codomain, {
        0: LogDist.point_mass((0, 1), on=1),
        1: LogDist.point_mass((0, 1), on=0),
    })


def identity_kernel(ids, domain=0, codomain=0):
    return StochasticKernel(domain, codomain, {
        i: LogDist.point_mass(tuple(ids), on=i) for i in ids
    })


class TestPushforward:
    def test_identity_kernel(self):
        d = dist([0.7, 0.3])
        out = pushforward(identity_kernel((0, 1)), d)
        np.testing.assert_allclose(out.probs, d.probs, atol=1e-15)

    def test_swap_permutation(self):
        out = pushforward(swap_kernel(), dist([0.7, 0.3]))
        np.testing.assert_allclose(out.probs, [0.3, 0.7], atol=1e-15)

    def test_frozen_matrix_vector_example(self):
        # oracle: rows {y0 -> (1,0), y1 -> (0.5,0.5)}, inner (0.5,0.5)
        # P(z0) = 1*0.5 + 0.5*0.5 = 0.75
        outer = StochasticKernel(0, 0, {
            0: dist([1.0, 0.0]),
            1: dist([0.5, 0.5]),
        })
        out = pushforward(outer, dist([0.5, 0.5]))
        np.testing.assert_allclose(out.probs, [0.75, 0.25], rtol=1e-12)

    def test_missing_row_names_the_id(self):
        outer = StochasticKernel(0, 0, {0: dist([1.0, 0.0])})
        with pytest.raises(StructuralError, match="1"):
            pushforward(outer, dist([0.5, 0.5]))

    def test_zero_mass_entries_need_no_row(self):
        outer = StochasticKernel(0, 0, {0: dist([0.5, 0.5])})
        out = pushforward(outer, dist([1.0, 0.0]))
        np.testing.assert_allclose(out.probs, [0.5, 0.5], atol=1e-15)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_output_normalized(self, seed):
        rng = np.random.default_rng(seed)
        outer = StochasticKernel(0, 0, {
            i: random_dist(rng, 3) for i in range(4)
        })
        out = pushforward(outer, random_dist(rng, 4))
        assert abs(np.sum(out.probs) - 1.0) < 1e-9

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_associativity_on_random_chains(self, seed):
        rng = np.random.default_rng(seed)
        ids = (0, 1, 2)
        k = [
            StochasticKernel(0, 0, {i: random_dist(rng, 3) for i in ids})
            for _ in range(3)
        ]
        d = random_dist(rng, 3)
        lhs = pushforward(compose(k[0], compose(k[1], k[2])), d)
        rhs = pushforward(compose(compose(k[0], k[1]), k[2]), d)
        np.testing.assert_allclose(lhs.probs, rhs.probs, atol=1e-9)

    def test_non_commutativity_witness(self):
        a = swap_kernel()
        b = StochasticKernel(0, 0, {
            0: dist([0.9, 0.1]),
            1: dist([0.5, 0.5]),
        })
        d = dist([1.0, 0.0])
        ab = pushforward(a, pushforward(b, d))
        ba = pushforward(b, pushforward(a, d))
        assert total_variation(ab, ba) > 0.1


class TestRoundTrip:
    def test_identity_translators(self):
        pi = StochasticKernel(0, 0, {0: dist([0.6, 0.4]), 1: dist([0.2, 0.8])})
        ident = identity_kernel((0, 1))
        out = round_trip(ident, pi, ident, prompt=0)
        np.testing.assert_allclose(out.probs, [0.6, 0.4], atol=1e-15)

    def test_bijective_translators_relabel(self):
        # prompts 0,1 in lang A map to 10,11 in lang B; responses 20,21 <- 30,31
        tau_out = StochasticKernel(0, 1, {
            0: LogDist.point_mass((10, 11), on=11),
            1: LogDist.point_mass((10, 11), on=10),
        })
        pi_b = StochasticKernel(1, 1, {
            10: LogDist.from_probs((30, 31), [0.25, 0.75]),
            11: LogDist.from_probs((30, 31), [0.9, 0.1]),
        })
        tau_back = StochasticKernel(1, 0, {
            30: LogDist.point_mass((20, 21), on=21),
            31: LogDist.point_mass((20, 21), on=20),
        })
        out = round_trip(tau_out, pi_b, tau_back, prompt=0)
        # prompt 0 -> 11, response dist (0.9 on 30, 0.1 on 31), 30 -> 21
        np.testing.assert_allclose([out.prob(21), out.prob(20)], [0.9, 0.1], rtol=1e-12)

    def test_matches_brute_force_triple_sum(self):
        rng = np.random.default_rng(7)
        tau_out = StochasticKernel(0, 1, {i: random_dist(rng, 2, (10, 11)) for i in (0, 1)})
        pi = StochasticKernel(1, 1, {i: random_dist(rng, 2, (20, 21)) for i in (10, 11)})
        tau_back = StochasticKernel(1, 0, {i: random_dist(rng, 2, (30, 31)) for i in (20, 21)})
        out = round_trip(tau_out, pi, tau_back, prompt=0)
        # brute force: enumerate all intermediate (x', y') pairs
        expected = {30: 0.0, 31: 0.0}
        for xp in (10, 11):
            for yp in (20, 21):
                for z in (30, 31):
                    expected[z] += (
                        tau_back.row(yp).prob(z)
                        * pi.row(xp).prob(yp)
                        * tau_out.row(0).prob(xp)
                    )
        np.testing.assert_allclose(
            out.probs, [expected[30], expected[31]], rtol=1e-12
        )

    def test_composition_mismatch_is_structural(self):
        pi = StochasticKernel(2, 2, {0: dist([1.0])})
        ident = identity_kernel((0,), domain=0, codomain=1)
        with pytest.raises(StructuralError):
            round_trip(ident, pi, ident, prompt=0)


class TestFDivergence:
    def test_zero_on_equal(self):
        d = dist([0.5, 0.3, 0.2])
        for kind in DIVERGENCE_KINDS:
            assert f_divergence(DivergenceSpec(kind), d, d) <= 1e-12

    def test_frozen_forward_kl(self):
        # oracle: 0.5 ln 2 + 0.5 ln(2/3)
        val = forward_kl(dist([0.5, 0.5]), dist([0.25, 0.75]))
        assert abs(val - 0.14384103622589046) < 1e-12

    def test_reverse_kl_is_forward_of_swapped(self):
        p, q = dist([0.5, 0.5]), dist([0.25, 0.75])
        rev = f_divergence(DivergenceSpec("reverse-kl"), p, q)
        assert abs(rev - forward_kl(q, p)) < 1e-12

    def test_infinite_sentinel(self):
        p = dist([0.5, 0.5])
        q = LogDist.point_mass((0, 1), on=0)
        assert forward_kl(p, q) == INFINITE_DIVERGENCE
        assert f_divergence(DivergenceSpec("reverse-kl"), q, p) == INFINITE_DIVERGENCE
        assert f_divergence(DivergenceSpec("chi-square"), p, q) == INFINITE_DIVERGENCE
        # TV stays finite on mismatched masses
        assert f_divergence(DivergenceSpec("total-variation"), p, q) == 0.5

    def test_support_mismatch_is_structural(self):
        with pytest.raises(StructuralError):
            forward_kl(dist([0.5, 0.5], support=(0, 1)), dist([0.5, 0.5], support=(0, 2)))

    def test_nonnegative_on_seeded_pairs(self):
        rng = np.random.default_rng(0)
        specs = [DivergenceSpec(k) for k in DIVERGENCE_KINDS]
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            p, q = random_dist(rng, n), random_dist(rng, n)
            for spec in specs:
                assert f_divergence(spec, p, q) >= 0.0

    def test_forward_kl_two_algebraic_forms_agree(self):
        # expectation-under-q of (p/q) log(p/q) versus sum of p log(p/q)
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            p, q = random_dist(rng, n), random_dist(rng, n)
            ratio = p.probs / q.probs
            as_expectation = float(np.sum(q.probs * ratio * np.log(ratio)))
            assert abs(forward_kl(p, q) - as_expectation) < 1e-9

    @pytest.mark.parametrize("kind", DIVERGENCE_KINDS)
    def test_generator_midpoint_convexity_and_root(self, kind):
        f = DivergenceSpec(kind).generator
        assert abs(f(1.0)) < 1e-15
        grid = np.linspace(0.05, 4.0, 80)
        for a in grid[::7]:
            for b in grid[::7]:
                assert f((a + b) / 2) <= (f(a) + f(b)) / 2 + 1e-12

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            DivergenceSpec("hellinger")


class TestEmbed:
    def test_pads_with_exact_zeros(self):
        d = dist([0.5, 0.5], support=(1, 3))
        out = embed(d, (1, 2, 3))
        assert out.support == (1, 2, 3)
        assert out.prob(2) == 0.0

    def test_universe_must_cover(self):
        with pytest.raises(StructuralError):
            embed(dist([1.0], support=(5,)), (1, 2))


class TestInvertibility:
    def test_permutation_pair(self):
        fwd = StochasticKernel(0, 1, {
            0: LogDist.point_mass((10, 11), on=11),
            1: LogDist.point_mass((10, 11), on=10),
        })
        back = StochasticKernel(1, 0, {
            10: LogDist.point_mass((0, 1), on=1),
            11: LogDist.point_mass((0, 1), on=0),
        })
        assert is_invertible_pair(fwd, back, 1e-12)

    def test_uniform_noise_fails(self):
        fwd = StochasticKernel(0, 1, {i: LogDist.uniform((10, 11)) for i in (0, 1)})
        back = StochasticKernel(1, 0, {i: LogDist.uniform((0, 1)) for i in (10, 11)})
        assert not is_invertible_pair(fwd, back, 1e-6)

    def test_leaky_permutation_depends_on_tolerance(self):
        # oracle: rows (0.995, 0.005); both-way diagonal mass
        # 0.995^2 + 0.005^2 = 0.99005, so the deviation is exactly 0.00995
        delta = 0.01
        hi, lo = 1 - delta + delta / 2, delta / 2
        fwd = StochasticKernel(0, 1, {
            0: LogDist.from_probs((10, 11), [lo, hi]),
            1: LogDist.from_probs((10, 11), [hi, lo]),
        })
        back = StochasticKernel(1, 0, {
            10: LogDist.from_probs((0, 1), [lo, hi]),
            11: LogDist.from_probs((0, 1), [hi, lo]),
        })
        assert not is_invertible_pair(fwd, back, 1e-6)
        assert is_invertible_pair(fwd, back, 0.05)
        rep = invertibility_report(fwd, back, 1e-6)
        assert abs(rep.max_tv - 0.00995) < 1e-12

    def test_structural_mismatch_is_false_with_diagnostic(self):
        fwd = StochasticKernel(0, 1, {0: dist([1.0], support=(10,))})
        back = StochasticKernel(2, 0, {10: dist([1.0], support=(0,))})
        rep = invertibility_report(fwd, back, 1e-9)
        assert not rep.invertible
        assert rep.detail
