"""The Monte-Carlo round trip of ``objectives`` against the sampler it
replaced, kept in ``mc_sampler_oracle``, bit for bit, one prompt at a time
and a whole route at once, and the clamp that keeps every draw inside the
reachable support.
"""

import dataclasses

import mc_sampler_oracle as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlconsist.core import LogDist, StochasticKernel, StructuralError
from xlconsist.objectives import (
    MonteCarloConfig,
    _sampler,
    round_trip_target,
    round_trip_targets,
)
from xlconsist.scenario import (
    Alignment,
    GeneratorConfig,
    LanguageSpace,
    Scenario,
    StrengthConfig,
    generate,
)


def _punched(kernel, rng, trailing):
    """The kernel with random entries of each row, and with probability
    ``trailing`` its last one, set to zero mass."""
    rows = {}
    for i, row in kernel.rows.items():
        probs = row.probs.copy()
        if len(probs) > 1:
            probs[rng.random(len(probs)) < 0.4] = 0.0
            if rng.random() < trailing:
                probs[-1] = 0.0
            if not probs.any():
                probs[rng.integers(len(probs))] = 1.0
        rows[i] = LogDist.from_probs(row.support, probs / probs.sum())
    return StochasticKernel(kernel.domain, kernel.codomain, rows)


def _punched_world(seed, n_langs, n_prompts, n_candidates, noise, trailing):
    s = generate(GeneratorConfig(n_langs=n_langs, n_prompts=n_prompts,
                                 n_candidates=n_candidates, translator_mode="noisy",
                                 noise=noise, seed=seed))
    rng = np.random.default_rng(seed)
    return dataclasses.replace(
        s, ref={m: _punched(k, rng, trailing) for m, k in s.ref.items()},
        translators={key: _punched(k, rng, trailing) for key, k in s.translators.items()})


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n_langs=st.integers(2, 3),
       n_prompts=st.integers(1, 3), n_candidates=st.integers(1, 8),
       noise=st.sampled_from([0.05, 0.3, 0.9]), trailing=st.sampled_from([0.0, 0.5, 1.0]),
       samples=st.sampled_from([1, 2, 37, 4096]))
def test_round_trip_target_matches_oracle(seed, n_langs, n_prompts, n_candidates, noise,
                                          trailing, samples):
    s = _punched_world(seed, n_langs, n_prompts, n_candidates, noise, trailing)
    mc = MonteCarloConfig(samples, seed=seed % 1000)
    for lang in s.lang_ids:
        for via in s.lang_ids:
            if via == lang:
                continue
            for prompt in s.space(lang).prompts:
                got = round_trip_target(s, lang, via, prompt, mc)
                want = oracle.round_trip_target(s, lang, via, prompt, mc)
                assert got.support == want.support
                assert got.probs.tobytes() == want.probs.tobytes()
                assert got.logp.tobytes() == want.logp.tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n_langs=st.integers(2, 3),
       n_prompts=st.integers(2, 6), n_candidates=st.integers(1, 8),
       noise=st.sampled_from([0.05, 0.3, 0.9]), trailing=st.sampled_from([0.0, 0.5, 1.0]),
       samples=st.sampled_from([1, 2, 37, 4096]))
def test_route_targets_match_oracle(seed, n_langs, n_prompts, n_candidates, noise, trailing,
                                    samples):
    # every prompt of a route is sampled in one stacked pass
    s = _punched_world(seed, n_langs, n_prompts, n_candidates, noise, trailing)
    mc = MonteCarloConfig(samples, seed=seed % 1000)
    targets = round_trip_targets(s, mc)
    assert list(targets) == [(lang, via, p) for lang in s.lang_ids for via in s.lang_ids
                             if via != lang for p in s.space(lang).prompts]
    for (lang, via, prompt), got in targets.items():
        want = oracle.round_trip_target(s, lang, via, prompt, mc)
        assert got.support == want.support
        assert got.probs.tobytes() == want.probs.tobytes()
        assert got.logp.tobytes() == want.logp.tobytes()


def test_drawn_key_without_a_row_is_named():
    kernel = StochasticKernel(0, 1, {3: LogDist.uniform((7, 8)), 9: LogDist.uniform((2, 7))})
    ids = np.array([1, 3, 4, 5, 9])
    with pytest.raises(StructuralError, match="kernel 0->1 has no row for ID 4$"):
        _sampler(kernel)(ids, np.array([1, 4, 3, 1, 2, 3]), np.full(6, 0.5),
                         np.array([[False, True, True, True, True]]))
    # keys that reach only IDs with rows draw; an ID without one is never asked for
    responses, index, reach = _sampler(kernel)(ids, np.array([4, 1, 1, 4]),
                                               np.array([0.9, 0.2, 0.7, 0.1]),
                                               np.array([[False, True, False, False, True],
                                                         [False, True, False, False, False]]))
    assert responses[index].tolist() == [7, 7, 8, 2]
    assert responses.tolist() == [2, 7, 8]
    assert reach.tolist() == [[True, True, True], [False, True, True]]


def test_kernel_without_rows_is_tabulated():
    responses, index, reach = _sampler(StochasticKernel(0, 1, {}))(
        np.array([], dtype=int), np.array([], dtype=int), np.array([]), np.zeros((1, 0), bool))
    assert responses.size == index.size == 0
    assert reach.shape == (1, 0)


def test_route_without_a_row_raises_as_the_oracle():
    # language 1's reference has no row for a prompt that prompt 1 of
    # language 0 translates to with positive mass
    s = generate(GeneratorConfig(n_langs=2, n_prompts=3, n_candidates=3,
                                 translator_mode="noisy", noise=0.3, seed=4))
    lost = s.translator(0, 1).row(s.space(0).prompts[1]).argmax()
    rows = {p: r for p, r in s.ref[1].rows.items() if p != lost}
    s = dataclasses.replace(s, ref={**s.ref, 1: StochasticKernel(1, 1, rows)})
    mc = MonteCarloConfig(64, seed=2)
    with pytest.raises(StructuralError) as want:
        for prompt in s.space(0).prompts:
            oracle.round_trip_target(s, 0, 1, prompt, mc)
    with pytest.raises(StructuralError, match=f"no row for ID {lost}$") as got:
        round_trip_targets(s, mc)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("emptied", ["out", "ref", "back"])
def test_route_through_a_kernel_without_rows_raises_as_the_exact_path(emptied):
    s = generate(GeneratorConfig(n_langs=2, n_prompts=3, n_candidates=3,
                                 translator_mode="noisy", noise=0.3, seed=4))
    if emptied == "ref":
        s = dataclasses.replace(s, ref={**s.ref, 1: StochasticKernel(1, 1, {})})
    else:
        pair = (0, 1) if emptied == "out" else (1, 0)
        s = dataclasses.replace(s, translators={**s.translators,
                                                pair: StochasticKernel(*pair, {})})
    with pytest.raises(StructuralError) as want:
        round_trip_targets(s)
    with pytest.raises(StructuralError, match="has no row for ID") as got:
        round_trip_targets(s, MonteCarloConfig(16))
    assert str(got.value) == str(want.value)


# cumsum of these ends at 0.9999999999999998, so a uniform draw can land
# above it; the trailing entry has no mass and reaches no candidate
_SHORT_ROW = (0.18604651162790695, 0.441860465116279, 0.3720930232558139, 0.0)


def _one_prompt_world(back_probs):
    """Language 0 routes prompt 0 through language 1's prompt 10, whose
    reference answers 11 for sure; translating 11 back draws from
    ``back_probs`` over as many of candidates (1, 2, 3, 4).  Translating 12
    back, which no draw reaches, spans all four, so a shorter row of 11 is
    padded in the sampler's table."""
    spaces = (LanguageSpace(0, (0,), {0: (1, 2, 3, 4)}),
              LanguageSpace(1, (10,), {10: (11, 12, 13, 14)}))
    alignment = Alignment(((0, 10),), tuple([tuple((c, c + 10) for c in (1, 2, 3, 4))]))
    back = LogDist.from_probs((1, 2, 3, 4)[: len(back_probs)], back_probs)
    ref = {0: StochasticKernel(0, 0, {0: LogDist.uniform((1, 2, 3, 4))}),
           1: StochasticKernel(1, 1, {10: LogDist.point_mass((11, 12, 13, 14), 11)})}
    translators = {(0, 1): StochasticKernel(0, 1, {0: LogDist.point_mass((10,), 10)}),
                   (1, 0): StochasticKernel(1, 0, {11: back, 12: LogDist.uniform((1, 2, 3, 4))})}
    priors = {0: LogDist.point_mass((0,), 0), 1: LogDist.point_mass((10,), 10)}
    return Scenario(spaces, alignment, ref, translators, priors, StrengthConfig.ones(2), 0)


class _FixedUniforms:
    def __init__(self, u):
        self.u = u

    def random(self, shape):
        return np.full(shape, self.u)


@pytest.mark.parametrize("back_probs, u, lands_on", [
    # above the last cumulative value: the last entry with mass, not the
    # zero-mass entry after it
    (_SHORT_ROW, float(np.nextafter(np.cumsum(_SHORT_ROW)[-1], 1.0)), 3),
    # a zero draw: the first entry with mass, not the zero-mass one before it
    ((0.0, 0.5, 0.5, 0.0), 0.0, 2),
    # a draw equal to a cumulative value (0.25 + 0.25 is exact): the entry
    # that value closes, as the strict `cum < u` counts it, not the one after
    ((0.25, 0.25, 0.5, 0.0), 0.5, 2),
    # the back row is shorter than the kernel's other row: its pad repeats
    # the last entry's ID and flag, so a zero-mass last entry stays
    # unreached and a positive one stays reached
    ((0.5, 0.5, 0.0), 0.9, 2),
    ((0.0, 0.5, 0.5), float(np.nextafter(1.0, 0.0)), 3),
])
def test_draws_stay_on_positive_mass(monkeypatch, back_probs, u, lands_on):
    assert u < 1.0  # a value Generator.random can return
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _FixedUniforms(u))
    target = round_trip_target(_one_prompt_world(back_probs), 0, 1, 0, MonteCarloConfig(5))
    assert target.argmax() == lands_on
    assert target.prob(lands_on) > 0.99
    assert target.support == tuple(c for c, p in zip((1, 2, 3, 4), back_probs) if p > 0)
