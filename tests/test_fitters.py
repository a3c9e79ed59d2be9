"""The stacked-array fitters against the per-row loops they replaced.

``fitter_oracle`` keeps ``fit_dco`` and ``fit_pco_reinforce`` as they were
written, one ``LogDist`` per prompt and per iteration.  Every trace value
(``float.hex`` of the loss and the distance to the optimum, the sample
ledger, the verdict and the diagnostic) and every byte of the returned
table or kernels must agree; only the wall-clock ``millis`` may differ, and
the DCO diagnostic where it names a loss overflow the old loop did not.
"""

import warnings

import numpy as np
import pytest
from conftest import tiny_bilingual
from test_optim import single_candidate_world

import fitter_oracle as oracle
from xlconsist import optim
from xlconsist.core import LogDist, StochasticKernel
from xlconsist.optim import (
    METHOD_DCO,
    METHOD_REINFORCE,
    OptimizerConfig,
    fit_dco,
    fit_pco_reinforce,
)
from xlconsist.scenario import (
    Alignment,
    GeneratorConfig,
    LanguageSpace,
    Scenario,
    StrengthConfig,
    generate,
    validate,
)

RACE = dict(step_size=0.15, batch=16, rollouts=64, max_iters=200)


def _kernel(dom, cod, rows):
    return StochasticKernel(dom, cod, {i: LogDist.from_probs(sup, probs)
                                       for i, (sup, probs) in rows.items()})


def two_length_world():
    """Prompts with two and with three candidates, IDs interleaved so that
    ascending prompt order alternates between the two lengths; noisy
    candidate translators, unequal priors and unbalanced strengths."""
    spaces = (LanguageSpace(0, (0, 1), {0: (10, 11), 1: (12, 13, 14)}),
              LanguageSpace(1, (2, 3), {2: (30, 31, 32), 3: (33, 34)}))
    alignment = Alignment(((0, 3), (1, 2)),
                          (((10, 33), (11, 34)), ((12, 30), (13, 31), (14, 32))))
    ref = {0: _kernel(0, 0, {0: ((10, 11), (0.6, 0.4)), 1: ((12, 13, 14), (0.2, 0.5, 0.3))}),
           1: _kernel(1, 1, {2: ((30, 31, 32), (0.3, 0.3, 0.4)), 3: ((33, 34), (0.7, 0.3))})}
    translators = {
        (0, 1): _kernel(0, 1, {
            0: ((2, 3), (0.0, 1.0)), 1: ((2, 3), (1.0, 0.0)),
            10: ((33, 34), (0.85, 0.15)), 11: ((33, 34), (0.1, 0.9)),
            12: ((30, 31, 32), (0.8, 0.1, 0.1)), 13: ((30, 31, 32), (0.05, 0.9, 0.05)),
            14: ((30, 31, 32), (0.1, 0.2, 0.7))}),
        (1, 0): _kernel(1, 0, {
            2: ((0, 1), (0.0, 1.0)), 3: ((0, 1), (1.0, 0.0)),
            30: ((12, 13, 14), (0.9, 0.05, 0.05)), 31: ((12, 13, 14), (0.1, 0.8, 0.1)),
            32: ((12, 13, 14), (0.0, 0.25, 0.75)),
            33: ((10, 11), (0.7, 0.3)), 34: ((10, 11), (0.2, 0.8))}),
    }
    priors = {0: LogDist.from_probs((0, 1), (0.35, 0.65)),
              1: LogDist.from_probs((2, 3), (0.5, 0.5))}
    return Scenario(spaces, alignment, ref, translators, priors,
                    StrengthConfig((1.0, 2.0), (0.7, 1.3)), seed=5)


WORLDS = {
    # the race workload's worlds: bilingual, bijective, 4 prompts x 6 candidates
    "race-1": generate(GeneratorConfig(n_langs=2, n_prompts=4, n_candidates=6, seed=1)),
    "race-2": generate(GeneratorConfig(n_langs=2, n_prompts=4, n_candidates=6, seed=2)),
    "noisy": generate(GeneratorConfig(n_langs=2, n_prompts=4, n_candidates=6,
                                      translator_mode="noisy", noise=0.3, seed=3)),
    "three-languages": generate(GeneratorConfig(
        n_langs=3, n_prompts=3, n_candidates=5, translator_mode="noisy", noise=0.3,
        u=(1.0, 2.5, 0.4), v=(1.0, 0.7, 3.0), prior_mode="dirichlet", seed=4)),
    "two-lengths": two_length_world(),
    # 17 candidates: past numpy's 8-term blocks, so summation order shows
    "wide": generate(GeneratorConfig(n_langs=2, n_prompts=3, n_candidates=17,
                                     translator_mode="noisy", noise=0.3,
                                     prior_mode="dirichlet", seed=6)),
    # one prompt per language: any batch above two repeats a prompt
    "one-prompt": tiny_bilingual([0.7, 0.3], [0.4, 0.6], beta1=2.0, beta2=0.5),
}


def _trace_bits(trace):
    rows = [(r.iteration, r.loss.hex(), r.tv_to_optimum.hex(), r.samples)
            for r in trace.rows]
    return rows, trace.converged, trace.diagnostic


def same_dco(scenario, diagnostic=None, **config):
    """The fit, checked against the old loop bit for bit; ``diagnostic``,
    when given, is the text that replaces the old loop's diagnostic."""
    cfg = OptimizerConfig(method=METHOD_DCO, **config)
    with np.errstate(over="ignore"):  # the old loop warns where a loss overflows
        want_table, want = oracle.fit_dco(scenario, cfg)
    table, trace = fit_dco(scenario, cfg)
    rows, converged, want_diagnostic = _trace_bits(want)
    assert _trace_bits(trace) == (rows, converged, diagnostic or want_diagnostic)
    assert table.supports == want_table.supports
    assert list(table.rows) == list(want_table.rows)
    for p, row in want_table.rows.items():
        assert table.rows[p].tobytes() == row.tobytes(), p
    return trace


def same_reinforce(scenario, **config):
    cfg = OptimizerConfig(method=METHOD_REINFORCE, **config)
    want_kernels, want = oracle.fit_pco_reinforce(scenario, cfg)
    kernels, trace = fit_pco_reinforce(scenario, cfg)
    assert _trace_bits(trace) == _trace_bits(want)
    assert list(kernels) == list(want_kernels)
    for lang, kern in want_kernels.items():
        assert list(kernels[lang].rows) == list(kern.rows)
        for p, row in kern.rows.items():
            got = kernels[lang].rows[p]
            assert got.support == row.support, (lang, p)
            assert got.probs.tobytes() == row.probs.tobytes(), (lang, p)
            assert got.logp.tobytes() == row.logp.tobytes(), (lang, p)
    return trace


def test_two_length_world_is_valid():
    s = WORLDS["two-lengths"]
    assert validate(s) == []
    assert sorted({len(c) for sp in s.spaces for c in sp.candidates.values()}) == [2, 3]


@pytest.mark.parametrize("norm", ["l1", "l2"])
@pytest.mark.parametrize("world", sorted(WORLDS))
def test_dco_bit_identical(world, norm):
    trace = same_dco(WORLDS[world], norm=norm)
    assert trace.converged and trace.diagnostic == ""
    assert len(trace.rows) < OptimizerConfig(method=METHOD_DCO).max_iters


def test_dco_loss_zero_returns_at_once():
    trace = same_dco(single_candidate_world())
    assert [r.iteration for r in trace.rows] == [0] and trace.converged


@pytest.mark.parametrize("world", ["race-1", "two-lengths"])
def test_dco_diagnostics_bit_identical(world):
    s = WORLDS[world]
    assert same_dco(s, step_size=5e-19).diagnostic == "step size exhausted"
    assert same_dco(s, max_iters=3).diagnostic == "no convergence within 3 iterations"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # an overflowing loss rejects every proposal, and the diagnostic says
        # so where the old loop said only that the loss failed to decrease
        stalled = same_dco(s, norm="l2", step_size=1e300,
                           diagnostic="loss overflowed for 50 consecutive proposals")
    assert stalled.diagnostic == "loss overflowed for 50 consecutive proposals"


def test_dco_non_finite_proposal_names_the_row():
    s = WORLDS["two-lengths"]
    cfg = OptimizerConfig(method=METHOD_DCO, norm="l2", step_size=1.7e308)
    messages = []
    for fit in (oracle.fit_dco, fit_dco):
        with np.errstate(over="ignore"), pytest.raises(ValueError) as err:
            fit(s, cfg)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("logit row ")


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_reinforce_race_config_bit_identical(world):
    trace = same_reinforce(WORLDS[world], seed=11, **RACE)
    assert trace.total_samples == len(trace.rows) * RACE["batch"] * RACE["rollouts"]


@pytest.mark.parametrize("world", ["race-1", "three-languages", "two-lengths"])
def test_reinforce_default_rollouts_bit_identical(world):
    assert same_reinforce(WORLDS[world], seed=3, max_iters=25).total_samples == 25 * 8 * 256


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_reinforce_repeated_prompts_bit_identical(world):
    same_reinforce(WORLDS[world], seed=7, batch=3, rollouts=5, max_iters=100)


def test_in_order_sums_as_the_ascending_loop():
    # the loop the cumsum replaced, on two interleaved groups; all -0.0
    # values sum to +0.0 only behind the leading 0.0
    groups = [[1, 4, 6], [0, 5]]
    weights = {0: 0.3, 1: 0.125, 4: 0.2, 5: 0.1, 6: 0.275}
    total = optim._in_order(groups, weights.__getitem__)
    rng = np.random.default_rng(3)
    cases = [[np.full(3, -0.0), np.full(2, -0.0)], [np.full(3, np.inf), np.array([np.nan, 1.0])]]
    cases += [[rng.normal(size=3) * 1e3, rng.normal(size=2)] for _ in range(50)]
    for per_row in cases:
        value = {p: v for g, vals in zip(groups, per_row) for p, v in zip(g, vals.tolist())}
        want = 0.0
        for p in sorted(value):
            want += weights[p] * value[p]
        assert repr(total(per_row)) == repr(want)


def test_reinforce_wave_zero_reuses_the_softmax_in_both_length_groups(monkeypatch):
    # each group's first wave takes its rows' log-probabilities from the
    # last softmax, and its later waves compute them; both give the old bits
    waves = []
    step = optim._score_step

    def spy(z, targets, rows, u, size, offsets, lp=None):
        waves.append((z.shape[1], lp is not None))
        step(z, targets, rows, u, size, offsets, lp)

    monkeypatch.setattr(optim, "_score_step", spy)
    same_reinforce(WORLDS["two-lengths"], seed=7, batch=6, rollouts=16, max_iters=40)
    assert set(waves) == {(2, True), (2, False), (3, True), (3, False)}


def test_reinforce_early_convergence_bit_identical():
    # a single candidate never moves; a vanishing step moves below tol
    assert len(same_reinforce(single_candidate_world(), max_iters=50).rows) == 1
    trace = same_reinforce(WORLDS["two-lengths"], step_size=1e-13, max_iters=50)
    assert trace.converged and len(trace.rows) < 50
    # a huge step jumps to a point mass, where every advantage is zero
    trace = same_reinforce(WORLDS["race-1"], step_size=1e307, rollouts=32, max_iters=50)
    assert trace.converged and len(trace.rows) < 50
