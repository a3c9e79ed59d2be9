"""Bitwise differential test: the one tilt of ``objectives`` against the two
copies it replaced, kept in ``tilt_oracle``.

``tilted_optimum`` (at the strengths, and at the strengths plus one as
``corrupt_exponent`` builds it) and ``n_language_optimum`` must give the
oracle's bits: every row's ``probs`` and ``logp``, every log-normalizer,
the ``floored`` rows, and the tilt each optimum carries, which at the
strengths is every regression target of ``table()``.  The worlds span two to four languages,
bijective and noisy translators, reference rows sharp enough to hold exact
zeros, and exact and Monte-Carlo targets.
"""

import dataclasses
import math

import numpy as np
import pytest
import tilt_oracle
from conftest import tiny_bilingual

from xlconsist.core import LOG_EPS, LogDist, StochasticKernel
from xlconsist.objectives import (
    MonteCarloConfig,
    n_language_optimum,
    round_trip_targets,
    tilted_optimum,
)
from xlconsist.propositions import corrupt_exponent
from xlconsist.scenario import GeneratorConfig, generate

# a concentration of 0.002 draws reference rows with exact zeros
SHARPNESS = (0.002, 0.3, 3.0)


def _world(n_langs: int, mode: str, sharpness: float, seed: int):
    rng = np.random.default_rng(seed)
    u = tuple(float(x) for x in np.exp(rng.uniform(-2.0, 2.0, n_langs)))
    v = tuple(float(x) for x in np.exp(rng.uniform(-2.0, 2.0, n_langs)))
    return generate(GeneratorConfig(
        n_langs=n_langs, n_prompts=3, n_candidates=4, translator_mode=mode,
        noise=0.3 if mode == "noisy" else 0.0, ref_sharpness=sharpness,
        u=u, v=v, seed=seed))


WORLDS = {
    f"{n}-lang-{mode}-sharpness-{sharp}": (n, mode, sharp, 10 * n + k)
    for n in (2, 3, 4) for mode in ("bijective", "noisy")
    for k, sharp in enumerate(SHARPNESS)
}


def _hex(x: float) -> str:
    return float(x).hex()


def _assert_same_optimum(got, expected):
    assert got.floored == expected.floored
    assert got.targets == expected.targets
    assert got.log_normalizers.keys() == expected.log_normalizers.keys()
    for p, log_z in expected.log_normalizers.items():
        assert _hex(got.log_normalizers[p]) == _hex(log_z)
    assert got.tilt.keys() == expected.tilt.keys()
    for p, tilt in expected.tilt.items():
        assert got.tilt[p].tobytes() == tilt.tobytes()
    assert got.policy.keys() == expected.policy.keys()
    for lang, kern in expected.policy.items():
        assert got.policy[lang].rows.keys() == kern.rows.keys()
        for p, row in kern.rows.items():
            mine = got.row(lang, p)
            assert mine.support == row.support
            assert mine.probs.tobytes() == row.probs.tobytes()
            assert mine.logp.tobytes() == row.logp.tobytes()


def _assert_same_tilt(s, targets):
    """Every output of the shared tilt against the oracle, on one target map."""
    shifted = lambda lang, via: s.beta(lang, via) + 1.0  # noqa: E731
    for weight in (s.beta, shifted):
        _assert_same_optimum(tilted_optimum(s, targets, weight),
                             tilt_oracle.tilted_optimum(s, targets, weight))
    optimum = tilted_optimum(s, targets, s.beta)
    _assert_same_optimum(corrupt_exponent(s, optimum),
                         tilt_oracle.tilted_optimum(s, targets, shifted))
    table = optimum.table()
    for lang in s.lang_ids:
        for p in s.space(lang).prompts:
            expected = tilt_oracle.n_language_log_targets(s, p, lang, targets).tobytes()
            assert table.rows[p].tobytes() == expected
            assert table.supports[p] == s.ref[lang].row(p).support


@pytest.mark.parametrize("mc", [None, MonteCarloConfig(256, seed=3)], ids=["exact", "mc"])
@pytest.mark.parametrize("name", sorted(WORLDS))
def test_tilt_matches_the_two_former_copies(name, mc):
    s = _world(*WORLDS[name])
    _assert_same_tilt(s, round_trip_targets(s, mc))
    _assert_same_optimum(n_language_optimum(s, mc=mc),
                         tilt_oracle.tilted_optimum(s, round_trip_targets(s, mc), s.beta))


def test_worlds_exercise_zeros_and_the_floor():
    """The sharp worlds hold reference zeros, floored rows and rows whose
    target zeros the optimum keeps, so the comparison above covers both
    sides of the floor."""
    ref_zeros = floored = kept = 0
    for args in WORLDS.values():
        s = _world(*args)
        opt = n_language_optimum(s)
        floored += len(opt.floored)
        for lang in s.lang_ids:
            for p in s.space(lang).prompts:
                ref_zeros += int((s.ref[lang].row(p).probs == 0).sum())
                kept += int((lang, p) not in opt.floored
                            and (opt.row(lang, p).probs == 0).any())
    assert ref_zeros and floored and kept


def test_reference_mass_below_underflow_keeps_the_target_zero():
    """A reference entry of log-mass -800 has probability 0, so a zero of the
    target there needs no floor and the optimum keeps it at -inf; a mask of
    the reference's own -inf entries would leave it at -800 + LOG_EPS."""
    world = tiny_bilingual([1.0, 0.0], [1.0, 0.0])
    ref0 = StochasticKernel(0, 0, {0: LogDist.from_logp((1, 2), [0.0, -800.0])})
    world = dataclasses.replace(world, ref={0: ref0, 1: world.ref[1]})
    targets = round_trip_targets(world)
    assert targets[(0, 1, 0)].prob(2) == 0.0
    _assert_same_tilt(world, targets)
    opt = n_language_optimum(world)
    assert opt.floored == ()
    assert opt.row(0, 0).logp.tolist() == [0.0, -math.inf]
    assert opt.tilt[0].tolist() == [0.0, -800.0 + LOG_EPS]
    assert opt.table().rows[0].tolist() == [0.0, -800.0 + LOG_EPS]
