"""Generation through the loader against the former direct assembly.

``tests/generate_oracle.py`` keeps the generator that built each
``LogDist`` and the ``Scenario`` itself.  On a seeded family of configs,
the current ``generate`` must give the same scenario value by value:
spaces, alignment, each kernel's row order, supports, the bytes and
read-only flags of ``probs`` and ``logp``, priors, strengths and seed.
Pickled bytes are not compared: the loader shares one support tuple
between rows with the same support, which pickling records.
"""

import itertools

import numpy as np
import pytest

from generate_oracle import generate as oracle_generate
from xlconsist.scenario import GeneratorConfig, generate, validate


def _same_dist(got, want, where):
    assert got.support == want.support, where
    for name in ("probs", "logp"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (where, name)
        assert a.flags.writeable is b.flags.writeable is False, (where, name)


def _same_kernel(got, want, where):
    assert (got.domain, got.codomain) == (want.domain, want.codomain), where
    assert list(got.rows) == list(want.rows), where
    for i, row in want.rows.items():
        _same_dist(got.rows[i], row, (where, i))


def _configs(n_langs):
    grid = itertools.product((1, 3), (1, 2, 6, 9), (("bijective", 0.0), ("noisy", 0.3)),
                             ("uniform", "dirichlet"), (False, True), (0.3, 2.0))
    for k, (P, C, (mode, noise), prior, strengths, alpha) in enumerate(grid):
        # u as a numpy array and v as numpy floats, as test worlds pass them
        u = np.linspace(0.5, 2.0, n_langs) if strengths else None
        v = tuple(np.float64(1.0 / x) for x in u) if strengths else None
        yield GeneratorConfig(n_langs=n_langs, n_prompts=P, n_candidates=C,
                              translator_mode=mode, noise=noise, ref_sharpness=alpha,
                              u=u, v=v, prior_mode=prior, seed=100 * n_langs + k)


@pytest.mark.parametrize("n_langs", [1, 2, 3, 4])
def test_generate_matches_the_direct_assembly(n_langs):
    for config in _configs(n_langs):
        got, want = generate(config), oracle_generate(config)
        assert validate(got) == [], config
        assert got.spaces == want.spaces, config
        assert got.alignment == want.alignment, config
        assert list(got.ref) == list(want.ref), config
        for m, kern in want.ref.items():
            _same_kernel(got.ref[m], kern, (config, "ref", m))
        assert list(got.translators) == list(want.translators), config
        for pair, kern in want.translators.items():
            _same_kernel(got.translators[pair], kern, (config, "translator", pair))
        assert list(got.priors) == list(want.priors), config
        for m, prior in want.priors.items():
            _same_dist(got.priors[m], prior, (config, "prior", m))
        assert got.strengths == want.strengths, config
        assert got.seed == want.seed, config
