"""The former scenario generator, kept as the oracle for the current one.

``generate`` and ``_translator_row`` are the former bodies of
``xlconsist.scenario.generate`` and its helper: every row becomes a
``LogDist`` through ``from_probs`` and ``__post_init__``, and the scenario
is assembled from its parts directly instead of through the loader.  The
one change is that ``Alignment.candidate_map``, which only this code
called, is written out inline.  ``tests/test_generate_oracle.py`` asserts
that both give the same scenario, value by value.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from xlconsist.core import LogDist, StochasticKernel
from xlconsist.scenario import (
    Alignment,
    GeneratorConfig,
    LanguageSpace,
    Scenario,
    StrengthConfig,
    _dirichlet,
    _shuffled,
)


def _translator_row(target_ids: Sequence[int], on: int, noise: float) -> LogDist:
    ids = tuple(sorted(target_ids))
    if noise == 0.0:
        return LogDist.point_mass(ids, on)
    k = len(ids)
    probs = [noise / k + (1.0 - noise) * (1.0 if i == on else 0.0) for i in ids]
    return LogDist.from_probs(ids, probs)


def generate(config: GeneratorConfig) -> Scenario:
    rng = np.random.default_rng(config.seed)
    N, P, C = config.n_langs, config.n_prompts, config.n_candidates

    # ID layout: per language, P prompt IDs then P*C candidate IDs
    spaces = []
    next_id = 0
    for m in range(N):
        prompts = tuple(range(next_id, next_id + P))
        next_id += P
        candidates = {}
        for p in prompts:
            candidates[p] = tuple(range(next_id, next_id + C))
            next_id += C
        spaces.append(LanguageSpace(lang_id=m, prompts=prompts, candidates=candidates))

    # alignment: language 0 in natural order, the rest shuffled
    prompt_cols = [list(spaces[0].prompts)]
    for m in range(1, N):
        prompt_cols.append(_shuffled(rng, spaces[m].prompts))
    prompt_tuples = tuple(zip(*prompt_cols))

    candidate_tuples = []
    for g, pt in enumerate(prompt_tuples):
        cols = [list(spaces[0].candidates[pt[0]])]
        for m in range(1, N):
            cols.append(_shuffled(rng, spaces[m].candidates[pt[m]]))
        candidate_tuples.append(tuple(zip(*cols)))
    alignment = Alignment(prompt_tuples, tuple(candidate_tuples))

    # reference rows
    delta = config.noise if config.translator_mode == "noisy" else 0.0
    ref = {}
    for m, sp in enumerate(spaces):
        rows = {}
        for p in sp.prompts:
            probs = _dirichlet(rng, config.ref_sharpness, C)
            rows[p] = LogDist.from_probs(sp.candidates[p], probs)
        ref[m] = StochasticKernel(domain=m, codomain=m, rows=rows)

    # translators for every ordered pair, prompts and candidates alike
    translators = {}
    for m in range(N):
        for n in range(N):
            if m == n:
                continue
            rows = {}
            pmap = alignment.prompt_map(m, n)
            for g, (p_m, p_n) in enumerate(pmap.items()):
                rows[p_m] = _translator_row(spaces[n].prompts, p_n, delta)
                cmap = {c[m]: c[n] for c in alignment.candidate_tuples[g]}
                targets = spaces[n].candidates[p_n]
                for c_m, c_n in cmap.items():
                    rows[c_m] = _translator_row(targets, c_n, delta)
            translators[(m, n)] = StochasticKernel(domain=m, codomain=n, rows=rows)

    priors = {m: LogDist.uniform(sp.prompts) if config.prior_mode == "uniform"
              else LogDist.from_probs(sp.prompts, _dirichlet(rng, 1.0, P))
              for m, sp in enumerate(spaces)}

    u = config.u if config.u is not None else (1.0,) * N
    v = config.v if config.v is not None else (1.0,) * N
    return Scenario(tuple(spaces), alignment, ref, translators, priors, StrengthConfig(u, v),
                    config.seed)
