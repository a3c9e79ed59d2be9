"""The two tilts ``objectives`` computed before it had one, kept as the
oracle for the shared one.

``_tilted_row`` and ``tilted_optimum`` are the former bodies of their
``objectives`` namesakes: the reference row plus each route's weighted log
target, floored only for a route whose zero meets positive reference mass,
then normalized.  ``n_language_log_targets`` is the former body of the
regression targets: every zero floored, reference and routes alike, here
at any weight, so it also gives the tilt each optimum carries.
``_logp_at`` is the former dictionary alignment both used.
``tests/test_tilt.py`` asserts that ``objectives`` gives the same bits.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

import numpy as np

from xlconsist.core import LOG_EPS, LogDist, StochasticKernel, logsumexp
from xlconsist.objectives import ClosedFormOptimum
from xlconsist.scenario import Scenario


def _logp_at(d: LogDist, ids: Sequence[int]) -> np.ndarray:
    idx = {i: k for k, i in enumerate(d.support)}
    out = np.full(len(ids), -math.inf)
    for k, i in enumerate(ids):
        j = idx.get(i)
        if j is not None:
            out[k] = d.logp[j]
    return out


def _floor_zeros(logp: np.ndarray) -> np.ndarray:
    return np.where(logp == -math.inf, LOG_EPS, logp)


def _routes(scenario: Scenario, lang: int) -> list[int]:
    return [n for n in scenario.lang_ids if n != lang]


def _tilted_row(
    ref_row: LogDist, tilts: Sequence[tuple[float, LogDist]]
) -> tuple[LogDist, float, bool]:
    """ref * prod target^beta, normalized; returns (row, logZ, floor_used)."""
    unnorm = ref_row.logp.copy()
    floor_used = False
    for beta, target in tilts:
        log_t = _logp_at(target, ref_row.support)
        if np.any((log_t == -math.inf) & (ref_row.probs > 0)):
            floor_used = True
            log_t = _floor_zeros(log_t)
        unnorm = unnorm + beta * log_t
    log_z = logsumexp(unnorm)
    return LogDist.from_logp(ref_row.support, unnorm), log_z, floor_used


def tilted_optimum(
    scenario: Scenario,
    targets: Mapping[tuple[int, int, int], LogDist],
    weight: Callable[[int, int], float],
) -> ClosedFormOptimum:
    policy, log_norm, floored, tilt = {}, {}, [], {}
    for lang in scenario.lang_ids:
        rows = {}
        for prompt in scenario.space(lang).prompts:
            tilt[prompt] = n_language_log_targets(scenario, prompt, lang, targets, weight)
            tilts = [(weight(lang, via), targets[(lang, via, prompt)])
                     for via in _routes(scenario, lang)]
            row, log_z, used = _tilted_row(scenario.ref[lang].row(prompt), tilts)
            rows[prompt] = row
            log_norm[prompt] = log_z
            if used:
                floored.append((lang, prompt))
        policy[lang] = StochasticKernel(domain=lang, codomain=lang, rows=rows)
    return ClosedFormOptimum(policy, log_norm, tuple(floored), targets, tilt)


def n_language_log_targets(
    scenario: Scenario,
    prompt: int,
    lang: int,
    targets: Mapping[tuple[int, int, int], LogDist],
    weight: Callable[[int, int], float] | None = None,
) -> np.ndarray:
    weight = scenario.beta if weight is None else weight
    ref_row = scenario.ref[lang].row(prompt)
    out = _floor_zeros(ref_row.logp)
    for via in _routes(scenario, lang):
        log_t = _floor_zeros(_logp_at(targets[(lang, via, prompt)], ref_row.support))
        out += weight(lang, via) * log_t
    return out
