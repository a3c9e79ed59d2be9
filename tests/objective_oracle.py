"""The N-language objective ``objectives`` computed before it required the
reference support, kept as the oracle for the one it has now.

``n_language_objective`` and ``_expectation_terms`` are their former
bodies, unchanged: both the reference row and each route's target realigned
onto the policy row's support through a dictionary, and every ``-inf``
expectation caught by a branch instead of left to IEEE arithmetic.
``_logp_at`` is the former dictionary alignment, and ``n_language_total``
the package's prior-weighted sum, here over the oracle's objective.
``tests/test_objective_oracle.py`` asserts that ``objectives`` gives the
same bits.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from xlconsist.core import LogDist, StochasticKernel
from xlconsist.objectives import PcoValue, _check_prompt, _routes
from xlconsist.scenario import Scenario


def _logp_at(d: LogDist, ids: Sequence[int]) -> np.ndarray:
    at = dict(zip(d.support, d.logp.tolist()))
    return np.array([at.get(i, -math.inf) for i in ids])


def _expectation_terms(theta_row: LogDist, logp_other: np.ndarray) -> float:
    """Sum of theta * logp_other with the 0*log convention; +-inf propagated."""
    mask = theta_row.probs > 0
    vals = logp_other[mask]
    if np.any(vals == -math.inf):
        return -math.inf
    return float(np.sum(theta_row.probs[mask] * vals))


def n_language_objective(
    theta: StochasticKernel,
    scenario: Scenario,
    prompt: int,
    lang: int,
    targets: Mapping[tuple[int, int, int], LogDist],
) -> PcoValue:
    """One prompt's penalized value: KL to the reference minus one
    strength-weighted expected log round-trip likelihood per other
    language, all under the candidate policy."""
    _check_prompt(scenario, prompt, lang)
    t_row = theta.row(prompt)
    ref_row = scenario.ref[lang].row(prompt)
    log_ref = _logp_at(ref_row, t_row.support)
    fid = _expectation_terms(t_row, log_ref)
    mask = t_row.probs > 0
    fidelity = math.inf if fid == -math.inf else max(
        0.0, float(np.sum(t_row.probs[mask] * t_row.logp[mask])) - fid
    )
    reward = 0.0
    for via in _routes(scenario, lang):
        e = _expectation_terms(t_row, _logp_at(targets[(lang, via, prompt)], t_row.support))
        if e == -math.inf:
            reward = -math.inf
            break
        reward += scenario.beta(lang, via) * e
    total = math.inf if (fidelity == math.inf or reward == -math.inf) else fidelity - reward
    return PcoValue(fidelity=fidelity, reward_term=reward, total=total)


def n_language_total(
    theta_by_lang: Mapping[int, StochasticKernel],
    scenario: Scenario,
    targets: Mapping[tuple[int, int, int], LogDist],
) -> float:
    total = 0.0
    for lang in scenario.lang_ids:
        prior = scenario.priors[lang]
        for prompt, mass in zip(prior.support, prior.probs):
            if mass > 0.0:
                total += mass * n_language_objective(
                    theta_by_lang[lang], scenario, prompt, lang, targets).total
    return total
