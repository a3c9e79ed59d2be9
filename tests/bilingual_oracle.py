"""The bilingual objective written directly in its two cross weights.

An independent oracle for the package's single product-of-powers path:
with exactly two languages each language has one other language, one
round-trip target and one strength, so the objective, its prior-weighted
total, the regression targets and the optimum can be spelled out without
any loop over routes.  The tests compare the N-language functions against
these.  ``_logp_at`` and ``_expectation_terms`` are the dictionary alignment
and the branching expectation the package used before it read policies on
the reference support.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from xlconsist.core import LOG_EPS, LogDist, StochasticKernel, logsumexp
from xlconsist.objectives import (
    ClosedFormOptimum,
    MonteCarloConfig,
    PcoValue,
    _check_prompt,
    round_trip_target,
)
from xlconsist.scenario import Scenario


def _logp_at(d: LogDist, ids: Sequence[int]) -> np.ndarray:
    """``d.logp`` at each of ``ids``, ``-inf`` where ``d`` has no entry."""
    at = dict(zip(d.support, d.logp.tolist()))
    return np.array([at.get(i, -math.inf) for i in ids])


def _expectation_terms(theta_row: LogDist, logp_other: np.ndarray) -> float:
    """Sum of theta * logp_other with the 0*log convention; +-inf propagated."""
    mask = theta_row.probs > 0
    vals = logp_other[mask]
    if np.any(vals == -math.inf):
        return -math.inf
    return float(np.sum(theta_row.probs[mask] * vals))


def _other_lang(scenario: Scenario, lang: int) -> int:
    if scenario.n_langs != 2:
        raise ValueError("bilingual operation requires exactly two languages")
    a, b = scenario.lang_ids
    return b if lang == a else a


def pco_objective(
    theta: StochasticKernel,
    scenario: Scenario,
    prompt: int,
    lang: int,
    target: LogDist | None = None,
) -> PcoValue:
    """One prompt's penalized value: KL to the reference minus the
    strength-weighted expected log round-trip likelihood, both under the
    candidate policy."""
    _check_prompt(scenario, prompt, lang)
    via = _other_lang(scenario, lang)
    beta = scenario.beta(lang, via)
    t_row = theta.row(prompt)
    ref_row = scenario.ref[lang].row(prompt)
    if target is None:
        target = round_trip_target(scenario, lang, via, prompt)

    log_ref = _logp_at(ref_row, t_row.support)
    fid = _expectation_terms(t_row, log_ref)
    fidelity = math.inf if fid == -math.inf else max(
        0.0, float(np.sum(t_row.probs[t_row.probs > 0] * t_row.logp[t_row.probs > 0])) - fid
    )
    log_t = _logp_at(target, t_row.support)
    e_log_target = _expectation_terms(t_row, log_t)
    reward = beta * e_log_target
    total = math.inf if (fidelity == math.inf or reward == -math.inf) else fidelity - reward
    return PcoValue(fidelity=fidelity, reward_term=reward, total=total)


def pco_total(
    theta_by_lang: Mapping[int, StochasticKernel],
    scenario: Scenario,
    targets: Mapping[tuple[int, int], LogDist] | None = None,
) -> float:
    """The full prior-weighted objective over both languages; ``targets``
    is keyed by (lang, prompt)."""
    total = 0.0
    for lang in scenario.lang_ids:
        prior = scenario.priors[lang]
        for prompt, mass in zip(prior.support, prior.probs):
            if mass == 0.0:
                continue
            tgt = targets.get((lang, prompt)) if targets is not None else None
            val = pco_objective(theta_by_lang[lang], scenario, prompt, lang, target=tgt)
            total += mass * val.total
    return total


def dco_log_targets(
    scenario: Scenario,
    prompt: int,
    lang: int,
    mc: MonteCarloConfig | None = None,
) -> np.ndarray:
    """Per-candidate regression targets: beta * log target + log reference,
    aligned with the reference row's support order."""
    _check_prompt(scenario, prompt, lang)
    via = _other_lang(scenario, lang)
    beta = scenario.beta(lang, via)
    ref_row = scenario.ref[lang].row(prompt)
    target = round_trip_target(scenario, lang, via, prompt, mc=mc)
    log_t = _logp_at(target, ref_row.support)
    log_t = np.where(log_t == -math.inf, LOG_EPS, log_t)
    log_ref = np.where(ref_row.logp == -math.inf, LOG_EPS, ref_row.logp)
    return beta * log_t + log_ref


def bilingual_optimum(
    scenario: Scenario, mc: MonteCarloConfig | None = None
) -> ClosedFormOptimum:
    """Per prompt, the reference row tilted by the one round-trip target
    raised to that language's cross weight; a zero-mass target entry is
    lifted to the floor and the row flagged.  The tilt it carries is
    ``dco_log_targets``' formula: every zero floored."""
    policy, log_norm, floored, targets, tilt = {}, {}, [], {}, {}
    for lang in scenario.lang_ids:
        via = _other_lang(scenario, lang)
        beta = scenario.beta(lang, via)
        rows = {}
        for prompt in scenario.space(lang).prompts:
            ref_row = scenario.ref[lang].row(prompt)
            target = round_trip_target(scenario, lang, via, prompt, mc=mc)
            targets[(lang, via, prompt)] = target
            log_t = _logp_at(target, ref_row.support)
            tilt[prompt] = (beta * np.where(log_t == -math.inf, LOG_EPS, log_t)
                            + np.where(ref_row.logp == -math.inf, LOG_EPS, ref_row.logp))
            if np.any((log_t == -math.inf) & (ref_row.probs > 0)):
                log_t = np.where(log_t == -math.inf, LOG_EPS, log_t)
                floored.append((lang, prompt))
            unnorm = ref_row.logp + beta * log_t
            rows[prompt] = LogDist.from_logp(ref_row.support, unnorm)
            log_norm[prompt] = logsumexp(unnorm)
        policy[lang] = StochasticKernel(domain=lang, codomain=lang, rows=rows)
    return ClosedFormOptimum(policy, log_norm, tuple(floored), targets, tilt)
