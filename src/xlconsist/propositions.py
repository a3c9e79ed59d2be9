"""Executable verification of the closed-form guarantees.

Each check takes a scenario and returns pass, fail, or skipped-with-reason
when its preconditions are not met (unbalanced strengths, leaky
translators, too few languages).  The checks are deliberately independent
of the optimizers: they evaluate objectives directly, and divergences
through the lockstep search of ``metrics.check_pairs`` at fixed temperatures.

The checks read the round-trip targets the optimum carries, so
``run_checks`` builds each target once; it runs minimality once too.

``corrupt_exponent`` exists for self-testing the harness: it rebuilds the
optimum with every strength weight off by one, which a sound minimality
check must reject.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations, permutations

import numpy as np

from xlconsist.core import DIVERGENCE_KINDS, DivergenceSpec, is_invertible_pair, require_int
from xlconsist.metrics import DEFAULT_T_GRID, check_pairs
from xlconsist.objectives import (
    ClosedFormOptimum,
    LogitTable,
    closed_form_optimum,
    dco_loss,
    n_language_optimum,
    n_language_total,
    objective_rows,
    prior_weighted_sum,
    tilted_optimum,
)
from xlconsist.scenario import GeneratorConfig, Scenario, cocycle_violations, generate

@dataclass(frozen=True)
class CheckResult:
    check_id: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""
    observed: float | None = None
    expected: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "fail"


_MIN_TV = 1e-3


def _translators_invertible(s: Scenario) -> bool:
    langs = s.lang_ids
    return all(
        is_invertible_pair(s.translator(a, b), s.translator(b, a), 1e-9)
        for i, a in enumerate(langs) for b in langs[i + 1:]
    )


def corrupt_exponent(s: Scenario, optimum: ClosedFormOptimum) -> ClosedFormOptimum:
    """Rebuild the optimum with every cross weight off by one."""
    return tilted_optimum(s, optimum.targets, lambda lang, via: s.beta(lang, via) + 1.0)


def _minimality(
    s: Scenario,
    optimum: ClosedFormOptimum,
    check_id: str,
    n_perturbations: int = 100,
    seed: int = 0,
) -> CheckResult:
    """Tilt every row toward a random distribution by at least ``_MIN_TV``, all
    perturbations first; score each row's as one stack, margins in drawing order."""
    require_int("n_perturbations", n_perturbations, 1)
    require_int("seed", seed, 0)
    best = n_language_total(optimum.policy, s, optimum.targets)
    if not math.isfinite(best):  # every margin would be inf - inf = nan
        return CheckResult(check_id, "fail", f"objective at the optimum is {best}, so no margin "
                           f"is defined; optimum.floored {optimum.floored}",
                           observed=float(best), expected="finite objective, margin > 0")
    rng = np.random.default_rng(seed)
    rows = {(lang, p): row.probs for lang, k in optimum.policy.items() for p, row in k.rows.items()}
    stacks = {key: np.empty((n_perturbations, len(probs))) for key, probs in rows.items()}
    for i in range(n_perturbations):
        for key, probs in rows.items():
            while True:
                q = rng.random(len(probs)) + 1e-6
                q /= q.sum()
                base_tv = 0.5 * float(np.abs(probs - q).sum())
                if base_tv >= 10 * _MIN_TV:
                    break
            lam = min(1.0, (2.0 * _MIN_TV) / base_tv)
            mix = (1.0 - lam) * probs + lam * q
            stacks[key][i] = mix / mix.sum()
    totals = prior_weighted_sum(s, lambda lang, p: objective_rows(
        stacks[lang, p], np.log(stacks[lang, p]), s, p, lang, optimum.targets)[2])
    worst_margin = math.inf
    for margin in (totals - best).tolist():
        worst_margin = min(worst_margin, margin)
        if margin <= 0:
            return CheckResult(check_id, "fail", "a perturbation matched or beat the optimum",
                               observed=float(margin), expected="margin > 0")
    return CheckResult(check_id, "pass",
                       f"{n_perturbations} perturbations, smallest margin {worst_margin:.3e}",
                       observed=float(worst_margin), expected="margin > 0")


def check_optimum_minimality(s: Scenario, optimum=None, **kw) -> CheckResult:
    cid = "optimum-minimality"
    if s.n_langs != 2:
        return CheckResult(cid, "skipped", "needs exactly two languages")
    optimum = closed_form_optimum(s) if optimum is None else optimum
    return _minimality(s, optimum, cid, **kw)


def check_optimum_consistency(s: Scenario, optimum=None, tol: float = 1e-9) -> CheckResult:
    cid = "optimum-consistency"
    if s.n_langs != 2:
        return CheckResult(cid, "skipped", "needs exactly two languages")
    if not s.strengths.is_balanced():
        return CheckResult(cid, "skipped", "strengths are not balanced")
    if not _translators_invertible(s):
        return CheckResult(cid, "skipped", "translators are not invertible")
    optimum = closed_form_optimum(s) if optimum is None else optimum
    pairs = [(s.lang_ids, pt) for pt in s.alignment.prompt_tuples]
    worst = 0.0
    for kind in DIVERGENCE_KINDS:
        for rep in check_pairs(optimum.policy, s.translators, pairs, DivergenceSpec(kind), tol,
                               DEFAULT_T_GRID, fixed=s.beta):
            worst = max(worst, rep.divergence_at_best_T)
            if not rep.satisfied:
                return CheckResult(cid, "fail",
                                   f"{kind} divergence at prompts {rep.prompt_pair}",
                                   observed=rep.divergence_at_best_T,
                                   expected=f"<= {tol}")
    return CheckResult(cid, "pass", f"all kinds, worst divergence {worst:.3e}",
                       observed=worst, expected=f"<= {tol}")


def check_logit_target_equivalence(s: Scenario, optimum=None) -> CheckResult:
    cid = "logit-target-equivalence"
    if optimum is None:
        optimum = n_language_optimum(s)
    # tilted again at the strengths, so a corrupted optimum drifts from it
    targets = tilted_optimum(s, optimum.targets, s.beta).table()
    worst = max([0.0, *(float(np.abs(targets.policy_row(p).probs - optimum.row(lang, p).probs).max())
                        for lang in s.lang_ids for p in s.space(lang).prompts)])
    if worst > 1e-12:
        return CheckResult(cid, "fail", "normalized targets drift from the optimum",
                           observed=worst, expected="<= 1e-12")
    shifted = LogitTable(targets.supports,
                         {p: targets.rows[p] + 1.0 for p in targets.prompts()})
    if dco_loss(shifted, targets) <= 0.0:
        return CheckResult(cid, "fail", "shifted scores should cost raw loss",
                           observed=0.0, expected="> 0")
    shift_gap = max(
        float(np.max(np.abs(shifted.policy_row(p).probs - targets.policy_row(p).probs)))
        for p in targets.prompts()
    )
    if shift_gap > 1e-12:
        return CheckResult(cid, "fail", "per-prompt shifts changed the induced policy",
                           observed=shift_gap, expected="<= 1e-12")
    return CheckResult(cid, "pass", f"targets renormalize to the optimum, gap {worst:.1e}",
                       observed=worst, expected="<= 1e-12")


def check_multi_language_minimality(s: Scenario, optimum=None, **kw) -> CheckResult:
    cid = "multi-language-minimality"
    optimum = n_language_optimum(s) if optimum is None else optimum
    return _minimality(s, optimum, cid, **kw)


def check_multi_language_consistency(s: Scenario, optimum=None, tol: float = 1e-9) -> CheckResult:
    cid = "multi-language-consistency"
    if s.n_langs < 3:
        return CheckResult(cid, "skipped", "needs at least three languages")
    if not s.strengths.is_balanced():
        return CheckResult(cid, "skipped", "strengths are not rank-one balanced")
    if not _translators_invertible(s):
        return CheckResult(cid, "skipped", "translators are not invertible")
    if cocycle_violations(s):
        return CheckResult(cid, "skipped", "translators do not satisfy the cocycle identity")
    optimum = n_language_optimum(s) if optimum is None else optimum
    groups, u = s.alignment.prompt_tuples, s.strengths.u
    pairs = [((m, n), (pt[m], pt[n])) for m, n in combinations(s.lang_ids, 2) for pt in groups]
    found = {}
    for ((m, n), (x_m, x_n)), rep in zip(pairs, check_pairs(
            optimum.policy, s.translators, pairs, DivergenceSpec("forward-kl"), tol,
            DEFAULT_T_GRID, fixed=lambda m, n: u[m], fixed_direct=lambda m, n: u[n])):
        found[m, n, x_m], found[n, m, x_n] = rep.divergence_1, rep.divergence_2
    worst = 0.0
    for m, n in permutations(s.lang_ids, 2):
        for pt in groups:
            x_m = pt[m]
            d = found[m, n, x_m]
            worst = max(worst, d)
            if d > tol:
                return CheckResult(cid, "fail",
                                   f"pair ({m},{n}) at prompt {x_m}",
                                   observed=d, expected=f"<= {tol}")
    return CheckResult(cid, "pass", f"all ordered pairs, worst divergence {worst:.3e}",
                       observed=worst, expected=f"<= {tol}")


def run_checks(s: Scenario, self_test: bool = False) -> list[CheckResult]:
    """Run every check; with ``self_test`` the optimum is corrupted first,
    which a working minimality check must catch."""
    optimum = n_language_optimum(s)
    if self_test:
        optimum = corrupt_exponent(s, optimum)
    minimality = check_multi_language_minimality(s, optimum=optimum)
    return [
        replace(minimality, check_id="optimum-minimality") if s.n_langs == 2
        else check_optimum_minimality(s, optimum=optimum),
        check_optimum_consistency(s, optimum=optimum),
        check_logit_target_equivalence(s, optimum=optimum),
        minimality,
        check_multi_language_consistency(s, optimum=optimum),
    ]


def builtin_suite() -> list[tuple[str, Scenario]]:
    """Seeded scenarios covering the regimes the checks distinguish."""
    return [
        ("bilingual-balanced", generate(GeneratorConfig(
            n_langs=2, n_prompts=6, n_candidates=4, seed=101))),
        ("bilingual-skewed", generate(GeneratorConfig(
            n_langs=2, n_prompts=4, n_candidates=5, seed=102,
            u=(1.0, 2.0), v=(1.0, 0.5)))),
        ("trilingual-cocycle", generate(GeneratorConfig(
            n_langs=3, n_prompts=4, n_candidates=3, seed=103))),
        ("bilingual-noisy", generate(GeneratorConfig(
            n_langs=2, n_prompts=4, n_candidates=4, seed=104,
            translator_mode="noisy", noise=0.2))),
    ]
